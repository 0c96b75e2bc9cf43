"""Semi-infinite step-harmonic quantum well with position-dependent mass.

A library and CLI for the exactly-solvable well whose infinitely high wall at
x = -a and smooth finite plateau come from the effective mass
M(x) = a^2 m0/(a+x)^2: the finite non-equidistant bound spectrum, Bessel- and
Laguerre-polynomial wavefunction forms, hypergeometric continuum states,
factorization operators, the constant-mass limits, and an independent
finite-difference oracle that validates all of it numerically.
"""

__version__ = "0.1.0"

from .canonical import (
    CanonicalParams,
    canonical_energy,
    canonical_wavefunction,
    canonical_wavefunction_derivative,
)
from .errors import (
    BelowContinuum,
    DomainError,
    LevelOutOfRange,
    NonConvergence,
    PdemError,
    PolePivot,
    ToleranceNotMet,
)
from .limits import LimitSweep, continuum_magnitude, energy_gap, scaled_bessel, wavefunction_distance
from .model import (
    WALL,
    BoundStates,
    ContinuousState,
    DiscreteState,
    ModelParams,
    WavefunctionForm,
    alpha0,
    apply_lowering,
    bound_states,
    continuum_state,
    continuum_wavefunction,
    continuum_wavefunction_with_derivatives,
    effective_mass,
    energy,
    energy_for_wavenumber,
    kinetic_weight,
    max_level,
    normalization,
    potential,
    wavefunction,
    wavefunction_with_derivatives,
    well_depth,
)
from .oracle import (
    Grid,
    Tridiagonal,
    build_hamiltonian,
    integrate,
    lowest_eigenvalues,
    ode_residual,
)
from .specfun import (
    bessel_poly,
    hermite,
    kummer_1f1,
    laguerre,
    log_gamma,
)
