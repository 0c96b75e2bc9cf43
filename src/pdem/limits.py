"""Limit relations tying the confined model back to the constant-mass oscillator.

As the semiconfinement length grows the discrete energies close their gaps to
the equidistant ladder, the bound states converge to Hermite functions, and
the continuum amplitudes die out.  The polynomial engine behind the
wavefunction limit is a scaling of Bessel polynomials that tends to Hermite
polynomials; it is exercised here directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import canonical, model, oracle, specfun
from .errors import DomainError

# Default sweeps of pdem limit, which the limit checks of pdem verify also run.
A_SWEEP = (3.0, 5.0, 10.0, 20.0)  # a, energy and wavefunction limits
# a, vanishing continuum.  Not a = 8: at q = 2 its Kummer series cancels below
# double precision (15 digits lost), and the evaluator refuses it.
CONTINUUM_A_SWEEP = (2.0, 4.0)
NU_LADDER = (1e4, 4e4, 1.6e5, 6.4e5)  # nu, Bessel-Hermite; each 4 times the last


@dataclass(frozen=True)
class LimitSweep:
    """Metric values recorded along an increasing parameter sweep."""

    parameter_values: list
    metric_values: list

    def __post_init__(self):
        if len(self.parameter_values) != len(self.metric_values):
            raise ValueError("parameter and metric lists must have equal length")
        require_increasing(self.parameter_values)


def require_increasing(values):
    """Raise ValueError unless the sweep values are strictly increasing."""
    for lo, hi in zip(values, values[1:]):
        if not hi > lo:
            raise ValueError("parameter values must be strictly increasing")


def scaled_bessel(n, x, nu):
    """(-1)^n (2 nu)^(n/2) y_n(2/nu + (2/nu) sqrt(2/nu) x; -nu), at a scalar x
    (giving a float) or elementwise on an array.

    Tends to H_n(x) as nu -> infinity.  specfun.bessel_poly_rows keeps y_n
    as a mantissa and a base-2 exponent, and the factor (2 nu)^(n/2) joins
    that exponent in log space, so no huge-times-tiny product ever forms.
    A degree above model.LEVEL_CAP, the cap on bound levels, is refused
    before any recurrence runs; nu > 2n+1 keeps every recurrence step clear
    of the poles specfun refuses.
    """
    if n < 0:
        raise DomainError(f"degree must be non-negative, got {n}")
    if n > model.LEVEL_CAP:
        raise DomainError(f"degree {n} exceeds the cap of {model.LEVEL_CAP}")
    if not 2.0 * n + 1.0 < nu < math.inf:
        raise DomainError(
            f"need a finite nu > 2n+1 = {2 * n + 1} to stay inside the orthogonality "
            f"window and clear of recurrence poles, got nu={nu}"
        )
    x = np.asarray(x, dtype=float)
    z = (2.0 / nu) * (1.0 + math.sqrt(2.0 / nu) * x)
    exponent, y, _, _ = specfun.bessel_poly_rows((n,), -nu, z)
    y = -y[0] if n % 2 else y[0]
    return specfun.exp_scaled(0.5 * n * math.log(2.0 * nu), y, exponent[0])


def energy_gap(params, n):
    """Exact closed-form gap E_n - E_n^well = hbar w n(n+1) / (2 b^2), that
    is hbar^2 n(n+1) / (2 m0 a^2) without the squares that can leave the
    float range."""
    model.require_level(params, n)
    return params.hbar * params.omega * (n * (n + 1.0) / (2.0 * params.b2))


def wavefunction_distance(params, n, tol=1e-10):
    """Sign-minimized L2 distance between the well state n and the canonical
    Hermite-function state n.

    The overall sign of a bound state is conventional, so the distance is
    minimized over a global sign flip: one quadrature over the rows
    (well - can)^2 and (well + can)^2 gives both squared distances.
    Integration runs from just inside the wall to a + 12/lambda0, where both
    states have decayed."""
    states = model.bound_states(params, (n,))
    ref = canonical.CanonicalParams(m0=params.m0, omega=params.omega, hbar=params.hbar)
    lo = -params.a + 1e-3 * params.a
    hi = params.a + 12.0 / params.lambda0

    def squares(x):
        well = states.psi(x)[0]
        can = canonical.canonical_wavefunction(ref, n, x)
        return np.stack(((well - can) ** 2, (well + can) ** 2))

    return math.sqrt(max(float(oracle.integrate(squares, lo, hi, tol).min()), 0.0))


def continuum_magnitude(params_family, q_fixed, x):
    """|psi_E(x)| across a family of parameter sets at fixed continuum q.

    Members must come in order of strictly increasing a; each energy is the
    one implied by q for that member, which keeps mu = 1 + iq constant across
    the sweep.  The magnitudes are expected to decrease toward zero."""
    values = []
    a_values = []
    for params in params_family:
        e = model.energy_for_wavenumber(params, q_fixed)
        state = model.continuum_state(params, e)
        values.append(abs(model.continuum_wavefunction(state, params, x)))
        a_values.append(params.a)
    return LimitSweep(parameter_values=a_values, metric_values=values)
