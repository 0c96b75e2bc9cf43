"""Limit relations tying the confined model back to the constant-mass oscillator.

As the semiconfinement length grows the discrete energies close their gaps to
the equidistant ladder, the bound states converge to Hermite functions, and
the continuum amplitudes die out.  The polynomial engine behind the
wavefunction limit is a scaling of Bessel polynomials that tends to Hermite
polynomials; it is exercised here directly.
"""

import math

import numpy as np

from . import canonical, model, oracle, specfun
from .errors import DomainError

# Default sweeps of pdem limit, which the limit checks of pdem verify also run.
A_SWEEP = (3.0, 5.0, 10.0, 20.0)  # a, energy and wavefunction limits
# a, vanishing continuum.  Not a = 8: at q = 2 its Kummer series cancels below
# double precision (15 digits lost), and the evaluator refuses it.
CONTINUUM_A_SWEEP = (2.0, 4.0)
NU_LADDER = (1e4, 4e4, 1.6e5, 6.4e5)  # nu, Bessel-Hermite; each 4 times the last


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
    of the poles specfun refuses.  So is nu above 1e14: the recurrence's
    rounding error, 1 to 26 times eps sqrt(2 nu) relative to max(1, |H_n|)
    (against 80-digit arithmetic, n up to 10, |x| <= 2), outgrows there the
    limit's own distance to H_n, about sqrt(2/nu).
    """
    if n < 0:
        raise DomainError(f"degree must be non-negative, got {n}")
    if n > model.LEVEL_CAP:
        raise DomainError(f"degree {n} exceeds the cap of {model.LEVEL_CAP}")
    if not 2.0 * n + 1.0 < nu:
        raise DomainError(
            f"need nu > 2n+1 = {2 * n + 1} to stay inside the orthogonality "
            f"window and clear of recurrence poles, got nu={nu}"
        )
    if nu > 1e14:
        raise DomainError(
            f"nu={nu} is above 1e14, where the rounding error of the recurrence, "
            "about eps sqrt(2 nu), outgrows the distance to H_n, about sqrt(2/nu)"
        )
    x = np.asarray(x, dtype=float)
    z = (2.0 / nu) * (1.0 + math.sqrt(2.0 / nu) * x)
    exponent, y, _, _ = specfun.bessel_poly_rows((n,), -nu, z)
    y = -y[0] if n % 2 else y[0]
    return specfun.exp_scaled(0.5 * n * math.log(2.0 * nu), y, exponent[0])


def energy_gap(params, n):
    """Exact closed-form gap E_n - E_n^well = hbar w n(n+1) / (2 b^2), that
    is hbar^2 n(n+1) / (2 m0 a^2), with the unit hbar w applied last, of a
    bound level n (a float) or of each of an array of them (an array).
    Raises DomainError where the gap leaves the float range."""
    return model.ladder(params, n, slice(2, 3))[0]


def wavefunction_distance(params, n):
    """Sign-minimized L2 distance between the well state n and the canonical
    Hermite-function state n.

    The overall sign of a bound state is conventional, so the distance is
    minimized over a global sign flip: one quadrature over the rows
    (well - can)^2 and (well + can)^2 gives both squared distances.
    Integration runs from just inside the wall to a + 12/lambda0, where both
    states have decayed, to a tolerance of 1e-10."""
    states = model.bound_states(params, (n,))
    ref = canonical.CanonicalParams(m0=params.m0, omega=params.omega, hbar=params.hbar)
    lo = -params.a + 1e-3 * params.a
    hi = params.a + 12.0 / params.lambda0

    def squares(x):
        well = states.psi(x)[0]
        can = canonical.canonical_wavefunction(ref, n, x)
        return np.stack(((well - can) ** 2, (well + can) ** 2))

    return math.sqrt(max(float(oracle.integrate(squares, lo, hi, 1e-10).min()), 0.0))


def continuum_magnitude(params_family, q_fixed, x):
    """The list of |psi_E(x)| across a family of parameter sets at fixed
    continuum q.

    Members must come in order of strictly increasing a (else ValueError);
    each state is built from q itself, at the energy it implies for that
    member, so mu = 1 + iq is exactly the same across the sweep.  The
    magnitudes should fall to 0."""
    require_increasing([params.a for params in params_family])
    return [
        abs(model.continuum_wavefunction(model.wavenumber_state(params, q_fixed), params, x))
        for params in params_family
    ]
