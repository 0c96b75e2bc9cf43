"""Limit relations tying the confined model back to the constant-mass oscillator.

As the semiconfinement length grows the discrete energies close their gaps to
the equidistant ladder, the bound states converge to Hermite functions, and
the continuum amplitudes die out.  The polynomial engine behind the
wavefunction limit is a scaling of Bessel polynomials that tends to Hermite
polynomials; it is exercised here directly.
"""

import math
from dataclasses import dataclass

from . import canonical, model, oracle
from .errors import DomainError


@dataclass(frozen=True)
class LimitSweep:
    """Metric values recorded along an increasing parameter sweep."""

    parameter_values: list
    metric_values: list
    metric_name: str

    def __post_init__(self):
        if len(self.parameter_values) != len(self.metric_values):
            raise ValueError("parameter and metric lists must have equal length")
        for lo, hi in zip(self.parameter_values, self.parameter_values[1:]):
            if not hi > lo:
                raise ValueError("parameter values must be strictly increasing")


def scaled_bessel(n, x, nu):
    """(-1)^n (2 nu)^(n/2) y_n(2/nu + (2/nu) sqrt(2/nu) x; -nu).

    Tends to H_n(x) as nu -> infinity.  The scaling is folded into the
    recurrence itself: with Y_k = (-1)^k (2 nu)^(k/2) y_k the step becomes
        Y_{k+1} = [-sqrt(2 nu) A_k] Y_k + [2 nu B_k] Y_{k-1},
    whose coefficients tend to 2x and -2n, so every intermediate stays at the
    Hermite scale and no huge-times-tiny products ever form.
    """
    if n < 0:
        raise DomainError(f"degree must be non-negative, got {n}")
    if not nu > 2.0 * n + 1.0:
        raise DomainError(
            f"need nu > 2n+1 = {2 * n + 1} to stay inside the orthogonality "
            f"window and clear of recurrence poles, got nu={nu}"
        )
    if n == 0:
        return 1.0
    alpha = -nu
    root = math.sqrt(2.0 / nu)
    z = (2.0 / nu) * (1.0 + root * x)
    ym1 = 1.0
    y = -math.sqrt(2.0 * nu) * (1.0 + 0.5 * (2.0 + alpha) * z)
    for k in range(1, n):
        denom = 2.0 * (k + alpha + 1.0) * (2.0 * k + alpha)
        ak = (2.0 * k + alpha + 1.0) * (
            2.0 * alpha + (2.0 * k + alpha) * (2.0 * k + alpha + 2.0) * z
        ) / denom
        bk = 2.0 * k * (2.0 * k + alpha + 2.0) / denom
        ym1, y = y, (-math.sqrt(2.0 * nu) * ak) * y + (2.0 * nu * bk) * ym1
    return y


def energy_gap(params, n):
    """Exact closed-form gap E_n - E_n^well = hbar^2 n(n+1) / (2 m0 a^2)."""
    model.require_level(params, n)
    return params.hbar**2 * n * (n + 1.0) / (2.0 * params.m0 * params.a**2)


def l2_distance(f, g, x_min, x_max, tol=1e-10):
    """L2 distance between two callables by adaptive quadrature."""
    value = oracle.integrate(lambda x: (f(x) - g(x)) ** 2, x_min, x_max, tol)
    return math.sqrt(max(value, 0.0))


def wavefunction_distance(params, n, tol=1e-10):
    """Sign-minimized L2 distance between the well state n and the canonical
    Hermite-function state n.

    The overall sign of a bound state is conventional, so the distance is
    minimized over a global sign flip.  Integration runs from just inside the
    wall to a + 12/lambda0, where both states have decayed."""
    model.require_level(params, n)
    ref = canonical.CanonicalParams(m0=params.m0, omega=params.omega, hbar=params.hbar)
    lo = -params.a + 1e-3 * params.a
    hi = params.a + 12.0 / params.lambda0

    def well(x):
        return model.wavefunction(params, n, x)

    def can(x):
        return canonical.canonical_wavefunction(ref, n, x)

    plus = l2_distance(well, can, lo, hi, tol)
    minus = l2_distance(lambda x: -well(x), can, lo, hi, tol)
    return min(plus, minus)


def continuum_magnitude(params_family, q_fixed, x, scale=1.0 + 0.0j):
    """|psi_E(x)| across a family of parameter sets at fixed continuum q.

    Members must come in order of strictly increasing a; each energy is the
    one implied by q for that member, which keeps mu = 1 + iq constant across
    the sweep.  The magnitudes are expected to decrease toward zero."""
    values = []
    a_values = []
    for params in params_family:
        e = model.energy_for_wavenumber(params, q_fixed)
        state = model.continuum_state(params, e, scale=scale)
        values.append(abs(model.continuum_wavefunction(state, params, x)))
        a_values.append(params.a)
    return LimitSweep(
        parameter_values=a_values,
        metric_values=values,
        metric_name=f"|psi_E({x})| at q={q_fixed}",
    )
