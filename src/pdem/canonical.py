"""Constant-mass harmonic oscillator: the a -> infinity reference point.

Textbook closed forms for the equidistant spectrum, Hermite-function states
and the first-order ladder operators, used as the limit target and for
factorization cross-checks.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError


@dataclass(frozen=True)
class CanonicalParams:
    """Mass, frequency and action constants of the reference oscillator; all
    positive and finite."""

    m0: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("m0", "omega", "hbar"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def lambda0(self):
        return math.sqrt(self.m0 * self.omega / self.hbar)


def _require_level(n):
    """Raise LevelOutOfRange unless n is an integer (specfun.require_integer),
    and DomainError unless it is non-negative and n + 1/2 is a float."""
    specfun.require_integer(n)
    if n < 0:
        raise DomainError(f"level must be non-negative, got {n}")
    if n > sys.float_info.max:
        raise DomainError(f"the energy of level {n} leaves the float range")


def canonical_energy(params, n):
    """Equidistant spectrum E_n = hbar w (n + 1/2) of a level n (a float) or
    of each of an array of levels (an array), with the unit hbar w applied
    last (specfun.level_in_units).  Raises as _require_level does, and
    DomainError where E_n leaves the float range."""
    return specfun.level_in_units(
        n, _require_level, (params.hbar, params.omega), ("the energy",), lambda k: (k + 0.5,)
    )[0]


def _log_norm(params, n):
    # 1/sqrt(2^n n!) (m0 w / pi hbar)^(1/4), in log space for large n
    lam0 = params.lambda0
    return (
        -0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0))
        + 0.25 * math.log(lam0**2 / math.pi)
    )


# Where (lambda0 x)^2 passes the float ceiling, the log prefactor is -inf and
# the state 0.
@np.errstate(over="ignore")
def canonical_wavefunction(params, n, x):
    """Normalized psi_n(x) = (2^n n!)^(-1/2) (m0 w/pi hbar)^(1/4)
    exp(-lambda0^2 x^2/2) H_n(lambda0 x), at a scalar x (giving a float) or
    elementwise on an array.  Raises as _require_level does."""
    _require_level(n)
    x = np.asarray(x, dtype=float)
    lam0 = params.lambda0
    exponent, _, h = specfun.hermite_scaled(n, lam0 * x)
    return specfun.exp_scaled(_log_norm(params, n) - 0.5 * (lam0 * x) ** 2, h, exponent)


@np.errstate(over="ignore")  # as canonical_wavefunction
def canonical_wavefunction_derivative(params, n, x):
    """Analytic d psi_n / dx, using H_n' = 2 n H_{n-1}.  Where the log
    prefactor is -inf, lambda0^2 x may overflow too, and the factor is taken
    as 0 so that the derivative is 0 like the state.  Raises as
    _require_level does."""
    _require_level(n)
    x = np.asarray(x, dtype=float)
    lam0 = params.lambda0
    exponent, hm1, h = specfun.hermite_scaled(n, lam0 * x)
    log_pref = _log_norm(params, n) - 0.5 * (lam0 * x) ** 2
    g = np.where(log_pref == -math.inf, 0.0, lam0 * (2.0 * n * hm1) - lam0**2 * x * h)
    return specfun.exp_scaled(log_pref, g, exponent)


def apply_raising(params, x, psi, dpsi):
    """Raising operator (lambda0^2 x - d/dx) / (sqrt(2) lambda0) on a function
    with values psi and derivatives dpsi at x (scalars or arrays)."""
    lam0 = params.lambda0
    return specfun.shaped_like(x, (lam0**2 * x * psi - dpsi) / (math.sqrt(2.0) * lam0))


def apply_lowering(params, x, psi, dpsi):
    """Lowering operator (lambda0^2 x + d/dx) / (sqrt(2) lambda0) on a function
    with values psi and derivatives dpsi at x; annihilates the ground state."""
    lam0 = params.lambda0
    return specfun.shaped_like(x, (lam0**2 * x * psi + dpsi) / (math.sqrt(2.0) * lam0))
