"""Constant-mass harmonic oscillator: the a -> infinity reference point.

Textbook closed forms for the equidistant spectrum, Hermite-function states
and the first-order ladder operators, used as the limit target and for
factorization cross-checks.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import specfun
from .errors import DomainError
from .types import FunctionPair


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


class LadderDirection(Enum):
    RAISE = "raise"
    LOWER = "lower"


def canonical_energy(params, n):
    """Equidistant spectrum E_n = hbar w (n + 1/2)."""
    if n < 0:
        raise DomainError(f"level must be non-negative, got {n}")
    return params.hbar * params.omega * (n + 0.5)


def _log_norm(params, n):
    # 1/sqrt(2^n n!) (m0 w / pi hbar)^(1/4), in log space for large n
    lam0 = params.lambda0
    return (
        -0.5 * (n * math.log(2.0) + specfun.log_gamma(n + 1.0))
        + 0.25 * math.log(lam0**2 / math.pi)
    )


def canonical_wavefunction(params, n, x):
    """Normalized psi_n(x) = (2^n n!)^(-1/2) (m0 w/pi hbar)^(1/4)
    exp(-lambda0^2 x^2/2) H_n(lambda0 x), at a scalar x (giving a float) or
    elementwise on an array."""
    if n < 0:
        raise DomainError(f"level must be non-negative, got {n}")
    x = np.asarray(x, dtype=float)
    lam0 = params.lambda0
    exponent, _, h = specfun.hermite_scaled(n, lam0 * x)
    return specfun.exp_scaled(_log_norm(params, n) - 0.5 * (lam0 * x) ** 2, h, exponent)


def canonical_wavefunction_derivative(params, n, x):
    """Analytic d psi_n / dx, using H_n' = 2 n H_{n-1}."""
    x = np.asarray(x, dtype=float)
    lam0 = params.lambda0
    exponent, hm1, h = specfun.hermite_scaled(n, lam0 * x)
    g = lam0 * (2.0 * n * hm1) - lam0**2 * x * h
    return specfun.exp_scaled(_log_norm(params, n) - 0.5 * (lam0 * x) ** 2, g, exponent)


def canonical_state_pair(params, n):
    """FunctionPair (psi_n, psi_n') with analytic derivatives."""
    return FunctionPair(
        value=lambda x: canonical_wavefunction(params, n, x),
        derivative=lambda x: canonical_wavefunction_derivative(params, n, x),
    )


def apply_ladder(params, direction, f, x):
    """Ladder operators (lambda0^2 x -/+ d/dx) / (sqrt(2) lambda0) applied to f.

    RAISE uses the minus sign on the derivative, LOWER the plus sign; LOWER
    annihilates the ground state.  f supplies value and derivative at x.
    """
    lam0 = params.lambda0
    v = f.value(x)
    d = f.derivative(x)
    if direction is LadderDirection.RAISE:
        return (lam0**2 * x * v - d) / (math.sqrt(2.0) * lam0)
    if direction is LadderDirection.LOWER:
        return (lam0**2 * x * v + d) / (math.sqrt(2.0) * lam0)
    raise ValueError(f"unknown ladder direction {direction!r}")
