"""The semi-infinite step-harmonic well with position-dependent effective mass.

An infinitely high wall sits at x = -a; the potential rises harmonically away
from it and saturates smoothly to the finite plateau m0 w^2 a^2 / 2 because the
effective mass M(x) = a^2 m0 / (a+x)^2 decays with position.  Everything below
the plateau is a finite discrete ladder of bound states built from Bessel
polynomials; above it the states are continuum waves built from 1F1.

All prefactors are assembled in log space and exponentiated once: for a >= 3
the wall factor exp(-l0^2 a^3/(x+a)) and the power (x/a+1)^(-l0^2 a^2) both
leave the native float range long before the physics becomes uninteresting.
Bound states are evaluated on numpy arrays of positions (bound_state); the
module-level wavefunction functions wrap that for one position or an array.
"""

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import specfun
from .errors import BelowContinuum, DomainError, LevelOutOfRange
from .types import FunctionPair

# Distinguished return value of potential() at and behind the wall.  A named
# +inf rather than an exception so oracle grids can probe the wall region.
WALL = float("inf")

# Most bound levels max_level() admits.  Each level costs a table row and a
# recurrence step per evaluation, so without a cap a large a (10^16 levels at
# a = 1e8) would be unbounded work.
LEVEL_CAP = 10_000


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and the semiconfinement length a.

    All four must be finite.  Requires a > 1/(sqrt(2) lambda0), equivalently
    (lambda0 a)^2 > 1/2, which guarantees at least one bound state, and
    lambda0^2 = m0 omega / hbar and lambda0^2 a^3 must be positive finite
    floats (extreme but finite constants can overflow or underflow them).
    """

    m0: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        for name in ("m0", "omega", "hbar"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("m0", "omega", "hbar", "a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        lam0_sq = self.m0 * self.omega / self.hbar
        if not 0.0 < lam0_sq < math.inf:
            raise ValueError(
                f"lambda0^2 = m0*omega/hbar leaves the float range ({lam0_sq!r}) "
                f"for m0={self.m0}, omega={self.omega}, hbar={self.hbar}"
            )
        min_a = 1.0 / (math.sqrt(2.0) * math.sqrt(lam0_sq))
        if not self.a > min_a:
            raise ValueError(
                f"a must exceed 1/(sqrt(2)*lambda0) = {min_a:.6g}, got {self.a}"
            )
        if not math.isfinite(lam0_sq * (self.a * self.a) * self.a):
            raise ValueError(f"lambda0^2 a^3 overflows a float for a={self.a}")

    @property
    def lambda0(self):
        """Inverse length scale sqrt(m0 omega / hbar)."""
        return math.sqrt(self.m0 * self.omega / self.hbar)

    @property
    def b(self):
        """Dimensionless confinement strength lambda0 * a."""
        return self.lambda0 * self.a

    @property
    def b2(self):
        """lambda0^2 a^2; the single combination nearly everything depends on."""
        return self.m0 * self.omega / self.hbar * self.a**2

    @property
    def wall_scale(self):
        """lambda0^2 a^3, the length-scaled wall-layer coefficient."""
        return self.b2 * self.a


@dataclass(frozen=True)
class DiscreteState:
    """Bound level n with its energy and log-space normalization.

    Every level is normalizable (power-law decay with exponent
    n - lambda0^2 a^2 < -1/2).  E_n - V_inf = -(b^2-n)(b^2-n-1)/(2b^2) hbar w,
    so for integer b^2 = (lambda0 a)^2 the top level sits exactly at the
    plateau; for fractional b^2 it can even sit slightly above it while
    staying square-integrable.  mu = 2b^2 - 2n > 1 and gamma = -n.
    """

    n: int
    energy: float
    log_norm: float
    mu: float
    gamma: float


@dataclass(frozen=True)
class ContinuousState:
    """Scattering state at energy above the well depth.

    q > 0 is the a-independent wavenumber-like parameter with
    q^2 = 4 c0 - 4 (lambda0 a)^4 - 1; mu = 1 + iq and
    gamma = (1 - 2 lambda0^2 a^2 + iq)/2 are complex.  The overall amplitude
    is the caller's choice (no delta normalization is attached).
    """

    energy: float
    c0: float
    q: float
    gamma: complex
    mu: complex
    scale: complex = 1.0 + 0.0j


class WavefunctionForm(Enum):
    """Which closed form evaluates a bound state: both agree identically."""

    BESSEL = "bessel"
    LAGUERRE = "laguerre"


def _require_inside(params, x):
    """x as a float array; raises DomainError unless every position in it
    lies strictly inside the wall."""
    x = np.asarray(x, dtype=float)
    outside = ~(x > -params.a)
    if outside.any():
        raise DomainError(
            f"position {x[outside].flat[0]} is at or behind the wall x = {-params.a}"
        )
    return x


def effective_mass(params, x):
    """Position-dependent mass M(x) = a^2 m0 / (a+x)^2; equals m0 at x = 0."""
    _require_inside(params, x)
    return params.a**2 * params.m0 / (params.a + x) ** 2


def potential(params, x):
    """Step-harmonic profile M(x) w^2 x^2 / 2, or WALL for x <= -a.

    Vanishes at x = 0 and saturates to well_depth(params) as x -> +inf.
    """
    if not x > -params.a:
        return WALL
    return params.m0 * params.omega**2 * params.a**2 * x**2 / (2.0 * (params.a + x) ** 2)


def well_depth(params):
    """Plateau height V_inf = m0 w^2 a^2 / 2; energies above it are continuum."""
    return params.m0 * params.omega**2 * params.a**2 / 2.0


def max_level(params):
    """Largest bound quantum number N: the biggest integer below b^2 - 1/2.

    Raises DomainError when N exceeds LEVEL_CAP."""
    n = math.ceil(params.b2 - 0.5) - 1
    if n > LEVEL_CAP:
        raise DomainError(
            f"{n} bound levels exceed the cap of {LEVEL_CAP} (b^2 = {params.b2:.6g})"
        )
    return n


def require_level(params, n):
    """Raise LevelOutOfRange unless n is an integer in 0..max_level(params)."""
    try:
        operator.index(n)  # ints and numpy integers; floats are refused
    except TypeError:
        raise LevelOutOfRange(f"level n={n!r} is not an integer") from None
    if n < 0 or n > max_level(params):
        raise LevelOutOfRange(
            f"level n={n} outside 0..{max_level(params)} for a={params.a}"
        )


def normalization(params, n):
    """ln of the bound-state normalization constant, assembled in log space.

    The closed form is (2b^2)^(b^2) sqrt[(2b^2-2n-1) / (2 l0^2 a^3 n! G(2b^2-n))]
    with b^2 = lambda0^2 a^2; the gamma factor overflows native floats already
    for moderate a, so only logs are ever formed.  The constant is taken
    positive (the overall sign of a bound state is conventional).
    """
    require_level(params, n)
    b2 = params.b2
    return b2 * math.log(2.0 * b2) + 0.5 * (
        math.log(2.0 * b2 - 2.0 * n - 1.0)
        - math.log(2.0 * params.wall_scale)
        - specfun.log_gamma(n + 1.0)
        - specfun.log_gamma(2.0 * b2 - n)
    )


def energy(params, n):
    """Bound level n: E_n = hbar w (n + 1/2) - hbar^2 n(n+1) / (2 m0 a^2)."""
    require_level(params, n)
    e = params.hbar * params.omega * (n + 0.5) - params.hbar**2 * n * (n + 1.0) / (
        2.0 * params.m0 * params.a**2
    )
    return DiscreteState(
        n=n,
        energy=e,
        log_norm=normalization(params, n),
        mu=2.0 * params.b2 - 2.0 * n,
        gamma=-float(n),
    )


@dataclass(frozen=True)
class BoundState:
    """Bound level n of one parameter set, evaluated on arrays of positions.

    The level is checked and its energy and normalization computed once, when
    bound_state() builds it; psi and psi_with_derivatives then take a scalar
    (giving floats) or an array (giving arrays) of positions, all strictly
    inside the wall.
    """

    params: ModelParams
    level: DiscreteState

    def _log_prefactor(self, x):
        p = self.params
        return self.level.log_norm - p.b2 * np.log1p(x / p.a) - p.wall_scale / (x + p.a)

    def psi(self, x, form=WavefunctionForm.BESSEL):
        """Wavefunction psi_n at x.

        The Bessel form is
            C_n (x/a+1)^(-b^2) exp(-l0^2 a^3/(x+a)) y_n((x+a)/(l0^2 a^3); -2b^2);
        the Laguerre form carries the extra factor (1+x/a)^n together with
        L_n^(2b^2-2n-1)(2 l0^2 a^3/(x+a)).  Equating the two polynomial
        representations through their terminating-series forms fixes the
        relative constant to (-1)^n n! / (2b^2)^n, so both paths return
        identical values.
        """
        x = _require_inside(self.params, x)
        p, n = self.params, self.level.n
        b2, w = p.b2, p.wall_scale
        log_pref = self._log_prefactor(x)
        if form is WavefunctionForm.BESSEL:
            exponent, y, _, _ = specfun.bessel_poly_scaled(n, -2.0 * b2, (x + p.a) / w)
            return specfun.exp_scaled(log_pref, y, exponent)
        if form is WavefunctionForm.LAGUERRE:
            exponent, lag = specfun.laguerre_scaled(
                n, 2.0 * b2 - 2.0 * n - 1.0, 2.0 * w / (x + p.a)
            )
            log_pref = log_pref + (
                specfun.log_gamma(n + 1.0) - n * math.log(2.0 * b2) + n * np.log1p(x / p.a)
            )
            signed = lag if n % 2 == 0 else -lag
            return specfun.exp_scaled(log_pref, signed, exponent)
        raise ValueError(f"unknown wavefunction form {form!r}")

    def psi_with_derivatives(self, x):
        """(psi_n, psi_n', psi_n'') at x with analytic derivatives.

        Logarithmic differentiation of the prefactor plus the differentiated
        polynomial recurrence; exact up to round-off, no finite differences.
        """
        x = _require_inside(self.params, x)
        p = self.params
        b2, w = p.b2, p.wall_scale
        xa = x + p.a
        log_pref = self._log_prefactor(x)
        dl = -b2 / xa + w / xa**2          # d/dx of the log prefactor
        d2l = b2 / xa**2 - 2.0 * w / xa**3
        exponent, y, dy, d2y = specfun.bessel_poly_scaled(
            self.level.n, -2.0 * b2, xa / w, derivatives=True
        )
        dy = dy / w                         # chain rule, t = (x+a)/(l0^2 a^3)
        d2y = d2y / (w * w)
        return (
            specfun.exp_scaled(log_pref, y, exponent),
            specfun.exp_scaled(log_pref, dl * y + dy, exponent),
            specfun.exp_scaled(log_pref, (d2l + dl * dl) * y + 2.0 * dl * dy + d2y, exponent),
        )


def bound_state(params, n):
    """Bound level n of params, ready to evaluate (raises LevelOutOfRange)."""
    return BoundState(params, energy(params, n))


def wavefunction(params, n, x, form=WavefunctionForm.BESSEL):
    """Bound-state wavefunction psi_n at x (see BoundState.psi)."""
    return bound_state(params, n).psi(x, form)


def wavefunction_with_derivatives(params, n, x):
    """(psi_n, psi_n', psi_n'') with analytic derivatives (see
    BoundState.psi_with_derivatives)."""
    return bound_state(params, n).psi_with_derivatives(x)


def wavefunction_derivative(params, n, x):
    """Analytic d psi_n / dx; matches central finite differences of
    wavefunction() to ~1e-6 relative wherever psi is not vanishingly small."""
    return wavefunction_with_derivatives(params, n, x)[1]


def energy_for_wavenumber(params, q):
    """Energy whose continuum parameter equals q (inverts q^2 = 4c0 - 4b^4 - 1).

    q is independent of a, which makes it the natural handle for sweeps in
    the semiconfinement parameter at fixed mu = 1 + iq.
    """
    if not q > 0.0:
        raise DomainError(f"continuum parameter q must be positive, got {q}")
    c0 = 0.25 * (q * q + 1.0) + params.b2**2
    return c0 * params.hbar**2 / (2.0 * params.m0 * params.a**2)


def continuum_state(params, energy_value, scale=1.0 + 0.0j):
    """Scattering state at energy above the plateau.

    Raises BelowContinuum for E <= V_inf, and also for the thin band just
    above the plateau where 4 c0 - 4 (lambda0 a)^4 - 1 <= 0 (there q would be
    imaginary; oscillatory continuum waves need E > V_inf + hbar^2/(8 m0 a^2)).
    """
    v_inf = well_depth(params)
    if energy_value <= v_inf:
        raise BelowContinuum(
            f"E={energy_value} does not exceed the well depth {v_inf}"
        )
    c0 = 2.0 * params.m0 * params.a**2 * energy_value / params.hbar**2
    q_sq = 4.0 * c0 - 4.0 * params.b2**2 - 1.0
    if q_sq <= 0.0:
        raise BelowContinuum(
            f"E={energy_value} sits in the band above the plateau where the "
            f"continuum parameter q^2 = {q_sq} is not positive"
        )
    q = math.sqrt(q_sq)
    return ContinuousState(
        energy=energy_value,
        c0=c0,
        q=q,
        gamma=complex(0.5 * (1.0 - 2.0 * params.b2), 0.5 * q),
        mu=complex(1.0, q),
        scale=complex(scale),
    )


def _continuum_parts(state, params, x):
    """Complex log-prefactor W and hypergeometric argument z at x."""
    _require_inside(params, x)
    xa = x + params.a
    z = 2.0 * params.wall_scale / xa
    # principal branch; the base x/a + 1 is positive so it is unambiguous
    w_log = (-state.gamma - params.b2) * math.log1p(x / params.a) - 0.5 * z
    return w_log, z


def _exp_scaled_complex(w_log, factor):
    if factor == 0:
        return 0.0 + 0.0j
    m = w_log.real + math.log(abs(factor))
    if m < specfun._LOG_FLOOR:
        return 0.0 + 0.0j
    return cmath.exp(w_log + cmath.log(factor))


def continuum_wavefunction(state, params, x):
    """psi_E(x) = scale (x/a+1)^(-gamma-b^2) e^(-l0^2 a^3/(x+a)) 1F1(gamma; mu; z)
    with z = 2 l0^2 a^3 / (x+a).

    Close to the wall z grows without bound and the Kummer series leaves the
    native float range (1F1 grows like e^z, which beats the e^(-z/2)
    prefactor); the NonConvergence raised by the series is propagated.
    """
    w_log, z = _continuum_parts(state, params, x)
    f = specfun.kummer_1f1(state.gamma, state.mu, z)
    return state.scale * _exp_scaled_complex(w_log, f)


def continuum_wavefunction_with_derivatives(state, params, x):
    """(psi_E, psi_E', psi_E'') with analytic derivatives.

    Uses d/dz 1F1(g; m; z) = (g/m) 1F1(g+1; m+1; z) twice over, plus the
    logarithmic derivatives of the complex prefactor.
    """
    w_log, z = _continuum_parts(state, params, x)
    xa = x + params.a
    g, mu = state.gamma, state.mu
    f0 = specfun.kummer_1f1(g, mu, z)
    f1 = g / mu * specfun.kummer_1f1(g + 1, mu + 1, z)
    f2 = g * (g + 1) / (mu * (mu + 1)) * specfun.kummer_1f1(g + 2, mu + 2, z)
    dz = -z / xa
    d2z = 2.0 * z / xa**2
    dw = (-g - params.b2) / xa + params.wall_scale / xa**2
    d2w = (g + params.b2) / xa**2 - 2.0 * params.wall_scale / xa**3
    s = state.scale
    psi = s * _exp_scaled_complex(w_log, f0)
    dpsi = s * _exp_scaled_complex(w_log, dw * f0 + f1 * dz)
    d2psi = s * _exp_scaled_complex(
        w_log, (d2w + dw * dw) * f0 + 2.0 * dw * f1 * dz + f2 * dz * dz + f1 * d2z
    )
    return psi, dpsi, d2psi


def alpha0(params, x):
    """Logarithmic derivative of the ground state,
    alpha0 = psi_0'/psi_0 = -l0^2 a^2/(x+a) + l0^2 a^3/(x+a)^2."""
    _require_inside(params, x)
    xa = x + params.a
    return -params.b2 / xa + params.wall_scale / xa**2


def kinetic_weight(params, x):
    """Flux coefficient hbar^2 / (2 M(x)) of the kinetic operator.

    (This is the position-dependent function the factorization operators
    scale by; it is unrelated to the dimensionless separation constant that
    shares its letter in some treatments.)
    """
    _require_inside(params, x)
    return params.hbar**2 * (params.a + x) ** 2 / (2.0 * params.a**2 * params.m0)


def apply_lowering(params, f, x):
    """Factorization lowering operator sqrt(rho/hbar w) (d/dx - alpha0) on f.

    f supplies value and derivative at x (a FunctionPair or anything with
    .value/.derivative callables), a scalar or an array of positions.
    Annihilates the ground state identically.
    """
    coeff = np.sqrt(kinetic_weight(params, x) / (params.hbar * params.omega))
    return specfun.shaped_like(x, coeff * (f.derivative(x) - alpha0(params, x) * f.value(x)))


def bound_state_pair(params, n):
    """FunctionPair (psi_n, psi_n') with analytic derivatives, for operator tests."""
    state = bound_state(params, n)
    return FunctionPair(
        value=state.psi,
        derivative=lambda x: state.psi_with_derivatives(x)[1],
    )
