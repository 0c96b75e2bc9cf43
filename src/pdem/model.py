"""The semi-infinite step-harmonic well with position-dependent effective mass.

An infinitely high wall sits at x = -a; the potential rises harmonically away
from it and saturates smoothly to the finite plateau m0 w^2 a^2 / 2 because the
effective mass M(x) = a^2 m0 / (a+x)^2 decays with position.  Everything below
the plateau is a finite discrete ladder of bound states built from Bessel
polynomials; above it the states are continuum waves built from 1F1.

All prefactors are assembled in log space and exponentiated once: for a >= 3
the wall factor exp(-l0^2 a^3/(x+a)) and the power (x/a+1)^(-l0^2 a^2) both
leave the native float range long before the physics becomes uninteresting.
Bound states are evaluated on numpy arrays of positions, any set of levels at
once (bound_states): the Bessel form from one recurrence for them all, the
Laguerre form from one recurrence per level.  The module-level wavefunction
functions are its one-level case, for one position or an array, as is the
profile.  Continuum states fold the exponent of the Kummer mantissas into W.
"""

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import specfun
from .errors import BelowContinuum, DomainError, LevelOutOfRange, NonConvergence

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
    lambda0^2 = m0 omega / hbar, lambda0^2 a^3 and the well depth
    m0 omega^2 a^2 / 2 must be finite floats, and lambda0^2 and the depth
    normal ones (extreme but finite constants can overflow them, or underflow
    them to subnormals whose few digits every energy would inherit).
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
        if not sys.float_info.min <= lam0_sq < math.inf:
            raise ValueError(
                f"lambda0^2 = m0*omega/hbar leaves the normal float range ({lam0_sq!r}) "
                f"for m0={self.m0}, omega={self.omega}, hbar={self.hbar}"
            )
        min_a = 1.0 / (math.sqrt(2.0) * math.sqrt(lam0_sq))
        if not self.a > min_a:
            raise ValueError(
                f"a must exceed 1/(sqrt(2)*lambda0) = {min_a:.6g}, got {self.a}"
            )
        if not math.isfinite(lam0_sq * (self.a * self.a) * self.a):
            raise ValueError(f"lambda0^2 a^3 overflows a float for a={self.a}")
        depth = well_depth(self)
        if not sys.float_info.min <= depth < math.inf:
            raise ValueError(
                f"the well depth m0*omega^2*a^2/2 leaves the normal float range ({depth!r}) "
                f"for m0={self.m0}, omega={self.omega}, a={self.a}"
            )

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
    staying square-integrable.
    """

    n: int
    energy: float
    log_norm: float


@dataclass(frozen=True)
class ContinuousState:
    """Scattering state at energy above the well depth.

    q > 0 is the a-independent wavenumber-like parameter with
    q^2 = 4 c0 - 4 (lambda0 a)^4 - 1; mu = 1 + iq and
    gamma = (1 - 2 lambda0^2 a^2 + iq)/2 are complex.  The amplitude is
    that of the closed form itself (no delta normalization is attached).
    """

    energy: float
    c0: float
    q: float
    gamma: complex
    mu: complex


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
    """Position-dependent mass M(x) = m0 (a/(a+x))^2 at a scalar (giving a
    float) or an array of positions strictly inside the wall; equals m0 at
    x = 0 and tends to 0 as x -> +inf."""
    s = params.a / (params.a + _require_inside(params, x))
    return specfun.shaped_like(x, params.m0 * s * s)


def potential(params, x):
    """Step-harmonic profile M(x) w^2 x^2 / 2 = (V_inf r) r with r = x/(a+x),
    or WALL for x <= -a, at a scalar (giving a float) or an array of positions.

    Vanishes at x = 0 and tends to V_inf = well_depth(params), r = 1, as
    x -> +inf.  r stays in the float range where the squares of M x^2 leave it.
    """
    x = np.asarray(x, dtype=float)
    inside = x > -params.a
    r = np.divide(x, params.a + x, out=np.ones_like(x), where=inside & (x < math.inf))
    return specfun.shaped_like(x, np.where(inside, well_depth(params) * r * r, WALL))


def well_depth(params):
    """Plateau height V_inf = m0 w^2 a^2 / 2; energies above it are continuum.

    Formed as (m0/2) (w a) (w a): the middle product is the geometric mean of
    m0/2 and V_inf, so it leaves the float range only where V_inf does.
    """
    omega_a = params.omega * params.a
    return 0.5 * params.m0 * omega_a * omega_a


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
    return DiscreteState(n=n, energy=e, log_norm=normalization(params, n))


def _log_prefactor(params, log_norm, x):
    """ln of C_n (x/a+1)^(-b^2) exp(-l0^2 a^3/(x+a)), for ln C_n = log_norm."""
    return log_norm - params.b2 * np.log1p(x / params.a) - params.wall_scale / (x + params.a)


@dataclass(frozen=True)
class BoundStates:
    """Bound levels of one parameter set, evaluated together on arrays of
    positions.

    Every level is the Bessel polynomial y_n(t; -2b^2) at the same
    t = (x+a)/(l0^2 a^3), so one recurrence up to the highest level gives
    them all.  psi and psi_with_derivatives take a scalar or an array of
    positions, all strictly inside the wall, and return arrays of shape
    (len(levels), *x.shape), row i for levels[i]; each row is bit for bit
    what bound_states(params, (levels[i],)) gives.
    """

    params: ModelParams
    levels: tuple  # a DiscreteState per requested level, in request order

    def _parts(self, x, derivatives):
        """(x + a, log prefactor rows, Bessel rows) at the positions x."""
        x = _require_inside(self.params, x)
        p = self.params
        log_norm = np.reshape([level.log_norm for level in self.levels], (-1,) + (1,) * x.ndim)
        xa = x + p.a
        rows = specfun.bessel_poly_rows(
            [level.n for level in self.levels], -2.0 * p.b2, xa / p.wall_scale, derivatives
        )
        return xa, _log_prefactor(p, log_norm, x), rows

    def psi(self, x, form=WavefunctionForm.BESSEL):
        """psi_n at x for every level.

        The Bessel form is
            C_n (x/a+1)^(-b^2) exp(-l0^2 a^3/(x+a)) y_n((x+a)/(l0^2 a^3); -2b^2);
        the Laguerre form carries the extra factor (1+x/a)^n together with
        L_n^(2b^2-2n-1)(2 l0^2 a^3/(x+a)), whose parameter depends on n, so it
        runs one Laguerre recurrence per level.  Equating the two polynomial
        representations through their terminating-series forms fixes the
        relative constant to (-1)^n n! / (2b^2)^n, so both forms return
        identical values.
        """
        if form is WavefunctionForm.BESSEL:
            _, log_pref, (exponent, y, _, _) = self._parts(x, False)
            return specfun.exp_scaled(log_pref, y, exponent)
        if form is not WavefunctionForm.LAGUERRE:
            raise ValueError(f"unknown wavefunction form {form!r}")
        x = _require_inside(self.params, x)
        p = self.params
        z = 2.0 * p.wall_scale / (x + p.a)
        psi = np.empty((len(self.levels), *x.shape))
        for i, level in enumerate(self.levels):
            n = level.n
            exponent, lag = specfun.laguerre_scaled(n, 2.0 * p.b2 - 2.0 * n - 1.0, z)
            log_pref = _log_prefactor(p, level.log_norm, x) + (
                specfun.log_gamma(n + 1.0) - n * math.log(2.0 * p.b2) + n * np.log1p(x / p.a)
            )
            psi[i] = specfun.exp_scaled(log_pref, lag if n % 2 == 0 else -lag, exponent)
        return psi

    def psi_with_derivatives(self, x):
        """(psi_n, psi_n', psi_n'') at x for every level, with analytic
        derivatives.

        Logarithmic differentiation of the prefactor plus the differentiated
        polynomial recurrence; exact up to round-off, no finite differences.
        """
        xa, log_pref, (exponent, y, dy, d2y) = self._parts(x, True)
        b2, w = self.params.b2, self.params.wall_scale
        dl = -b2 / xa + w / xa**2          # d/dx of the log prefactor
        d2l = b2 / xa**2 - 2.0 * w / xa**3
        dy = dy / w                         # chain rule, t = (x+a)/(l0^2 a^3)
        d2y = d2y / (w * w)
        return (
            specfun.exp_scaled(log_pref, y, exponent),
            specfun.exp_scaled(log_pref, dl * y + dy, exponent),
            specfun.exp_scaled(log_pref, (d2l + dl * dl) * y + 2.0 * dl * dy + d2y, exponent),
        )


def bound_states(params, levels):
    """The bound levels of params, ready to evaluate together (raises
    LevelOutOfRange); levels may come in any order and may repeat."""
    return BoundStates(params, tuple(energy(params, n) for n in levels))


def wavefunction(params, n, x, form=WavefunctionForm.BESSEL):
    """Bound-state wavefunction psi_n at x, a scalar (giving a float) or an
    array of positions (see BoundStates.psi)."""
    return specfun.shaped_like(x, bound_states(params, (n,)).psi(x, form)[0])


def wavefunction_with_derivatives(params, n, x):
    """(psi_n, psi_n', psi_n'') with analytic derivatives, at a scalar or an
    array of positions (see BoundStates.psi_with_derivatives)."""
    rows = bound_states(params, (n,)).psi_with_derivatives(x)
    return tuple(specfun.shaped_like(x, v[0]) for v in rows)


def energy_for_wavenumber(params, q):
    """Energy whose continuum parameter equals q (inverts q^2 = 4c0 - 4b^4 - 1).

    q is independent of a, which makes it the natural handle for sweeps in
    the semiconfinement parameter at fixed mu = 1 + iq.
    """
    if not q > 0.0:
        raise DomainError(f"continuum parameter q must be positive, got {q}")
    # E = V_inf c0 / (lambda0 a)^4, from quantities ModelParams keeps in range
    b4 = params.b2 * params.b2
    c0 = 0.25 * (q * q + 1.0) + b4
    energy_value = well_depth(params) * (c0 / b4)
    if not 0.0 < energy_value < math.inf:  # an infinite c0 makes it inf or NaN
        raise DomainError(
            f"the energy for q={q} leaves the float range at (lambda0 a)^2={params.b2}"
        )
    return energy_value


def continuum_state(params, energy_value):
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
    # c0 = 2 m0 a^2 E / hbar^2 = (lambda0 a)^4 E / V_inf, where E / V_inf > 1
    b4 = params.b2 * params.b2
    c0 = b4 * (energy_value / v_inf)
    q_sq = 4.0 * c0 - 4.0 * b4 - 1.0
    if not math.isfinite(q_sq):
        raise DomainError(
            f"the continuum parameter for E={energy_value} leaves the float range "
            f"at (lambda0 a)^2={params.b2}"
        )
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
    )


def _continuum_parts(state, params, x):
    """Complex log-prefactor W and hypergeometric argument z at a scalar x."""
    if not x > -params.a:
        raise DomainError(f"position {x} is at or behind the wall x = {-params.a}")
    xa = x + params.a
    z = 2.0 * (params.wall_scale / xa)
    # principal branch; the base x/a + 1 is positive so it is unambiguous
    w_log = (-state.gamma - params.b2) * math.log1p(x / params.a) - 0.5 * z
    return w_log, z


def continuum_wavefunction(state, params, x):
    """psi_E(x) = (x/a+1)^(-gamma-b^2) e^(-l0^2 a^3/(x+a)) 1F1(gamma; mu; z)
    with z = 2 l0^2 a^3 / (x+a).

    Close to the wall z grows without bound and the Kummer series leaves the
    native float range (1F1 grows like e^z, which beats the e^(-z/2)
    prefactor); the NonConvergence raised by the series is propagated.
    """
    w_log, z = _continuum_parts(state, params, x)
    exponent, f = specfun.kummer_1f1_scaled(state.gamma, state.mu, z)
    return specfun.exp_scaled_complex(w_log, f, exponent)


def continuum_wavefunction_with_derivatives(state, params, x):
    """(psi_E, psi_E', psi_E'') with analytic derivatives.

    1F1 and its first two z-derivatives come from one pass over the Kummer
    series, as mantissas; the chain rule adds the logarithmic derivatives of
    the complex prefactor, and NonConvergence refuses a combination or a
    value that leaves the float range (at huge energies, where
    dw ~ q/(x+a), and within tiny x + a, where psi'' ~ psi/(x+a)^2).
    """
    w_log, z = _continuum_parts(state, params, x)
    xa = x + params.a
    g = state.gamma
    exponent, (f0, f1, f2) = specfun.kummer_1f1_scaled(g, state.mu, z, derivatives=True)
    # one power of x + a at a time: (x + a)^3 underflows for a below about 1e-108
    w = params.wall_scale / xa / xa
    dz = -z / xa
    d2z = 2.0 * (z / xa) / xa
    dw = (-g - params.b2) / xa + w
    d2w = (g + params.b2) / xa / xa - 2.0 * w / xa
    parts = (
        f0,
        dw * f0 + f1 * dz,
        (d2w + dw * dw) * f0 + 2.0 * dw * f1 * dz + f2 * dz * dz + f1 * d2z,
    )
    try:
        if all(map(cmath.isfinite, parts)):
            return tuple(specfun.exp_scaled_complex(w_log, f, exponent) for f in parts)
    except OverflowError:  # cmath.exp of a value past the float ceiling
        pass
    raise NonConvergence(f"continuum derivatives at x={x} leave the float range")


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


def apply_lowering(params, x, psi, dpsi):
    """Factorization lowering operator sqrt(rho/hbar w) (d/dx - alpha0) on a
    function with values psi and derivatives dpsi at x, a scalar (giving a
    float) or an array of positions.  Annihilates the ground state
    identically.
    """
    coeff = np.sqrt(kinetic_weight(params, x) / (params.hbar * params.omega))
    return specfun.shaped_like(x, coeff * (dpsi - alpha0(params, x) * psi))
