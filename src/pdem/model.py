"""The semi-infinite step-harmonic well with position-dependent effective mass.

An infinitely high wall sits at x = -a; the potential rises harmonically away
from it and saturates smoothly to the plateau V_inf = m0 w^2 a^2 / 2 because
the effective mass M(x) = a^2 m0 / (a+x)^2 decays with position.  Below the
plateau lies a finite ladder of bound states built from Bessel polynomials;
above it the continuum waves built from 1F1.

The closed forms depend on the constants only through b^2 = (lambda0 a)^2,
s = 1 + x/a, V_inf and the amplitude a^(-1/2):
    E_n = hbar w [(n + 1/2) - n(n+1) / (2 b^2)],  hbar w = 2 V_inf / b^2,
    V = V_inf ((s-1)/s)^2,  M = m0 / s^2,  z = 2 b^2 / s,  psi_n = phi_n / sqrt(a s).
Each quantity is computed in (b^2, s) and its units are applied last (a unit
that can leave the float range, hbar w or V_inf, by specfun.in_units), so
that nothing leaves the float range where the result does not, and a result
that does is refused with DomainError.

Bound states are written once, as the Morse states phi_n of b^2 alone
(morse_phi), which psi_n and checks.bound_overlap evaluate.  Prefactors are
assembled in log space and exponentiated once (for a >= 3 the wall factor
exp(-b^2/s) and s^(-b^2) leave the float range early).  Bound states take an
array of positions and any set of levels (bound_states): the Bessel form
from one recurrence for them all, the Laguerre form from one per level.
Continuum states take one position or an array: one pass over the Kummer
series serves them all, and the exponent of its mantissas folds into the
prefactor position by position, in Python arithmetic, so each element is
bit for bit its scalar value.
"""

import cmath
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import specfun
from .errors import BelowContinuum, DomainError, LevelOutOfRange, NonConvergence
from .specfun import in_units

# Distinguished return value of potential() at and behind the wall.  A named
# +inf, not an exception, for callers of the public API: pdem asks only inside.
WALL = float("inf")

# Highest bound level evaluated, and one less than the most levels a loop over
# all of them (bound_levels) takes.  Each level costs a table row and a
# recurrence step per evaluation, so without a cap a large a (10^16 levels at
# a = 1e8) would be unbounded work.
LEVEL_CAP = 10_000

# morse_constants sums terms of size b^2 ln(2b^2) that cancel, so psi carries
# a relative error of about b^2 ln(2b^2) eps, which it keeps within
# PSI_LOG_TOL: a < 199.75 at unit constants, where <0|0> - 1 is -1.1e-11 at
# a = 120 and would be -3.1e-10 at a = 300.
PSI_LOG_TOL = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and the semiconfinement length a.

    All four must be finite and positive, with b^2 = (lambda0 a)^2 > 1/2,
    which guarantees at least one bound state.  The constants, lambda0^2 =
    m0 omega / hbar, the well depth V_inf = m0 omega^2 a^2 / 2 and the
    products that form them must be normal floats (extreme but finite
    constants can overflow them, or underflow them to subnormals whose few
    digits every energy would inherit), and lambda0^2 a^3 finite.
    """

    m0: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        for name in ("m0", "omega", "hbar", "a"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        lam0_sq = self.m0 * self.omega / self.hbar
        omega_a = self.omega * self.a
        for name, value in (  # the products that form b^2 and V_inf
            ("m0", self.m0), ("omega", self.omega), ("hbar", self.hbar),
            ("m0*omega", self.m0 * self.omega), ("lambda0^2 = m0*omega/hbar", lam0_sq),
            ("a^2", self.a * self.a), ("omega*a", omega_a), ("m0*omega*a/2", 0.5 * self.m0 * omega_a),
            ("the well depth m0*omega^2*a^2/2", well_depth(self)),
        ):
            if not sys.float_info.min <= value < math.inf:
                raise ValueError(f"{name} leaves the normal float range ({value!r}) for {self}")
        if not math.isfinite(self.wall_scale):
            raise ValueError(f"lambda0^2 a^3 overflows a float for a={self.a}")
        if not self.b2 > 0.5:
            min_a = 1.0 / (math.sqrt(2.0) * math.sqrt(lam0_sq))
            raise ValueError(f"a must exceed 1/(sqrt(2)*lambda0) = {min_a:.6g}, got {self.a}")

    @cached_property
    def lambda0(self):
        """Inverse length scale sqrt(m0 omega / hbar)."""
        return math.sqrt(self.m0 * self.omega / self.hbar)

    @cached_property
    def b2(self):
        """lambda0^2 a^2; the single combination nearly everything depends on."""
        return self.m0 * self.omega / self.hbar * self.a**2

    @cached_property
    def wall_scale(self):
        """lambda0^2 a^3, the length-scaled wall-layer coefficient."""
        return self.b2 * self.a


@dataclass(frozen=True)
class DiscreteState:
    """Bound level n with its energy.

    Every level is normalizable (power-law decay with exponent
    n - lambda0^2 a^2 < -1/2).  E_n - V_inf = -(b^2-n)(b^2-n-1)/(2b^2) hbar w,
    so for integer b^2 = (lambda0 a)^2 the top level sits exactly at the
    plateau; for fractional b^2 it can even sit slightly above it while
    staying square-integrable.
    """

    n: int
    energy: float


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


def _inside(params, x):
    """(x, s): x as a float array of positions, each strictly inside the wall
    (else DomainError, naming the first that is not), and s = (x + a)/a =
    1 + x/a there."""
    x = np.asarray(x, dtype=float)
    outside = ~(x > -params.a)
    if outside.any():
        bad = x[outside].flat[0]
        where = "is not a number" if np.isnan(bad) else f"is at or behind the wall x = {-params.a}"
        raise DomainError(f"position {bad} {where}")
    return x, (x + params.a) / params.a


@np.errstate(over="ignore")  # a value past the float ceiling is refused
def effective_mass(params, x):
    """Position-dependent mass M(x) = m0 (a/(a+x))^2 at a scalar (giving a
    float) or an array of positions strictly inside the wall; equals m0 at
    x = 0 and tends to 0 as x -> +inf.  DomainError where M overflows."""
    q = params.a / (params.a + _inside(params, x)[0])
    return specfun.shaped_like(x, _finite(params.m0 * q * q, "the effective mass"))


@np.errstate(over="ignore")  # a value past the float ceiling is refused
def potential(params, x):
    """Step-harmonic profile M(x) w^2 x^2 / 2 = (V_inf r) r with r = x/(a+x),
    or WALL for x <= -a, at a scalar (giving a float) or an array of positions.

    Vanishes at x = 0 and tends to V_inf = well_depth(params), r = 1, as
    x -> +inf.  r stays in the float range where the squares of M x^2 leave
    it, and V_inf r where V does; DomainError where V overflows or a
    position is NaN.
    """
    x = np.asarray(x, dtype=float)
    inside = x > -params.a
    r = np.divide(x, params.a + x, out=np.ones_like(x), where=inside & (x < math.inf))
    v = _finite(well_depth(params) * r * r, "the potential")
    if inside.all():
        return specfun.shaped_like(x, v)
    if np.isnan(x).any():  # neither inside nor at or behind the wall
        raise DomainError("a position is not a number")
    return specfun.shaped_like(x, np.where(inside, v, WALL))


def well_depth(params):
    """Plateau height V_inf = m0 w^2 a^2 / 2; energies above it are continuum.

    Formed as (m0/2) (w a) (w a): the middle product is the geometric mean of
    m0/2 and V_inf, so it leaves the float range only where V_inf does.
    """
    omega_a = params.omega * params.a
    return 0.5 * params.m0 * omega_a * omega_a


def max_level(params):
    """Largest bound quantum number N: the biggest integer below b^2 - 1/2."""
    return math.ceil(params.b2 - 0.5) - 1


def bound_levels(params):
    """range(max_level(params) + 1), every bound level; raises DomainError
    where that is more than LEVEL_CAP + 1 levels, before any is evaluated."""
    n = max_level(params)
    if n > LEVEL_CAP:
        raise DomainError(f"{n + 1} bound levels exceed the cap of {LEVEL_CAP + 1} (b^2 = {params.b2:.6g})")
    return range(n + 1)


def require_level(params, n):
    """Raise LevelOutOfRange unless n is an integer (specfun.require_integer)
    in 0..max_level(params), and DomainError for a level above LEVEL_CAP."""
    specfun.require_integer(n)
    if n < 0 or n > max_level(params):
        raise LevelOutOfRange(
            f"level n={n} outside 0..{max_level(params)} for a={params.a}"
        )
    if n > LEVEL_CAP:
        raise DomainError(f"level {n} exceeds the cap of {LEVEL_CAP}")


def ladder_brackets(params, n):
    """(E_n, hbar w (n + 1/2), E_n's gap to it) in units of hbar w, for a
    level or an array of levels n: the oscillator's n + 1/2 less the gap
    n(n+1)/(2 b^2), b^2 = (lambda0 a)^2, that the confinement takes off."""
    ladder = n + 0.5
    gap = n * (n + 1.0) / (2.0 * params.b2)
    return ladder - gap, ladder, gap


def ladder(params, n, rows=slice(None)):
    """The rows of ladder_brackets selected by rows, in units of hbar w,
    applied last, for a bound level n (a list of floats) or each of an array
    of them (an array with a row per bracket, in one pass over the levels).
    Raises as require_level does, and DomainError where a value leaves the
    float range, for an array at the level and bracket where a loop over
    the levels would (see specfun.level_in_units)."""
    return specfun.level_in_units(
        n, lambda k: require_level(params, k), (params.hbar, params.omega),
        ("the energy", "the energy", "the gap")[rows], lambda k: ladder_brackets(params, k)[rows],
    )


def level_energy(params, n):
    """E_n = hbar w [(n + 1/2) - n(n+1) / (2 b^2)], b^2 = (lambda0 a)^2, of a
    bound level n (a float) or of each of an array of them (an array).

    The bracket is computed in units of hbar w, which is applied last.
    Raises DomainError where E_n leaves the float range.
    """
    return ladder(params, n, slice(1))[0]


def energy(params, n):
    """Bound level n with its energy (level_energy)."""
    return DiscreteState(n=n, energy=level_energy(params, n))


def morse_constants(b2, levels):
    """The constant K_n of ln phi_n (morse_phi) of each bound level n in
    levels at b^2, as a float array: with v* = b^2 - 1/2 and the
    normalization c_n = (2b^2)^(b^2) sqrt[(2b^2-2n-1) / (2b^2 n! G(2b^2-n))]
    of psi_n at a = 1,
        K_n = ln c_n + (1/2 - b^2) ln b^2 + v* (ln v* - 1)
            = v* (ln 2v* - 1) + [ln(2b^2-2n-1) - ln n! - ln G(2b^2-n)] / 2,
    in logs only (the gamma factor overflows for moderate b^2), with c_n
    taken positive (the sign of a bound state is conventional).  DomainError
    where b^2 ln(2b^2) eps exceeds PSI_LOG_TOL (see there)."""
    if b2 * math.log(2.0 * b2) * sys.float_info.epsilon > PSI_LOG_TOL:
        raise DomainError(f"bound states at b^2 = {b2:.6g} would lose more than "
                          f"{PSI_LOG_TOL:g} relative accuracy to cancelling terms of ln psi")
    v_star = b2 - 0.5
    lead = v_star * (math.log(2.0 * v_star) - 1.0)
    return np.array([lead + 0.5 * (math.log(2.0 * b2 - 2.0 * n - 1.0) - math.lgamma(n + 1.0)
                                   - math.lgamma(2.0 * b2 - n)) for n in levels])


def morse_phi(b2, levels, constants, d, excess, t=None, derivatives=False):
    """(log rows, Bessel rows) of the Morse states phi_n = sqrt(a s) psi_n of
    levels at b^2, constants = morse_constants(b2, levels), in d = ln(v/v*),
    v = b^2/s, v* = b^2 - 1/2:
        phi_n = exp(K_n + v* d - (v - v*)) y_n(1/v; -2b^2).
    The caller forms d, excess = v - v* and t = 1/v, arrays of one shape, as
    rounds best from its own variable.  The log rows, ln phi_n - ln y_n,
    have shape (len(levels), *d.shape): centred at the peak v* of
    v^(b^2-1/2) e^(-v), a point adds only v* d - (v - v*), O(1) where the
    states live.  The Bessel rows are specfun.bessel_poly_rows at t, or
    None without t; |y_n(1/v)| <= (1 + b^2/v)^n."""
    log_rows = constants.reshape((-1,) + (1,) * d.ndim) + ((b2 - 0.5) * d - excess)
    return log_rows, None if t is None else specfun.bessel_poly_rows(levels, -2.0 * b2, t, derivatives)


def _finite(values, what):
    """values, unless one of them is not finite (DomainError)."""
    if not np.isfinite(values).all():
        raise DomainError(f"{what} leaves the float range")
    return values


@dataclass(frozen=True)
class BoundStates:
    """Bound levels of one parameter set, evaluated together on arrays of
    positions.

    Every level is the Morse state phi_n (morse_phi) at the same
    d = ln(b^2/v*) - ln s, s = 1 + x/a, with its Bessel polynomial
    y_n(t; -2b^2) at the same t = s/b^2, so one recurrence up to the highest
    level gives them all.  psi and psi_with_derivatives take a scalar or an
    array of positions, all strictly inside the wall, and return arrays of
    shape (len(levels), *x.shape), row i for levels[i]; each row is bit for
    bit what bound_states(params, (levels[i],)) gives.
    """

    params: ModelParams
    levels: tuple  # a DiscreteState per requested level, in request order
    constants: np.ndarray = field(compare=False)  # morse_constants of the levels

    def _parts(self, x, bessel=True, derivatives=False):
        """(s, ln s, log prefactor rows, Bessel rows or None) at the positions
        x: psi_n = phi_n / sqrt(a s), with v - v* = 1/2 - b^2 x/(x+a), which
        stays finite where (1/2 - v* x/a)/s overflows."""
        x, s = _inside(self.params, x)
        p = self.params
        b2, xa = p.b2, x / p.a
        ln_s = np.log1p(xa)
        log_rows, rows = morse_phi(
            b2, [level.n for level in self.levels], self.constants, -math.log1p(-0.5 / b2) - ln_s,
            0.5 - b2 * (xa / s), s / b2 if bessel else None, derivatives,
        )
        return s, ln_s, log_rows - 0.5 * (math.log(p.a) + ln_s), rows

    @np.errstate(over="ignore")  # a value past the float ceiling is refused
    def psi(self, x, form=WavefunctionForm.BESSEL):
        """psi_n at x for every level.

        The Bessel form is
            C_n s^(-b^2) exp(-b^2/s) y_n(s/b^2; -2b^2),  s = 1 + x/a;
        the Laguerre form carries the extra factor s^n together with
        L_n^(2b^2-2n-1)(2b^2/s), whose parameter depends on n, so it runs one
        Laguerre recurrence per level.  Equating the two polynomial
        representations through their terminating-series forms fixes the
        relative constant to (-1)^n n! / (2b^2)^n, so both forms return
        identical values.
        """
        if form is WavefunctionForm.BESSEL:
            _, _, log_pref, (exponent, y, _, _) = self._parts(x)
            return _finite(specfun.exp_scaled(log_pref, y, exponent), "psi")
        if form is not WavefunctionForm.LAGUERRE:
            raise ValueError(f"unknown wavefunction form {form!r}")
        s, ln_s, log_rows, _ = self._parts(x, bessel=False)
        b2 = self.params.b2
        z = 2.0 * b2 / s
        psi = np.empty_like(log_rows)
        for i, level in enumerate(self.levels):
            n = level.n
            exponent, lag = specfun.laguerre_scaled(n, 2.0 * b2 - 2.0 * n - 1.0, z)
            log_pref = log_rows[i] + (math.lgamma(n + 1.0) - n * math.log(2.0 * b2) + n * ln_s)
            psi[i] = specfun.exp_scaled(log_pref, lag if n % 2 == 0 else -lag, exponent)
        return _finite(psi, "psi")

    @np.errstate(over="ignore")  # a value past the float ceiling is refused
    def psi_with_derivatives(self, x):
        """(psi_n, psi_n', psi_n'') at x for every level, with analytic
        derivatives.

        Logarithmic differentiation of the prefactor plus the differentiated
        polynomial recurrence, in s = 1 + x/a, whose factors 1/a and 1/a^2
        join the log prefactor; exact up to round-off, no finite differences.
        The underflow floor is one decision per position for all three, by
        the largest of |psi|, a |psi'| and a^2 |psi''| (the s-derivatives):
        near the wall psi can lie below it while psi'' does not, and
        flushing psi alone would leave a triple that breaks the equation.
        Raises DomainError where a value leaves the float range.
        """
        s, _, log_pref, (exponent, y, dy, d2y) = self._parts(x, derivatives=True)
        b2 = self.params.b2
        ln_a = math.log(self.params.a)
        dl = -b2 / s + b2 / s**2           # d/ds of the log prefactor
        d2l = b2 / s**2 - 2.0 * b2 / s**3
        dy = dy / b2                        # chain rule, t = s/b^2
        d2y = d2y / (b2 * b2)
        d1 = dl * y + dy
        d2 = (d2l + dl * dl) * y + 2.0 * dl * dy + d2y
        largest = np.maximum(np.abs(y), np.maximum(np.abs(d1), np.abs(d2)))
        flush = specfun.exp_scaled(log_pref, largest, exponent) == 0.0
        return tuple(
            _finite(specfun.exp_scaled(log_pref - k * ln_a, f, exponent, flush), what)
            for k, f, what in ((0, y, "psi"), (1, d1, "psi'"), (2, d2, "psi''"))
        )


def bound_states(params, levels):
    """The bound levels of params, ready to evaluate together; levels may
    come in any order and may repeat.  Raises as level_energy and
    morse_constants do."""
    levels = tuple(levels)
    energies = level_energy(params, levels).tolist()
    return BoundStates(params, tuple(DiscreteState(n=n, energy=e) for n, e in zip(levels, energies)),
                       morse_constants(params.b2, levels))


def wavefunction(params, n, x, form=WavefunctionForm.BESSEL):
    """Bound-state wavefunction psi_n at x, a scalar (giving a float) or an
    array of positions (see BoundStates.psi)."""
    return specfun.shaped_like(x, bound_states(params, (n,)).psi(x, form)[0])


def wavefunction_with_derivatives(params, n, x):
    """(psi_n, psi_n', psi_n'') with analytic derivatives, at a scalar or an
    array of positions (see BoundStates.psi_with_derivatives)."""
    rows = bound_states(params, (n,)).psi_with_derivatives(x)
    return tuple(specfun.shaped_like(x, v[0]) for v in rows)


def wavenumber_state(params, q):
    """The continuum state of parameter q > 0 itself, at the energy
    E = V_inf c0 / b^4 with q^2 = 4c0 - 4b^4 - 1.

    q is independent of a, which makes it the natural handle for sweeps in
    the semiconfinement parameter at fixed mu = 1 + iq.  continuum_state at
    that energy would round q through it (1.99988 for 2 at a = 1000).
    """
    if not q > 0.0:
        raise DomainError(f"continuum parameter q must be positive, got {q}")
    b4 = params.b2 * params.b2
    c0 = 0.25 * (q * q + 1.0) + b4  # E = V_inf c0 / (lambda0 a)^4
    energy_value = in_units(c0 / b4, (well_depth(params),), f"the energy for q={q}")
    return _continuum(params, energy_value, c0, q)


def _continuum(params, energy_value, c0, q):
    """The ContinuousState of continuum parameter q > 0 at energy_value."""
    gamma = complex(0.5 * (1.0 - 2.0 * params.b2), 0.5 * q)
    return ContinuousState(energy_value, c0, q, gamma, mu=complex(1.0, q))


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
    return _continuum(params, energy_value, c0, math.sqrt(q_sq))


def _continuum_parts(params, x):
    """(x, z): a scalar x as a float, or an array of positions as a float
    array, all strictly inside the wall (else DomainError), and the argument
    z = 2 l0^2 a^3 / (x+a) = 2b^2/s of 1F1 there, flattened to one
    dimension for an array."""
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if not x > -params.a:
            _inside(params, x)  # raises its DomainError
        return x, 2.0 * (params.wall_scale / (x + params.a))
    x = _inside(params, x)[0]
    return x, 2.0 * (params.wall_scale / (x.reshape(-1) + params.a))


def _log_prefactor_continuum(state, params, x, z):
    """The complex log prefactor W = (-gamma-b^2) ln(x/a+1) - z/2 at one
    position; the base x/a + 1 is positive, so the principal branch is
    unambiguous."""
    return (-state.gamma - params.b2) * math.log1p(x / params.a) - 0.5 * z


def _continuum_value(state, params, x, z, exponent, f):
    """psi_E at one position, from the Kummer mantissa and exponent there.

    This and _continuum_triple work on Python numbers at each position of an
    array too, so each element is bit for bit the scalar value: numpy's
    vectorized complex products, moduli and logarithms can round differently
    in the last bit."""
    return specfun.exp_scaled_complex(_log_prefactor_continuum(state, params, x, z), f, exponent)


def continuum_wavefunction(state, params, x):
    """psi_E(x) = s^(-gamma-b^2) e^(-z/2) 1F1(gamma; mu; z) with s = 1 + x/a
    and z = 2b^2/s, at a scalar x (giving a complex) or an array of
    positions (giving a complex array of its shape).

    One pass over the Kummer series serves every position of an array, and
    each value is bit for bit the one its position gives alone.  Close to the
    wall z grows without bound and the Kummer series leaves the native float
    range (1F1 grows like e^z, which beats the e^(-z/2) prefactor); the
    NonConvergence raised by the series is propagated, for an array if any
    of its positions is refused.
    """
    x, z = _continuum_parts(params, x)
    exponent, f = specfun.kummer_1f1_scaled(state.gamma, state.mu, z)
    if isinstance(x, float):
        return _continuum_value(state, params, x, z, exponent, f)
    points = zip(x.reshape(-1).tolist(), z.tolist(), exponent.tolist(), f.tolist())
    return np.array([_continuum_value(state, params, *p) for p in points], dtype=complex).reshape(x.shape)


def _continuum_triple(state, params, x, z, exponent, f0, f1, f2):
    """(psi_E, psi_E', psi_E'') at one position, from the Kummer mantissas
    and exponent there (see continuum_wavefunction_with_derivatives): the
    derivatives in s = 1 + x/a, whose factors 1/a and 1/a^2 join the log
    prefactor, as for the bound states."""
    w_log = _log_prefactor_continuum(state, params, x, z)
    a, b2, g = params.a, params.b2, state.gamma
    ln_a = math.log(a)
    s = (x + a) / a
    w = b2 / s / s                      # d/ds of -z/2
    dz = -z / s
    d2z = 2.0 * (z / s) / s
    dw = (-g - b2) / s + w
    d2w = (g + b2) / s / s - 2.0 * w / s
    d1 = dw * f0 + f1 * dz
    d2 = (d2w + dw * dw) * f0 + 2.0 * dw * f1 * dz + f2 * dz * dz + f1 * d2z
    try:
        if cmath.isfinite(d1) and cmath.isfinite(d2):  # f0, a mantissa, is finite
            return (specfun.exp_scaled_complex(w_log, f0, exponent),
                    specfun.exp_scaled_complex(w_log - ln_a, d1, exponent),
                    specfun.exp_scaled_complex(w_log - 2.0 * ln_a, d2, exponent))
    except OverflowError:  # cmath.exp of a value past the float ceiling
        pass
    raise NonConvergence(f"continuum derivatives at x={x} leave the float range")


def continuum_wavefunction_with_derivatives(state, params, x):
    """(psi_E, psi_E', psi_E'') with analytic derivatives, at a scalar x
    (complex values) or an array of positions (complex arrays of its shape).

    1F1 and its first two z-derivatives come from one pass over the Kummer
    series for all the positions, as mantissas; the chain rule adds the
    logarithmic derivatives of the complex prefactor, and NonConvergence
    refuses a combination or a value that leaves the float range (at huge
    energies, where dw ~ q/(x+a), and within tiny x + a, where
    psi'' ~ psi/(x+a)^2).
    """
    x, z = _continuum_parts(params, x)
    exponent, f = specfun.kummer_1f1_scaled(state.gamma, state.mu, z, derivatives=True)
    if isinstance(x, float):
        return _continuum_triple(state, params, x, z, exponent, *f)
    points = zip(x.reshape(-1).tolist(), z.tolist(), exponent.tolist(), *(v.tolist() for v in f))
    values = np.array([_continuum_triple(state, params, *p) for p in points], dtype=complex)
    return tuple(v.reshape(x.shape) for v in values.reshape(-1, 3).T)


@np.errstate(over="ignore")  # a value past the float ceiling is refused
def alpha0(params, x):
    """Logarithmic derivative of the ground state,
    alpha0 = psi_0'/psi_0 = (-b^2/s + b^2/s^2) / a, s = 1 + x/a."""
    _, s = _inside(params, x)
    return specfun.shaped_like(x, _finite((-params.b2 / s + params.b2 / s**2) / params.a, "alpha0"))


# a value past the float ceiling, or inf times 0 at x = inf, is refused
@np.errstate(over="ignore", invalid="ignore")
def apply_lowering(params, x, psi, dpsi):
    """Factorization lowering operator sqrt(rho/hbar w) (d/dx - alpha0) on a
    function with values psi and derivatives dpsi at x, a scalar (giving a
    float) or an array of positions, where sqrt(rho/hbar w) = a s/sqrt(2b^2).
    Annihilates the ground state identically.
    """
    _, s = _inside(params, x)
    lowered = np.sqrt(s * s / (2.0 * params.b2)) * (dpsi - alpha0(params, x) * psi) * params.a
    return specfun.shaped_like(x, _finite(lowered, "the lowered function"))
