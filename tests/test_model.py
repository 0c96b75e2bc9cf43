import cmath
import dataclasses
import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from pdem import checks, limits, model, oracle, specfun
from pdem.errors import BelowContinuum, DomainError, LevelOutOfRange, NonConvergence
from pdem.model import ModelParams, WavefunctionForm


# ---------------------------------------------------------------- parameters

def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(m0=-1.0)
    with pytest.raises(ValueError):
        ModelParams(a=0.5)  # below 1/(sqrt(2) lambda0)
    with pytest.raises(ValueError):
        ModelParams(a=1.0 / math.sqrt(2.0))  # bound is strict
    p = ModelParams(a=2.0)
    assert p.lambda0 == 1.0
    assert p.b2 == 4.0


@pytest.mark.parametrize("name", ["m0", "omega", "hbar", "a"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError):
        ModelParams(**{name: value})


@pytest.mark.parametrize("kwargs", [
    dict(a=1e200),                             # lambda0^2 a^2 overflows
    dict(hbar=1e300, m0=1e-30, omega=1e-10),   # lambda0^2 underflows to 0
    dict(hbar=1e290, m0=1e-20, omega=1e-10),   # lambda0^2 = 1e-320 is subnormal
], ids=["b2-overflow", "lambda0-underflow", "lambda0-subnormal"])
def test_params_reject_extreme_finite_constants(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_params_reject_an_overflowing_well_depth():
    # V_inf = 1e400 / 4 is past the float ceiling, and with it every potential
    with pytest.raises(ValueError, match="well depth"):
        ModelParams(omega=1e200, hbar=1e200)
    # m0 w^2 alone overflows here, but V_inf = 5e305 is a float
    assert model.well_depth(ModelParams(m0=1e300, omega=1e5, hbar=1e300, a=0.01)) == pytest.approx(5e305, rel=1e-15)


def test_params_reject_a_subnormal_well_depth():
    # V_inf = 5e-321 keeps 2 digits; continuum energies above it would too
    with pytest.raises(ValueError, match="well depth"):
        ModelParams(omega=1e-160, hbar=1e-160)


def test_level_cap():
    # the cap bounds the levels asked for, and a loop over all of them, not b^2
    p = ModelParams(a=1e8)  # 10^16 levels
    assert model.max_level(p) == 10**16 - 1
    with pytest.raises(DomainError, match="cap"):
        model.bound_levels(p)
    with pytest.raises(DomainError, match="cap"):
        model.energy(p, model.LEVEL_CAP + 1)
    assert model.energy(p, 0).energy == 0.5
    assert model.energy(p, model.LEVEL_CAP).energy == pytest.approx(model.LEVEL_CAP + 0.5, rel=1e-9)
    edge = ModelParams(a=math.sqrt(model.LEVEL_CAP + 1.0))
    assert model.max_level(edge) == model.LEVEL_CAP
    assert model.bound_levels(edge) == range(model.LEVEL_CAP + 1)
    with pytest.raises(DomainError, match="cap"):
        model.bound_levels(ModelParams(a=math.sqrt(model.LEVEL_CAP + 2.0)))


def test_low_levels_of_a_well_past_the_cap():
    # 14 399 levels at a = 120; level 0 is one recurrence step.  Measured:
    # <0|0> - 1 = -1.1e-11 (the package's orthonormality bound is 1e-10), and
    # a * (L2 distance to the canonical ground state) = 0.9129, the 1/a
    # approach to the oscillator
    p = ModelParams(a=120.0)
    assert model.max_level(p) > model.LEVEL_CAP
    assert abs(checks.bound_overlap(p, 0, 0) - 1.0) <= 1e-10
    assert 0.90 <= 120.0 * limits.wavefunction_distance(p, 0) <= 0.925


@pytest.mark.parametrize("a", [300.0, 1e8])
def test_bound_states_refused_where_the_log_prefactor_cancels(a):
    # b^2 ln(2b^2) eps is 3.3e-11 at a = 120 and 2.4e-10 at a = 300, where
    # <0|0> - 1 would be -3.1e-10; at a = 1e8 psi would be off by e^(tens).
    # The energies are not affected.
    p = ModelParams(a=a)
    assert model.energy(p, 0).energy == 0.5
    for evaluate in (
        lambda: model.wavefunction(p, 0, 0.0),
        lambda: model.wavefunction_with_derivatives(p, 0, 0.0),
        lambda: limits.wavefunction_distance(p, 0),
    ):
        with pytest.raises(DomainError, match="accuracy"):
            evaluate()


def test_bound_state_refusal_edge():
    # b^2 ln(2b^2) eps = 9.92e-11 at a = 199 and 1.003e-10 at a = 200
    model.wavefunction(ModelParams(a=199.0), 0, 0.0)
    with pytest.raises(DomainError, match="accuracy"):
        model.wavefunction(ModelParams(a=200.0), 0, 0.0)


def test_derivatives_underflow_instead_of_overflowing():
    # b^2 = 40, a = 1e-150: at x = -0.999 a psi, psi' and psi'' underflow to
    # 0 although psi''/psi alone, about b^4/(s^4 a^2), leaves the float range
    p = ModelParams(m0=1.0, omega=40.0, hbar=1e-300, a=1e-150)
    assert p.b2 == pytest.approx(40.0, rel=1e-14)
    assert model.wavefunction_with_derivatives(p, 0, -0.999 * p.a) == (0.0, 0.0, 0.0)


def test_derivative_triple_shares_one_underflow_decision():
    # level 69 at a = 15: psi lies below the normal floor where a^2 psi'' does
    # not; psi flushed alone, the equation's residual there was 1
    p = ModelParams(a=15.0)
    x = -12.648099056603773
    psi, d1, d2 = model.wavefunction_with_derivatives(p, 69, x)
    assert psi != 0.0 and d1 != 0.0 and d2 != 0.0
    psi_of = lambda t: model.wavefunction_with_derivatives(p, 69, t)
    assert oracle.ode_residual(p, psi_of, model.energy(p, 69).energy, x) <= 1e-11
    assert model.wavefunction(p, 69, x) == 0.0  # psi alone keeps its own floor


@pytest.mark.parametrize("a", [15.0, 40.0])
def test_ode_residual_check_passes_at_large_a(a):
    result = checks.check_ode_residual((a,))
    assert result.passed, result.line()


# ---------------------------------------------------------------- profiles

def test_effective_mass(params_a2):
    assert model.effective_mass(params_a2, 0.0) == params_a2.m0
    assert model.effective_mass(params_a2, 2.0) == 0.25
    with pytest.raises(DomainError):
        model.effective_mass(ModelParams(a=1.0), -1.0)


def test_effective_mass_decreasing(params_a2):
    xs = np.linspace(-1.9, 20.0, 50)
    vals = [model.effective_mass(params_a2, float(x)) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_potential(params_a2):
    assert model.potential(params_a2, 0.0) == 0.0
    assert model.potential(params_a2, 2.0) == 0.5
    assert math.isinf(model.potential(params_a2, -2.5))
    assert math.isinf(model.potential(params_a2, -2.0))
    assert model.potential(params_a2, 1e9) == pytest.approx(
        model.well_depth(params_a2), rel=1e-8
    )


@pytest.mark.parametrize("m0,hbar,a,x", [
    (1.0, 1.0, 2.0, 1e154),
    (1.0, 1.0, 2.0, 1e155),
    (1.0, 1.0, 2.0, 1e200),
    (1.0, 1.0, 2.0, 1.7976931348623157e308),
    (1e300, 1.0, 2.0, 1e4),  # m0 w^2 a^2 x^2 overflows
    (1.0, 1e-300, 1e-149, -9.9999999999999e-150),  # (a+x)^2 underflows to 0
], ids=["1e154", "1e155", "1e200", "max", "huge-m0", "at-the-wall"])
def test_profile_where_its_squares_leave_the_float_range(m0, hbar, a, x):
    # V and M against exact rational arithmetic, where the float expressions
    # give NaN, inf, OverflowError or ZeroDivisionError; far out V is at its
    # plateau and M at 0 to double precision
    p = ModelParams(m0=m0, hbar=hbar, a=a)
    mass = Fraction(p.m0) * Fraction(p.a) ** 2 / (Fraction(p.a) + Fraction(x)) ** 2
    v = mass * Fraction(p.omega) ** 2 * Fraction(x) ** 2 / 2
    assert model.effective_mass(p, x) == pytest.approx(float(mass), rel=1e-15, abs=1e-307)
    assert model.potential(p, x) == pytest.approx(float(v), rel=1e-15, abs=0.0)
    # an array of positions gives the scalar values elementwise (and the
    # suite turns a RuntimeWarning into an error)
    xs = np.array([x, 0.0])
    assert model.effective_mass(p, xs).tolist() == [model.effective_mass(p, t) for t in xs.tolist()]
    assert model.potential(p, xs).tolist() == [model.potential(p, t) for t in xs.tolist()]


def test_profile_at_infinity(params_a2):
    assert model.potential(params_a2, math.inf) == model.well_depth(params_a2)
    assert model.effective_mass(params_a2, math.inf) == 0.0


@pytest.mark.parametrize("hbar,a,x", [
    *((1.0, 2.0, x) for x in np.linspace(-1.9, 1e153, 7).tolist()),
    (1e-300, 1e-149, -9.995e-150),  # the numerator m0 w^2 a^2 x^2 underflows
], ids=[*(f"a2-x{i}" for i in range(7)), "numerator-underflow"])
def test_profile_against_exact_rationals(hbar, a, x):
    p = ModelParams(hbar=hbar, a=a)
    mass = Fraction(p.m0) * Fraction(p.a) ** 2 / (Fraction(p.a) + Fraction(x)) ** 2
    v = mass * Fraction(p.omega) ** 2 * Fraction(x) ** 2 / 2
    assert model.effective_mass(p, x) == pytest.approx(float(mass), rel=1e-15, abs=0.0)
    assert model.potential(p, x) == pytest.approx(float(v), rel=1e-15, abs=0.0)


def test_well_depth():
    assert model.well_depth(ModelParams(a=1.0)) == 0.5
    assert model.well_depth(ModelParams(a=4.0)) == 8.0
    assert model.well_depth(ModelParams(m0=2.0, omega=3.0, a=1.0)) == 9.0


# ---------------------------------------------------------------- spectrum

@pytest.mark.parametrize("a,n_max", [(1.0, 0), (2.0, 3), (3.0, 8), (4.0, 15)])
def test_max_level(a, n_max):
    assert model.max_level(ModelParams(a=a)) == n_max


def test_energies(params_a2):
    assert model.energy(params_a2, 0).energy == 0.5
    assert model.energy(params_a2, 3).energy == 2.0
    with pytest.raises(LevelOutOfRange):
        model.energy(params_a2, 4)
    with pytest.raises(LevelOutOfRange):
        model.energy(params_a2, -1)


@pytest.mark.parametrize("level_fn", [
    model.energy,
    lambda p, n: model.wavefunction(p, n, 0.5),
    limits.energy_gap,
    limits.wavefunction_distance,
], ids=["energy", "wavefunction", "energy_gap", "wavefunction_distance"])
def test_level_must_be_an_integer(params_a2, level_fn):
    for n in (1.5, 1.0, np.float64(2.0)):
        with pytest.raises(LevelOutOfRange):
            level_fn(params_a2, n)
    assert level_fn(params_a2, np.int64(1)) == level_fn(params_a2, 1)


def test_discrete_state_fields(params_a2):
    st = model.energy(params_a2, 1)
    assert [f.name for f in dataclasses.fields(st)] == ["n", "energy"]
    assert st.n == 1
    assert st.energy <= model.well_depth(params_a2)


@pytest.mark.parametrize("a", [1.0, 2.0, 3.0, 4.0])
def test_spectrum_shape(a):
    p = ModelParams(a=a)
    energies = [model.energy(p, n).energy for n in range(model.max_level(p) + 1)]
    v_inf = model.well_depth(p)
    gaps = [e2 - e1 for e1, e2 in zip(energies, energies[1:])]
    assert all(g > 0.0 for g in gaps)
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    # the top level may sit exactly at the plateau (it does for integer b^2)
    assert all(e <= v_inf + 1e-12 for e in energies)
    assert energies[-1] == pytest.approx(v_inf, rel=1e-14)


def test_ground_state_matches_canonical():
    for a in (1.0, 2.0, 3.0, 4.0, 10.0):
        assert model.energy(ModelParams(a=a), 0).energy == 0.5


# ---------------------------------------------------------------- normalization

def _log_c(b2, n):
    """ln c_n, the normalization of psi_n at a = 1, from the constant K_n of
    model.morse_constants: K_n - (1/2 - b^2) ln b^2 - v* (ln v* - 1)."""
    v_star = b2 - 0.5
    return (model.morse_constants(b2, (n,))[0] - (0.5 - b2) * math.log(b2)
            - v_star * (math.log(v_star) - 1.0))


def test_normalization_closed_form_a1(params_a1):
    assert math.exp(_log_c(params_a1.b2, 0)) == pytest.approx(math.sqrt(2.0), rel=1e-14)


@pytest.mark.parametrize("n", [0, 3])
def test_normalization_by_quadrature(params_a2, n):
    assert checks.bound_overlap(params_a2, n, n) == pytest.approx(1.0, abs=1e-8)


def test_normalization_log_space_large_a():
    # Gamma(2 b^2 - n) overflows a float at a = 20 but the log form is finite
    p = ModelParams(a=20.0)
    assert math.isfinite(model.morse_constants(p.b2, (0,))[0])
    with pytest.raises(OverflowError):
        math.exp(math.lgamma(2.0 * p.b2))  # the quantity the log form avoids


# ---------------------------------------------------------------- wavefunctions

def test_wavefunction_value_at_origin(params_a2):
    # C_0 e^(-b^2/s) y_0 at s = 1, with C_0 = c_0 / sqrt(a)
    expected = math.exp(_log_c(params_a2.b2, 0) - 0.5 * math.log(params_a2.a)) * math.exp(-4.0)
    assert model.wavefunction(params_a2, 0, 0.0) == pytest.approx(expected, rel=1e-14)


def test_wavefunction_wall_underflow(params_a1):
    assert model.wavefunction(params_a1, 0, -1.0 + 1e-4) == 0.0


def test_wavefunction_domain_and_range(params_a2):
    with pytest.raises(DomainError):
        model.wavefunction(params_a2, 0, -2.0)
    with pytest.raises(LevelOutOfRange):
        model.wavefunction(params_a2, 4, 0.0)
    with pytest.raises(DomainError, match="position -2.5 "):
        model.bound_states(params_a2, (0,)).psi(np.array([0.0, -2.5, 1.0]))


def test_scalar_and_array_positions(params_a2):
    # a scalar position gives Python floats (numpy 2 prints its scalars as
    # np.float64(...), which must not reach repr-serialized output)
    assert type(model.wavefunction(params_a2, 1, 0.5)) is float
    assert all(type(v) is float for v in model.wavefunction_with_derivatives(params_a2, 1, 0.5))
    xs = np.array([[-1.0, 0.5], [2.0, 7.0]])
    state = model.bound_states(params_a2, (1,))
    values = state.psi(xs)[0]
    assert values.shape == xs.shape
    pointwise = [[model.wavefunction(params_a2, 1, x) for x in row] for row in xs.tolist()]
    assert values.tolist() == pointwise
    triples = [v[0] for v in state.psi_with_derivatives(xs)]
    for x, v, d1, d2 in zip(xs.ravel(), *(t.ravel() for t in triples)):
        assert (v, d1, d2) == model.wavefunction_with_derivatives(params_a2, 1, float(x))


@pytest.mark.parametrize("a", [1.0, 2.0, 3.0])
def test_dual_form_agreement(a):
    p = ModelParams(a=a)
    xs = np.linspace(-a + 0.02 * a, a + 10.0 / p.lambda0, 200)
    for n in range(model.max_level(p) + 1):
        for x in xs:
            x = float(x)
            vb = model.wavefunction(p, n, x, WavefunctionForm.BESSEL)
            vl = model.wavefunction(p, n, x, WavefunctionForm.LAGUERRE)
            if vb == 0.0 and vl == 0.0:
                continue
            assert abs(vb - vl) <= 1e-10 * max(abs(vb), abs(vl))


@pytest.mark.parametrize("a", [1.0, 2.0, 3.0])
def test_boundary_decay_monotone(a):
    p = ModelParams(a=a)
    for n in range(min(2, model.max_level(p)) + 1):
        vals = [abs(model.wavefunction(p, n, -a + eps * a)) for eps in (1e-1, 1e-2, 1e-3)]
        assert vals[0] > vals[1] or vals[0] == 0.0
        assert vals[1] > vals[2] or vals[1] == 0.0


def test_wavefunction_far_tail_decay(params_a2):
    # power-law decay with exponent n - b^2 < -1/2
    for n in range(4):
        v1 = abs(model.wavefunction(params_a2, n, 400.0))
        v2 = abs(model.wavefunction(params_a2, n, 800.0))
        expected = 2.0 ** (n - params_a2.b2)
        assert v2 / v1 == pytest.approx(expected, rel=0.05)


def _mp_psi(a, n, x):
    """psi_n(x) at unit constants in 60-digit mpmath, from the Laguerre form
    C_n s^(n-b^2) e^(-b^2/s) (-1)^n n!/(2b^2)^n L_n^(2b^2-2n-1)(2b^2/s)."""
    with mpmath.workdps(60):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        b2, s = a * a, 1 + x / a
        log_c = b2 * mpmath.log(2 * b2) + (mpmath.log(2 * b2 - 2 * n - 1) - mpmath.log(2 * b2 * a)
                                           - mpmath.loggamma(n + 1) - mpmath.loggamma(2 * b2 - n)) / 2
        log_pref = log_c + (n - b2) * mpmath.log(s) - b2 / s + mpmath.loggamma(n + 1) - n * mpmath.log(2 * b2)
        return float((-1) ** n * mpmath.exp(log_pref) * mpmath.laguerre(n, 2 * b2 - 2 * n - 1, 2 * b2 / s))


def test_wavefunction_far_out_against_mpmath():
    # a step of the Bessel recurrence grows y_n by about s = 1 + x/a, so from
    # x near 1.3e35 at a = 4 eight of them and a seed overflow unless every
    # step renormalizes
    p = ModelParams(a=4.0)
    for n in (9, 15):
        for x in (1e36, 1e100):
            ref = _mp_psi(4.0, n, x)
            for form in WavefunctionForm:
                got = model.wavefunction(p, n, x, form)
                assert got == ref or abs(got - ref) <= 1e-12 * abs(ref), (n, x, form)
    states = model.bound_states(p, (8, 15))
    xs = np.array([1e34, 1e36, 1e40, 1e200])
    for rows in (states.psi(xs), *states.psi_with_derivatives(xs)):
        assert np.isfinite(rows).all()
    # from about 1e305 at a = 4 the products that form a step leave the
    # float range, and the recurrence is refused rather than run
    with pytest.raises(DomainError):
        model.wavefunction(p, 15, 1e307)


@pytest.mark.parametrize("a", [1.07, 2.63, 6.3])
def test_psi_against_mpmath(a):
    # both forms against 60 digits at levels 0, top//2 and top, on a
    # log-spaced x + a grid wherever |psi| is at least 1e-3 of its peak there,
    # relative to b^2 ln(2b^2) eps, the rounding of the cancelling terms of
    # ln psi.  Measured at most 16.6 of it with ln C_n and the log prefactor
    # formed in s, and 17.3 with the Morse core, both for the Bessel form at
    # a = 2.63, n = 6 (the top level, near threshold) far out, where the
    # recurrence rounds most; the Laguerre form 8.1 and 11.8, at a = 1.07
    # near the wall, where 1/s amplifies the rounding of s itself.  The bound
    # is the former worst case and a fifth more for last-digit rounding.
    p = ModelParams(a=a)
    top = model.max_level(p)
    unit = p.b2 * math.log(2.0 * p.b2) * sys.float_info.epsilon
    xs = a * np.geomspace(1e-3, 1e9, 241) - a
    for n in sorted({0, top // 2, top}):
        ref = np.array([_mp_psi(a, n, x) for x in xs.tolist()])
        keep = np.abs(ref) >= 1e-3 * np.abs(ref).max()
        assert not keep[-1]  # the grid covers where the state lives
        for form in WavefunctionForm:
            got = model.wavefunction(p, n, xs[keep], form)
            assert np.all(np.abs(got - ref[keep]) <= 20.0 * unit * np.abs(ref[keep])), (n, form)


def test_psi_at_huge_positions_underflows():
    # v - v* = 1/2 - b^2 x/(x+a): formed as (1/2 - v* x/a)/s it overflows
    # at x/a > 1.8e308/v*, where psi is 0 and the recurrence still runs
    p = ModelParams(m0=100.0)
    for x in (1e306, 1e307):
        assert model.wavefunction(p, 0, x) == 0.0


def test_orthonormality_small_case(params_a1):
    assert checks.bound_overlap(params_a1, 0, 0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("params", [
    ModelParams(a=3.0, m0=2.5, omega=0.3, hbar=0.7),
    ModelParams(a=3.105),
], ids=["a3-m2.5-w0.3-h0.7", "a3.105"])
def test_near_threshold_normalization(params):
    # b^2 - N = 0.64: the norm density of the top level goes like u^(-0.72)
    # toward u = 0, so the stretch below the quadrature's lower cutoff
    # u = 1e-12 held 3e-3 of its norm
    n = model.max_level(params)
    assert params.b2 - n == pytest.approx(0.64, abs=0.01)
    assert abs(checks.bound_overlap(params, n, n) - 1.0) <= 1e-10


@pytest.mark.parametrize("n", [200, 250])
@pytest.mark.parametrize("x", [1e3, 1e4])
def test_high_level_wavefunction_finite(n, x):
    # y_n overflowed the float range here before the recurrences were rescaled
    p = ModelParams(a=20.0)
    vb = model.wavefunction(p, n, x)
    vl = model.wavefunction(p, n, x, WavefunctionForm.LAGUERRE)
    assert math.isfinite(vb) and math.isfinite(vl)
    assert abs(vb - vl) <= 1e-10 * max(abs(vb), abs(vl))


def test_high_level_normalization():
    # measured 3.3e-13; a QUADPACK reference in s = ln u (8000 calls of psi,
    # 6 s) agrees with bound_overlap here to 3.1e-15
    p = ModelParams(a=20.0)
    assert abs(checks.bound_overlap(p, 200, 200) - 1.0) <= 1e-12


# ---------------------------------------------------------------- derivatives

def test_derivative_zero_at_ground_maximum():
    for a in (1.0, 2.0):
        p = ModelParams(a=a)
        psi, dpsi, _ = model.wavefunction_with_derivatives(p, 0, 0.0)
        assert abs(dpsi) <= 1e-8 * abs(psi)


@pytest.mark.parametrize("n", [0, 2])
def test_derivative_matches_finite_differences(params_a2, n):
    h = 1e-5 * params_a2.a
    xs = np.linspace(-1.8, 14.0, 60)
    psi, d, _ = model.wavefunction_with_derivatives(params_a2, n, xs)
    psi_plus, psi_minus = (model.wavefunction(params_a2, n, xs + s) for s in (h, -h))
    fd = (psi_plus - psi_minus) / (2.0 * h)
    keep = np.abs(psi) > 1e-8 * np.max(np.abs(psi))
    assert np.all(np.abs(d - fd)[keep] <= 1e-6 * np.maximum(np.abs(d), np.abs(fd))[keep])


# ---------------------------------------------------------------- continuum

def test_continuum_state_examples():
    p2 = ModelParams(a=2.0)
    st = model.continuum_state(p2, 3.0)
    assert st.c0 == 24.0
    assert st.q == pytest.approx(math.sqrt(31.0), rel=1e-15)
    assert st.mu == pytest.approx(complex(1.0, math.sqrt(31.0)))
    assert st.gamma == pytest.approx(complex(-3.5, 0.5 * math.sqrt(31.0)))

    p1 = ModelParams(a=1.0)
    st = model.continuum_state(p1, 1.0)
    assert st.c0 == 2.0
    assert st.q == pytest.approx(math.sqrt(3.0), rel=1e-15)


@pytest.mark.parametrize("a", [0.7072, 0.75, 1.0, 2.0, 30.0])
def test_continuum_threshold_keeps_gamma_off_the_real_axis(a):
    # the first float above V_inf (1 + 1/(4 b^4)) with q^2 > 0 still gives
    # Im gamma = q/2 far above the 1e-12 within which kummer_1f1_scaled
    # refuses a terminating series, and mu = 1 + iq is no pole
    p = ModelParams(a=a)
    e = model.well_depth(p) * (1.0 + 0.25 / (p.b2 * p.b2))
    while True:
        try:
            st = model.continuum_state(p, e)
            break
        except BelowContinuum:
            e = math.nextafter(e, math.inf)
    assert abs(st.gamma.imag) > 1e-12 and st.mu.imag > 1e-12
    assert cmath.isfinite(specfun.kummer_1f1_scaled(st.gamma, st.mu, 0.01)[1])


def test_continuum_rejections(params_a2):
    with pytest.raises(BelowContinuum):
        model.continuum_state(params_a2, model.well_depth(params_a2))
    # thin band above the plateau where q^2 <= 0
    with pytest.raises(BelowContinuum):
        model.continuum_state(params_a2, 2.01)


def test_continuum_domain_error(params_a2):
    st = model.continuum_state(params_a2, 3.0)
    with pytest.raises(DomainError):
        model.continuum_wavefunction(st, params_a2, -2.0)


def test_continuum_near_wall_raises_nonconvergence(params_a2):
    # e^z growth of the Kummer series beats the e^(-z/2) prefactor near the
    # wall; in floating point the series overflows and the evaluator refuses
    st = model.continuum_state(params_a2, 3.0)
    with pytest.raises(NonConvergence):
        model.continuum_wavefunction(st, params_a2, -2.0 + 2e-4)


@pytest.mark.parametrize("frac", [1.25, 1.5, 2.0])
def test_continuum_ode_residual(params_a2, frac):
    e = frac * model.well_depth(params_a2)
    st = model.continuum_state(params_a2, e)
    psi = lambda x: model.continuum_wavefunction_with_derivatives(st, params_a2, x)
    for x in np.linspace(-2.0 + 0.05, 14.0, 40):
        assert oracle.ode_residual(params_a2, psi, e, float(x)) <= 1e-6


def test_continuum_derivative_consistency(params_a2):
    st = model.continuum_state(params_a2, 3.0)
    h = 1e-5
    for x in (-1.0, 0.5, 2.0, 7.0):
        v, d1, d2 = model.continuum_wavefunction_with_derivatives(st, params_a2, x)
        assert v == pytest.approx(model.continuum_wavefunction(st, params_a2, x), rel=1e-13)
        fd = (
            model.continuum_wavefunction(st, params_a2, x + h)
            - model.continuum_wavefunction(st, params_a2, x - h)
        ) / (2.0 * h)
        assert abs(d1 - fd) <= 1e-7 * max(abs(d1), abs(fd))


def test_continuum_derivatives_near_the_float_ceiling():
    # 1F1 is about 1e305 here and dz about -1.2e4: the derivative
    # combinations overflowed, and inf - inf made psi' and psi'' NaN
    p = ModelParams(m0=1.1935946360922827, omega=0.904459361662152,
                    hbar=1.1512635808456528, a=2.9318389391856883)
    e = 1.9365413279563122 * model.well_depth(p)
    st = model.continuum_state(p, e)
    x = -2.8690331019395243
    values = model.continuum_wavefunction_with_derivatives(st, p, x)
    assert all(cmath.isfinite(v) for v in values)
    assert values[0] == pytest.approx(model.continuum_wavefunction(st, p, x), rel=1e-13)
    psi = lambda t: model.continuum_wavefunction_with_derivatives(st, p, t)
    assert oracle.ode_residual(p, psi, e, x) <= 1e-6


def test_continuum_derivatives_where_the_shifted_series_overflows():
    # 1F1(gamma+2; mu+2; z) passes the float ceiling here, so psi'' cannot
    # be formed from it; the second-derivative row of the Kummer pass stays
    # at the scale of 1F1 and is finite
    p = ModelParams(m0=0.8036636425628807, omega=1.0583284126759975,
                    hbar=0.8822517611399388, a=6.640185800703747)
    e = 2.6686308611205227 * model.well_depth(p)
    st = model.continuum_state(p, e)
    x = -6.016991990732793
    psi = lambda t: model.continuum_wavefunction_with_derivatives(st, p, t)
    assert all(cmath.isfinite(v) for v in psi(x))
    assert oracle.ode_residual(p, psi, e, x) <= 1e-6


def test_continuum_derivatives_far_out():
    # z = 2b^2/s falls below 1e-153 from x = 1e155 on at a = 3, where the
    # weight k(k+1)/z^2 of the Kummer pass's d^2/dz^2 row overflows: the
    # derivatives come from the shifted series there and stay finite
    p = ModelParams(a=3.0)
    st = model.continuum_state(p, 1.7 * model.well_depth(p))
    for x in (1e150, 1e155, 1e200, 1e300):
        values = model.continuum_wavefunction_with_derivatives(st, p, x)
        assert all(cmath.isfinite(v) for v in values), x
        assert values[0] == model.continuum_wavefunction(st, p, x)


@pytest.mark.xfail(
    strict=True,
    reason="The Kummer sum at z = 179.6 passes the cancellation guard (1e-13 of its peak partial "
    "sum) with too few digits left for psi'': ROADMAP item 3 triggers a higher-precision retry "
    "on the digits the result needs.",
)
def test_continuum_residual_where_the_cancellation_guard_lets_too_few_digits_through():
    p = ModelParams(a=13.973114)  # b^2 = 195.25
    st = model.continuum_state(p, 1.7365 * model.well_depth(p))
    psi = lambda t: model.continuum_wavefunction_with_derivatives(st, p, t)
    assert oracle.ode_residual(p, psi, st.energy, 1.1742 * p.a) <= 1e-6


def test_continuum_derivatives_refused_where_they_leave_the_float_range():
    # at E = 1e305 the chain-rule factor dw ~ q / (x+a) is about 1e155 near
    # the wall, so psi'' is out of range however 1F1 is scaled
    p = ModelParams(a=2.0)
    st = model.continuum_state(p, 1e305)
    with pytest.raises(NonConvergence, match="leave the float range"):
        model.continuum_wavefunction_with_derivatives(st, p, -1.95)
    assert all(cmath.isfinite(v) for v in model.continuum_wavefunction_with_derivatives(st, p, -1.5))


@pytest.mark.parametrize("constants", [
    dict(hbar=1e-300, a=1e-150),            # hbar^2 underflows
    dict(m0=1e300, a=1e-150),               # (x+a)^3 underflows
    dict(m0=1e-220, hbar=1e-100, a=1e60),   # (a/hbar)^2 overflows, (hbar/a)^2 is subnormal
], ids=["tiny-hbar", "huge-m0", "huge-a-over-hbar"])
def test_continuum_with_extreme_constants(constants):
    # (lambda0 a)^2 = 1 and E = 2 V_inf, so q = sqrt(3) and psi at x = (s-1) a
    # is the unit-constant a = 1 state at x = s - 1, its derivatives scaled
    # by 1/a and 1/a^2; a value that leaves the float range is refused
    p, unit = ModelParams(**constants), ModelParams(a=1.0)
    assert p.b2 == pytest.approx(1.0, rel=1e-15)
    e = 2.0 * model.well_depth(p)
    st = model.continuum_state(p, e)
    assert st.q == pytest.approx(math.sqrt(3.0), rel=1e-14)
    # the energy of a wavenumber is the unit-constant one in units of V_inf
    for q in (0.5, 2.0, 30.0):
        got = model.wavenumber_state(p, q).energy / model.well_depth(p)
        ref = model.wavenumber_state(unit, q).energy / model.well_depth(unit)
        assert got == pytest.approx(ref, rel=1e-14), q
    unit_state = model.continuum_state(unit, 2.0 * model.well_depth(unit))
    psi = lambda t: model.continuum_wavefunction_with_derivatives(st, p, t)
    finite = 0
    for s in (0.01, 0.05, 0.3, 1.0, 3.0, 10.0):
        x = (s - 1.0) * p.a
        try:
            values = psi(x)
        except NonConvergence:
            continue
        finite += 1
        assert all(cmath.isfinite(v) for v in values)
        assert oracle.ode_residual(p, psi, e, x) <= 1e-6
        expected = model.continuum_wavefunction_with_derivatives(unit_state, unit, s - 1.0)
        for j, (got, ref) in enumerate(zip(values, expected)):
            assert got * p.a**j == pytest.approx(ref, rel=1e-12), (s, j)
    assert finite >= 4


def test_continuum_states_take_scalars_and_arrays(params_a2):
    # a float, a numpy scalar and a 0-d array give Python complex numbers; a
    # one-point array gives arrays of one element; an array of any shape
    # gives arrays of its shape, each element its position's scalar value
    st = model.continuum_state(params_a2, 3.0)
    psi = lambda t: model.continuum_wavefunction_with_derivatives(st, params_a2, t)
    x = 0.5
    value, triple = model.continuum_wavefunction(st, params_a2, x), psi(x)
    residual = oracle.ode_residual(params_a2, psi, 3.0, x)
    assert type(value) is complex and all(type(v) is complex for v in triple)
    assert type(residual) is float
    for scalar in (np.float64(x), np.array(x)):
        assert model.continuum_wavefunction(st, params_a2, scalar) == value
        assert psi(scalar) == triple
        assert oracle.ode_residual(params_a2, psi, 3.0, scalar) == residual
    one = np.array([x])
    assert model.continuum_wavefunction(st, params_a2, one).tolist() == [value]
    assert [v.tolist() for v in psi(one)] == [[v] for v in triple]
    assert oracle.ode_residual(params_a2, psi, 3.0, one).tolist() == [residual]
    empty = np.array([])
    assert model.continuum_wavefunction(st, params_a2, empty).shape == (0,)
    assert [v.shape for v in psi(empty)] == [(0,)] * 3
    assert oracle.ode_residual(params_a2, psi, 3.0, empty).shape == (0,)
    grid = np.array([[-1.5, 0.5, 3.0], [7.0, 0.5, -0.25]])
    values = model.continuum_wavefunction(st, params_a2, grid)
    rows = psi(grid)
    residuals = oracle.ode_residual(params_a2, psi, 3.0, grid)
    assert values.shape == residuals.shape == grid.shape and all(v.shape == grid.shape for v in rows)
    for index, t in np.ndenumerate(grid):
        assert values[index] == model.continuum_wavefunction(st, params_a2, t)
        assert tuple(v[index] for v in rows) == psi(t)
        assert residuals[index] == oracle.ode_residual(params_a2, psi, 3.0, t)


def test_continuum_array_refusals(params_a2):
    # a position behind the wall, or one whose Kummer series overflows, makes
    # the whole array call raise what that position raises alone
    st = model.continuum_state(params_a2, 3.0)
    for bad, error in ((-2.0, DomainError), (-2.0 + 2e-4, NonConvergence)):
        with pytest.raises(error) as alone:
            model.continuum_wavefunction(st, params_a2, bad)
        with pytest.raises(error) as among:
            model.continuum_wavefunction(st, params_a2, np.array([0.5, bad, 1.0]))
        assert str(among.value) == str(alone.value)
    with pytest.raises(DomainError):
        oracle.ode_residual(params_a2, lambda t: (t, t, t), 3.0, np.array([0.5, -2.0]))


def test_continuum_check_sums_each_energy_in_one_pass(monkeypatch):
    # the 120 positions of each of the check's 3 energies share one Kummer pass
    calls = []
    kummer = specfun.kummer_1f1_scaled

    def spy(*args, **kwargs):
        calls.append(np.shape(args[2]))
        return kummer(*args, **kwargs)

    monkeypatch.setattr(specfun, "kummer_1f1_scaled", spy)
    assert checks.check_continuum_residual().passed
    assert calls == [(120,)] * 3


# ---------------------------------------------------------------- factorization

def test_alpha0_values():
    assert model.alpha0(ModelParams(a=1.0), 0.0) == 0.0
    assert model.alpha0(ModelParams(a=2.0), 0.0) == 0.0
    assert model.alpha0(ModelParams(a=2.0), 2.0) == -0.5
    with pytest.raises(DomainError):
        model.alpha0(ModelParams(a=1.0), -1.0)


def test_lowering_annihilates_ground_state(params_a2):
    xs = np.linspace(-1.9, 14.0, 50)
    psi, dpsi, _ = model.wavefunction_with_derivatives(params_a2, 0, xs)
    keep = np.abs(psi) >= 1e-280
    lowered = model.apply_lowering(params_a2, xs[keep], psi[keep], dpsi[keep])
    assert np.all(np.abs(lowered) <= 1e-12 * np.abs(psi[keep]))


def test_lowering_on_constant(params_a2):
    c = 0.7
    xs = np.array([-1.5, 1.1, 6.0])
    # sqrt(hbar^2 / (2 M) / hbar w) = (x + a) / (sqrt(2) lambda0 a)
    s = 1.0 + xs / params_a2.a
    expected = -np.sqrt(s * s / (2.0 * params_a2.lambda0**2)) * model.alpha0(params_a2, xs) * c
    lowered = model.apply_lowering(params_a2, xs, np.full(3, c), np.zeros(3))
    assert lowered == pytest.approx(expected, rel=1e-15)
    scalar = model.apply_lowering(params_a2, 1.1, c, 0.0)
    assert type(scalar) is float and scalar == pytest.approx(expected[1], rel=1e-15)


def _alpha0_prime(p, x):
    xa = x + p.a
    return p.b2 / xa**2 - 2.0 * p.wall_scale / xa**3


@pytest.mark.parametrize("n", range(4))
def test_hamiltonian_factorization(params_a2, n):
    # hbar w (A+ A- + 1/2) psi_n = E_n psi_n with analytic derivatives
    p = params_a2
    hw = p.hbar * p.omega
    e_n = model.energy(p, n).energy
    for x in np.linspace(-1.8, 12.0, 50):
        x = float(x)
        psi, dpsi, d2psi = model.wavefunction_with_derivatives(p, n, x)
        if psi == 0.0:
            continue
        a0 = model.alpha0(p, x)
        s = (x + p.a) / (math.sqrt(2.0) * p.lambda0 * p.a)  # sqrt(hbar^2 / (2 M) / hbar w)
        ds = s / (x + p.a)
        g = s * (dpsi - a0 * psi)
        dg = ds * (dpsi - a0 * psi) + s * (d2psi - _alpha0_prime(p, x) * psi - a0 * dpsi)
        h_psi = hw * (-((ds * g + s * dg) + a0 * s * g) + 0.5 * psi)
        assert abs(h_psi - e_n * psi) <= 1e-10 * max(abs(e_n * psi), 1e-30)


def test_lowering_excited_state_not_proportional(params_a2):
    # the ladder algebra of the variable-mass well does not close: A- psi_1
    # is not a multiple of psi_0 (unlike the canonical oscillator)
    xs = np.linspace(-1.5, 10.0, 40)
    psi1, dpsi1, _ = model.wavefunction_with_derivatives(params_a2, 1, xs)
    psi0 = model.wavefunction(params_a2, 0, xs)
    keep = np.abs(psi0) >= 1e-6 * np.max(np.abs(psi0))
    ratios = model.apply_lowering(params_a2, xs, psi1, dpsi1)[keep] / psi0[keep]
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    assert spread > 0.5


def test_bool_level_is_refused(params_a2):
    with pytest.raises(LevelOutOfRange):
        model.energy(params_a2, True)


@pytest.mark.parametrize("a", [1.0, 2.3, 6.3, 30.0])
def test_ladder_of_an_array_is_its_scalar_values(a):
    # one pass over an array of levels gives each level's scalar values, bit
    # for bit: E_n, the oscillator's level and the gap
    p = ModelParams(a=a, m0=1.3, omega=0.7, hbar=1.1)
    levels = np.arange(model.max_level(p) + 1)
    rows = model.ladder(p, levels)
    assert rows.tolist() == [list(col) for col in zip(*(model.ladder(p, n) for n in levels.tolist()))]
    assert model.level_energy(p, levels).tolist() == [model.energy(p, n).energy for n in levels.tolist()]
    assert limits.energy_gap(p, levels[::-1]).tolist() == [limits.energy_gap(p, n) for n in levels[::-1].tolist()]


def test_bound_states_refuse_in_level_order():
    # E_0 leaves the float range and level 5 is not bound: the first of
    # the two in the order asked for is refused, as a loop over them would
    p = ModelParams(a=1.0, omega=1.8e154, hbar=3e154)
    with pytest.raises(DomainError, match="the energy of level 0"):
        model.bound_states(p, (0, 5))
    with pytest.raises(LevelOutOfRange, match="level n=5"):
        model.bound_states(p, (5, 0))
    with pytest.raises(LevelOutOfRange, match="level n=1.5"):
        model.bound_states(ModelParams(a=3.0), [2, 1.5])


@pytest.mark.parametrize("x", [math.nan, np.array([0.5, math.nan])])
def test_nan_position_is_refused(x):
    # named as what it is, not as a position at or behind the wall
    p = ModelParams(a=2.0)
    state = model.continuum_state(p, 3.0)
    for fn in (
        model.potential, model.effective_mass, model.alpha0,
        lambda p, x: model.wavefunction(p, 1, x),
        lambda p, x: model.wavefunction(p, 1, x, WavefunctionForm.LAGUERRE),
        lambda p, x: model.wavefunction_with_derivatives(p, 1, x),
        lambda p, x: model.continuum_wavefunction(state, p, x),
        lambda p, x: model.continuum_wavefunction_with_derivatives(state, p, x),
    ):
        with pytest.raises(DomainError, match="not a number"):
            fn(p, x)


def test_lowering_at_infinity_refuses_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            model.apply_lowering(ModelParams(a=3.0), math.inf, 0.0, 0.0)
