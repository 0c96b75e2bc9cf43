"""Property test of the dimensionless core: every public quantity of a drawn
parameter set is the one of the unit problem at the same b^2 (a = m0 =
hbar = 1, omega = b^2), scaled by V_inf, m0 and powers of a.

The constants m0, omega and hbar are drawn log-uniform over [1e-300, 1e300],
so the units range over hundreds of decades.  The scaled references are
formed in mpmath, where nothing overflows.  A bound quantity agrees with its
reference to 1e-12 relative, on the scale of its largest value over the
grid, wherever that scale is a normal float; past the float ceiling the call
raises a PdemError; below the normal range it may do either.  No call raises
anything else.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdem import canonical, checks, limits, model, oracle
from pdem.errors import NonConvergence, PdemError
from pdem.model import ModelParams

# b^2 of the table, and fractional draws in between
TABLE_B2 = (2.2, 5.3, 12.3, 40.7)
REL_TOL = 1e-12
CEILING, FLOOR = sys.float_info.max, sys.float_info.min
EPS = sys.float_info.epsilon
# The continuum tolerance is CONTINUUM_C eps (K r + |W| + 1): K terms of the
# Kummer series, r its cancellation ratio (largest partial sum over |1F1|),
# W the log prefactor.  Measured: at most 0.39 of it over 1 500 drawn sets,
# where the bound quantities were within 2.2e-13 of their references.
CONTINUUM_C = 16.0
# ODE residuals: measured at most 2.2e-13 for the bound states and 1.9e-9 for
# the continuum ones; the package states 1e-6 for both.
RESIDUAL_TOL = 1e-11
CONTINUUM_RESIDUAL_TOL = 1e-6

log_constant = st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)


def drawn_params(m0, omega, hbar, b2):
    """ModelParams with (lambda0 a)^2 = b2, or None where ModelParams
    refuses the constants."""
    log_a = 0.5 * (math.log(b2) + math.log(hbar) - math.log(m0) - math.log(omega))
    if not -700.0 < log_a < 700.0:
        return None
    try:
        return ModelParams(m0=m0, omega=omega, hbar=hbar, a=math.exp(log_a))
    except ValueError:
        return None


def expect_scaled(call, refs, scale, what):
    """call() against refs (values of the unit problem) times scale (mpf),
    on the scale of the largest |reference|: within REL_TOL of it where that
    is a normal float, a PdemError past the ceiling, either below the floor.
    A call that returns several quantities together takes lists of refs and
    scales, and may refuse them all where one leaves the float range."""
    if not isinstance(scale, list):
        refs, scale, single = [refs], [scale], True
    else:
        single = False
    refs = [[mpmath.mpf(v) * k for v in np.ravel(r).tolist()] for r, k in zip(refs, scale)]
    tops = [max(abs(v) for v in r) for r in refs]
    try:
        got = call()
    except PdemError:
        assert any(t > CEILING * (1.0 - REL_TOL) or t < FLOOR * (1.0 + REL_TOL) for t in tops), what
        return
    assert all(t < CEILING * (1.0 + REL_TOL) for t in tops), what
    for g, r, top in zip([got] if single else got, refs, tops):
        if top < FLOOR * (1.0 + REL_TOL):
            continue
        g = np.ravel(g).tolist()
        assert len(g) == len(r), what
        for u, v in zip(g, r):  # a value below the normal range may flush to 0
            assert abs(mpmath.mpf(u) - v) <= max(REL_TOL * top, FLOOR), (what, u, v)


def kummer_ratio(gamma, mu, z):
    """(terms, cancellation ratio) of 1F1(gamma; mu; z), summed term by term
    to the package's stopping rule."""
    total = term = complex(1.0)
    peak, small = 1.0, 0
    for k in range(100_000):
        term *= (gamma + k) / (mu + k) * z / (k + 1.0)
        total += term
        peak = max(peak, abs(total))
        small = small + 1 if abs(term) < 1e-16 * abs(total) else 0
        if small == 8:
            return k + 1, peak / abs(total)
    raise AssertionError("no convergence")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m0=log_constant, omega=log_constant, hbar=log_constant,
       b2=st.one_of(st.sampled_from(TABLE_B2), st.floats(0.55, 41.0)),
       e_excess=st.floats(0.1, 2.0))
def test_dimensionless_core(m0, omega, hbar, b2, e_excess):
    p = drawn_params(m0, omega, hbar, b2)
    assume(p is not None)
    check_dimensionless_core(p, e_excess)


def check_dimensionless_core(p, e_excess):
    """The comparisons of test_dimensionless_core for p, with continuum
    states at E / V_inf = 1 + 1/(4 b^4) + e_excess, above the band where q^2
    is not positive."""
    unit = ModelParams(m0=1.0, omega=p.b2, hbar=1.0, a=1.0)
    assert unit.b2 == p.b2
    a = mpmath.mpf(p.a)
    energy = mpmath.mpf(model.well_depth(p)) / mpmath.mpf(model.well_depth(unit))
    levels = list(model.bound_levels(p))
    assert levels == list(model.bound_levels(unit))

    # energies, gaps and the canonical ladder, in units of V_inf
    ref_canonical = canonical.CanonicalParams(m0=1.0, omega=p.b2, hbar=1.0)
    cp = canonical.CanonicalParams(m0=p.m0, omega=p.omega, hbar=p.hbar)
    for n in levels:
        expect_scaled(lambda: model.energy(p, n).energy, model.energy(unit, n).energy, energy, "E")
        expect_scaled(lambda: limits.energy_gap(p, n), limits.energy_gap(unit, n), energy, "gap")
        expect_scaled(lambda: canonical.canonical_energy(cp, n),
                      canonical.canonical_energy(ref_canonical, n), energy, "canonical E")

    # the profile and the factorization coefficients on the default grid of
    # pdem wavefunction, x = a xi
    xi = np.linspace(-0.999, 1.0 + 8.0 / math.sqrt(p.b2), 25)
    x = xi * p.a
    expect_scaled(lambda: model.potential(p, x), model.potential(unit, xi), energy, "V")
    expect_scaled(lambda: model.effective_mass(p, x), model.effective_mass(unit, xi),
                  mpmath.mpf(p.m0), "M")
    expect_scaled(lambda: model.alpha0(p, x), model.alpha0(unit, xi), 1 / a, "alpha0")

    # bound states and their derivatives: psi_n(x) = a^(-1/2) phi_n(x/a)
    top = levels[-1]
    states = model.bound_states(p, sorted({0, top // 2, top}))
    unit_rows = model.bound_states(unit, [level.n for level in states.levels])
    unit_triple = unit_rows.psi_with_derivatives(xi)
    expect_scaled(lambda: states.psi_with_derivatives(x), list(unit_triple),
                  [a ** (-0.5 - j) for j in range(3)], "psi, psi', psi''")
    expect_scaled(lambda: states.psi(x, model.WavefunctionForm.LAGUERRE),
                  unit_rows.psi(xi, model.WavefunctionForm.LAGUERRE), a ** -0.5, "psi Laguerre")
    # the lowering operator on psi_top and twice its derivative, which it
    # does not annihilate
    f, df = (2.0 ** j * v[-1] for j, v in enumerate(unit_triple[:2]))
    scaled = [float(mpmath.mpf(v) * a ** (-0.5 - j)) for j, w in enumerate((f, df)) for v in w]
    if all(map(math.isfinite, scaled)):  # the inputs of the scaled problem are floats
        pf, pdf = np.reshape(scaled, (2, -1))
        expect_scaled(lambda: model.apply_lowering(p, x, pf, pdf),
                      model.apply_lowering(unit, xi, f, df), a ** -0.5, "lowering")

    # the ODE residual is dimensionless: rounding noise wherever psi, psi'
    # and psi'' are normal floats (a triple flushed in part is not), up to
    # the ceiling, since the oracle scales them before it forms the terms of
    # the equation
    try:
        rows = states.psi_with_derivatives(x)
    except PdemError:
        rows = None
    for i, level in enumerate(states.levels if rows else ()):
        unit_values = np.abs([v[i] for v in unit_triple])
        scaled = [[mpmath.mpf(v) * a ** (-0.5 - j) for v in unit_values[j].tolist()] for j in range(3)]
        normal = np.all(unit_values >= FLOOR, axis=0)
        normal_p = np.array([FLOOR <= min(s[k] for s in scaled) and max(s[k] for s in scaled) <= CEILING
                             for k in range(xi.size)])
        e_unit = model.energy(unit, level.n).energy
        r_p = oracle.ode_residual(p, lambda _: tuple(v[i] for v in rows), level.energy, x)
        r_u = oracle.ode_residual(unit, lambda _: tuple(v[i] for v in unit_triple), e_unit, xi)
        assert np.all(r_p[normal_p] <= RESIDUAL_TOL), (level.n, r_p[normal_p].max())
        assert np.all(r_u[normal] <= RESIDUAL_TOL), (level.n, r_u[normal].max())

    # overlaps depend on b^2 alone: bit for bit those of the unit problem
    for m, n in sorted({(0, 0), (0, top), (top, top)}):
        assert checks.bound_overlap(p, m, n) == checks.bound_overlap(unit, m, n), (m, n)

    # continuum states at the same E / V_inf: psi_E is dimensionless.  Each
    # derivative is compared on the scale of its largest value over the
    # positions, within the tolerance of the Kummer sum there.
    e_frac = 1.0 + 0.25 / (p.b2 * p.b2) + e_excess
    if not math.isfinite(e_frac * model.well_depth(p)):
        with pytest.raises(PdemError):
            model.continuum_state(p, e_frac * model.well_depth(p))
        return
    state = model.continuum_state(p, e_frac * model.well_depth(p))
    unit_state = model.continuum_state(unit, e_frac * model.well_depth(unit))
    points = []
    for t in np.linspace(-0.98, 1.0 + 12.0 / math.sqrt(p.b2), 7).tolist():
        try:
            ref = model.continuum_wavefunction_with_derivatives(unit_state, unit, t)
        except NonConvergence:
            continue
        z = 2.0 * p.b2 / (1.0 + t)
        terms, ratio = kummer_ratio(unit_state.gamma, unit_state.mu, z)
        log_w = (-unit_state.gamma - p.b2) * math.log1p(t) - 0.5 * z
        tol = CONTINUUM_C * EPS * (terms * ratio + abs(log_w) + 1.0)
        points.append((t, [mpmath.mpc(r) * a ** -j for j, r in enumerate(ref)], tol))
    tops = [max([abs(r[j]) for _, r, _ in points], default=0) for j in range(3)]
    for t, refs, tol in points:
        try:
            got = model.continuum_wavefunction_with_derivatives(state, p, t * p.a)
        except PdemError:
            assert any(abs(r) > CEILING * (1.0 - tol) for r in refs), t
            continue
        for g, r, top in zip(got, refs, tops):
            assert top < CEILING * (1.0 + tol), t
            if top > FLOOR:  # a value below the normal range may flush to 0
                assert abs(mpmath.mpc(g) - r) <= max(tol * top, FLOOR), (t, g, r, tol)
        # the residual is formed in s, times a^2, so it is a float wherever
        # psi_E and its derivatives are
        residual = oracle.ode_residual(
            p, lambda s: model.continuum_wavefunction_with_derivatives(state, p, s), state.energy, t * p.a
        )
        if all(FLOOR < abs(r) <= CEILING for r in refs):  # as for the bound states
            assert residual <= CONTINUUM_RESIDUAL_TOL, t


def test_dimensionless_core_at_the_smallest_a():
    # a = 1.9e-153, near the smallest a whose a^2 is a normal float: psi_E''
    # at x = 0.95 a is 1.3e308, which the 1/a^2 of the chain rule, applied
    # before the prefactor, pushed past the ceiling
    p = ModelParams(m0=1.0, omega=4.656276961528286e+256, hbar=4.1863939993042314e-51,
                    a=1.9129245984009342e-153)
    state = model.continuum_state(p, (2.0 + 0.25 / (p.b2 * p.b2)) * model.well_depth(p))
    psi = lambda t: model.continuum_wavefunction_with_derivatives(state, p, t)
    assert 1.2e308 < abs(psi(0.95 * p.a)[2]) < CEILING
    # in x its potential term (b^4 x^2/(x+a)^2 - c0)/(x+a)^2 overflowed:
    # formed in s, times a^2, the residual is rounding noise (measured 6.4e-14)
    assert oracle.ode_residual(p, psi, state.energy, 0.95 * p.a) <= 1e-6
    check_dimensionless_core(p, 1.0)


@pytest.mark.parametrize("m0, a", [(1e-26, 1e13), (1e-30, 1e15)])
def test_overlap_at_huge_lambda0_squared_a_cubed(m0, a):
    # b^2 = 1, where l0^2 a^3 = 1e13 and 1e15: a lower end of the range fixed
    # in u = 1/(x+a) landed past the peak of the integrand (4.555e-7 instead
    # of 1) or above the upper end (ValueError); in v it is that of the unit
    # problem
    p = ModelParams(m0=m0, a=a)
    assert p.b2 == 1.0
    value = checks.bound_overlap(p, 0, 0)
    assert value == checks.bound_overlap(ModelParams(), 0, 0)
    assert abs(value - 1.0) <= 1e-14
