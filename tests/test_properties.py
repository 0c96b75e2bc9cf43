"""Property tests of the array-native bound-state core and of the eigensolver,
over drawn parameters and matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdem import checks, limits, model, oracle, specfun
from pdem.errors import DomainError, NonConvergence, PolePivot
from pdem.model import ModelParams, WavefunctionForm

constants = st.floats(0.5, 2.0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(b2=st.floats(0.6, 40.0), m0=constants, omega=constants, hbar=constants,
       level=st.floats(0.0, 1.0))
def test_array_core(b2, m0, omega, hbar, level):
    p = ModelParams(m0=m0, omega=omega, hbar=hbar, a=math.sqrt(b2 * hbar / (m0 * omega)))
    n_max = model.max_level(p)
    n = min(int(level * (n_max + 1)), n_max)
    state = model.bound_states(p, (n,))
    # the default grid of `pdem wavefunction`
    xs = np.linspace(-p.a * (1.0 - 1e-3), p.a + 8.0 / p.lambda0, 201)
    psi = state.psi(xs)[0]
    # the scalar wrapper runs the same core: equal bit for bit (NaN would fail)
    assert psi.tolist() == [model.wavefunction(p, n, x) for x in xs.tolist()]
    # pointwise relative error is ill-posed at the nodes of psi, so the two
    # closed forms are compared on the scale of the grid's largest value
    laguerre = state.psi(xs, WavefunctionForm.LAGUERRE)[0]
    assert np.max(np.abs(psi - laguerre)) <= 1e-10 * np.max(np.abs(psi))
    assert abs(checks.bound_overlap(p, n_max, n_max) - 1.0) <= 1e-10


def bits(values):
    """The bytes of a float array or scalar, so that equality is bit for bit."""
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(b2=st.floats(0.6, 40.0), m0=constants, omega=constants, hbar=constants,
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_bound_states_rows_bit_identical(b2, m0, omega, hbar, fractions):
    # levels unordered and with repeats, as drawn fractions of the level count
    p = ModelParams(m0=m0, omega=omega, hbar=hbar, a=math.sqrt(b2 * hbar / (m0 * omega)))
    n_max = model.max_level(p)
    levels = [min(int(f * (n_max + 1)), n_max) for f in fractions]
    xs = np.linspace(-p.a * (1.0 - 1e-3), p.a + 8.0 / p.lambda0, 101)
    states = model.bound_states(p, levels)
    psi = states.psi(xs)
    laguerre = states.psi(xs, WavefunctionForm.LAGUERRE)
    rows = states.psi_with_derivatives(xs)
    assert psi.shape == laguerre.shape == (len(levels), xs.size)
    # one recurrence up to the highest level gives each level bit for bit what
    # a recurrence stopping at it gives, and the Laguerre rows are each
    # level's own
    for i, n in enumerate(levels):
        assert bits(psi[i]) == bits(model.wavefunction(p, n, xs))
        assert bits(laguerre[i]) == bits(model.wavefunction(p, n, xs, WavefunctionForm.LAGUERRE))
        for got, want in zip(rows, model.wavefunction_with_derivatives(p, n, xs)):
            assert bits(got[i]) == bits(want)
    # a scalar position gives one value per level
    x = float(xs[50])
    assert bits(states.psi(x)) == bits([model.wavefunction(p, n, x) for n in levels])


def first_pole_step(alpha, top):
    """The first recurrence step k in 1 .. top-1 whose factor k+alpha+1 or
    2k+alpha lies within the pole margin, or top if none does."""
    for k in range(1, top):
        if min(abs(k + alpha + 1.0), abs(2.0 * k + alpha)) < specfun._BESSEL_POLE_MARGIN:
            return k
    return top


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(step=st.integers(1, 6), twice=st.booleans(),
       offset=st.floats(-0.9 * specfun._BESSEL_POLE_MARGIN, 0.9 * specfun._BESSEL_POLE_MARGIN),
       degrees=st.lists(st.integers(0, 14), min_size=1, max_size=10),
       derivatives=st.booleans())
def test_bessel_rows_near_a_pole(step, twice, offset, degrees, derivatives):
    # alpha within the margin of a pole of step k's denominator: a request
    # whose recurrence would pass the first such step is refused, and the
    # degrees up to it still come from the recurrence, every row the
    # one-degree result bit for bit
    alpha = (-2.0 * step if twice else -(step + 1.0)) + offset
    x = np.linspace(0.05, 2.0, 9)
    pole = first_pole_step(alpha, 14)
    assert pole <= step
    with pytest.raises(PolePivot):
        specfun.bessel_poly_rows(degrees + [13, 14, 14, 0], alpha, x, derivatives)
    with pytest.raises(PolePivot):
        specfun.bessel_poly_rows((pole + 1,), alpha, x)
    served = [n for n in degrees if n <= pole] + [pole, pole, 0]
    rows = specfun.bessel_poly_rows(served, alpha, x, derivatives)
    for i, n in enumerate(served):
        single = specfun.bessel_poly_rows((n,), alpha, x, derivatives)
        for got, want in zip(rows[: 4 if derivatives else 2], single):
            assert bits(got[i]) == bits(want[0])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(b2=st.floats(0.6, 40.0).filter(lambda v: v != round(v)),
       n=st.integers(0, 60), excess=st.floats(0.0, 1.0), x=st.floats(-1.0, 1.0))
def test_no_caller_reaches_a_bessel_pole(b2, n, excess, x):
    # every level of a fractional b^2, and the Hermite limit at nu just
    # above 2n+1, keep the recurrence clear of its poles
    p = ModelParams(a=math.sqrt(b2))
    states = model.bound_states(p, range(model.max_level(p) + 1))
    xs = np.linspace(-p.a * (1.0 - 1e-3), p.a + 8.0 / p.lambda0, 21)
    assert np.isfinite(states.psi(xs)).all()
    assert all(np.isfinite(v).all() for v in states.psi_with_derivatives(xs))
    nu = math.nextafter(2.0 * n + 1.0, math.inf) + excess
    assert math.isfinite(limits.scaled_bessel(n, x, nu))


def sturm_count(matrix, x):
    """Eigenvalues of matrix below x, from the signs of the LDL^T pivots."""
    below, q = 0, 1.0
    e2 = [0.0] + (matrix.off**2).tolist()
    for d, e in zip(matrix.diag.tolist(), e2):
        q = d - x - e / q
        if q < 0.0:
            below += 1
        elif q == 0.0:
            q = 1e-300
    return below


def assert_certified_levels(matrix, k):
    """The k lowest eigenvalues agree with LAPACK's dense solver, and Sturm
    counts at 1e-12 relative on either side put level j between them."""
    got = oracle.lowest_eigenvalues(matrix, k)
    dense = np.diag(matrix.diag) + np.diag(matrix.off, 1) + np.diag(matrix.off, -1)
    ref = np.linalg.eigvalsh(dense)[:k]
    assert np.all(np.abs(np.array(got) - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
    for j, lam in enumerate(got):
        tol = 1e-12 * max(1.0, abs(lam))
        assert sturm_count(matrix, lam - tol) <= j < sturm_count(matrix, lam + tol)


@st.composite
def tridiagonals(draw):
    """Random, clustered, reducible, multiple-level and negative-spectrum
    matrices."""
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(("random", "clustered", "reducible", "multiple", "negative")))
    entries = st.floats(-10.0, 10.0)
    diag = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    off = np.array(draw(st.lists(entries, min_size=n - 1, max_size=n - 1)))
    if kind == "clustered":  # groups of levels within about 1e-6 of each other
        diag = 5.0 * np.round(diag / 5.0) + 1e-9 * diag
        off = 1e-7 * off
    elif kind == "reducible":  # zero couplings, repeated diagonal values
        diag = np.round(diag)
        off[:: draw(st.integers(1, 3))] = 0.0
    elif kind == "multiple":  # copies of one block: each of its levels repeated
        size = draw(st.integers(1, 3))
        diag = np.resize(diag[:size], n)
        off = np.resize(np.append(off[: size - 1], 0.0), n - 1)
    elif kind == "negative":
        diag = diag - 50.0
    return oracle.Tridiagonal(diag, off)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(matrix=tridiagonals(), fraction=st.floats(0.0, 1.0))
def test_lowest_eigenvalues_certified(matrix, fraction):
    assert_certified_levels(matrix, 1 + int(fraction * (matrix.dimension - 1)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(matrix=tridiagonals(), fraction=st.floats(0.0, 1.0))
@pytest.mark.filterwarnings("error")
def test_lowest_eigenvalues_certified_through_every_reduction_level(matrix, fraction):
    # with the cutoff at 2 every drawn matrix is reduced down to 2 rows or
    # fewer, so every level of the odd-even reduction gives counts and sums
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_REDUCE_CUTOFF", 2)
        assert_certified_levels(matrix, 1 + int(fraction * (matrix.dimension - 1)))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(b2=st.floats(2.05, 12.0).filter(lambda v: v != round(v)), rows=st.integers(100, 400))
def test_fd_levels_certified(b2, rows):
    # the bound levels of the finite-difference matrix at fractional b^2
    p = ModelParams(a=math.sqrt(b2))
    grid = oracle.Grid(x_min=-p.a * (1.0 - 1e-3), x_max=p.a + 30.0 / p.lambda0, count=rows)
    assert_certified_levels(oracle.build_hamiltonian(p, grid), model.max_level(p) + 1)


def cbits(values):
    """The bytes of a complex array or scalar, so that equality is bit for bit."""
    return np.asarray(values, dtype=complex).tobytes()


def outcome(fn, *args, **kwargs):
    """fn's result, or the message of the NonConvergence it raises."""
    try:
        return fn(*args, **kwargs), None
    except NonConvergence as exc:
        return None, str(exc)


def assert_array_call_is_each_scalar_call(array_call, scalar_call, xs, compare):
    """array_call(xs) refuses with one of the scalar refusals (that one, if
    it is the only one), or each of its elements is scalar_call at its
    position, compare(element index, array result, scalar result) holding."""
    singles = [outcome(scalar_call, x) for x in xs.tolist()]
    result, refusal = outcome(array_call, xs)
    refusals = [why for _, why in singles if why is not None]
    if refusals:
        assert refusal in refusals
        if len(refusals) == 1:
            assert refusal == refusals[0]
        return False
    assert refusal is None
    for i, (single, _) in enumerate(singles):
        compare(i, result, single)
    return True


@st.composite
def kummer_parameters(draw):
    """(a, b): general complex parameters, terminating a, and the continuum's
    gamma = (1 - 2b^2)/2 + iq/2, mu = 1 + iq."""
    kind = draw(st.sampled_from(("general", "terminating", "continuum")))
    if kind == "continuum":
        b2, q = draw(st.floats(0.6, 64.0)), draw(st.floats(0.3, 12.0))
        return complex(0.5 - b2, 0.5 * q), complex(1.0, q)
    b = complex(draw(st.floats(0.2, 6.0)), draw(st.floats(-25.0, 25.0)))
    if kind == "terminating":
        return -draw(st.integers(0, 40)), b
    return complex(draw(st.floats(-40.0, 12.0)), draw(st.floats(-12.0, 12.0))), b


def kummer_arguments(*bands):
    """Lists of z for kummer_1f1_scaled: 0 and [-60, 900], and the bands given."""
    return st.lists(st.one_of(st.just(0.0), st.floats(-60.0, 900.0), *bands), min_size=1, max_size=12)


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(params=kummer_parameters(), derivatives=st.booleans(),
       zs=st.one_of(kummer_arguments(), kummer_arguments(st.floats(900.0, 8000.0)),
                    kummer_arguments(st.floats(-1e-153, 1e-153))),
       chunk_cap=st.sampled_from((None, 5, 64)))
def test_kummer_array_is_each_scalar_bit_for_bit(params, derivatives, zs, chunk_cap):
    # one pass over an array of z gives each point's exponent and mantissas
    # bit for bit as a scalar call does, whatever the chunk bounds, or
    # refuses with a point's own refusal; a terminating series is refused
    # at the array and at each point alike.  z reaches past 900, where most
    # sums overflow, and below 1e-153, where the derivative rows come from
    # the shifted series
    a, b = params
    xs = np.array(zs)
    m = round(a.real) if abs(a.imag) <= 1e-12 else 1
    if m <= 0 and abs(a.real - m) <= 1e-12:  # a terminating series
        for z in (xs, *xs.tolist()):
            with pytest.raises(DomainError, match="its series terminates"):
                specfun.kummer_1f1_scaled(a, b, z, derivatives)
        return

    def compare(i, result, single):
        exponents, values = result
        assert exponents[i] == single[0] and isinstance(single[0], int)
        for got, want in zip(values if derivatives else (values,),
                             single[1] if derivatives else (single[1],)):
            assert cbits(got[i]) == cbits(want)

    with pytest.MonkeyPatch.context() as patch:
        if chunk_cap is not None:
            patch.setattr(specfun, "_KUMMER_CHUNK_CAP", chunk_cap)
        assert_array_call_is_each_scalar_call(
            lambda z: specfun.kummer_1f1_scaled(a, b, z, derivatives),
            lambda z: specfun.kummer_1f1_scaled(a, b, z, derivatives),
            xs, compare,
        )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(b2=st.floats(0.6, 40.0), m0=constants, omega=constants, hbar=constants,
       e_frac=st.floats(1.05, 3.0), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_continuum_states_array_is_each_scalar_bit_for_bit(b2, m0, omega, hbar, e_frac, fractions):
    # psi, psi', psi'' and the ODE residual at an array of positions, from
    # near the wall to 3a past it, are each position's scalar results
    p = ModelParams(m0=m0, omega=omega, hbar=hbar, a=math.sqrt(b2 * hbar / (m0 * omega)))
    try:
        state = model.continuum_state(p, e_frac * model.well_depth(p))
    except model.BelowContinuum:
        return
    xs = p.a * (np.array(fractions) ** 2 * 4.0 - 0.99)

    def compare_one(i, result, single):
        assert cbits(result[i]) == cbits(single)

    def compare_rows(i, result, single):
        for got, want in zip(result, single):
            assert cbits(got[i]) == cbits(want)

    def residual(x):
        psi = lambda t: model.continuum_wavefunction_with_derivatives(state, p, t)
        return oracle.ode_residual(p, psi, state.energy, x)

    def compare_residual(i, result, single):
        assert bits(result[i]) == bits(single) and isinstance(single, float)

    assert_array_call_is_each_scalar_call(
        lambda x: model.continuum_wavefunction(state, p, x),
        lambda x: model.continuum_wavefunction(state, p, x),
        xs, compare_one,
    )
    assert_array_call_is_each_scalar_call(
        lambda x: model.continuum_wavefunction_with_derivatives(state, p, x),
        lambda x: model.continuum_wavefunction_with_derivatives(state, p, x),
        xs, compare_rows,
    )
    assert_array_call_is_each_scalar_call(residual, residual, xs, compare_residual)
