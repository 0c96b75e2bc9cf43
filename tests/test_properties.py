"""Property tests of the array-native bound-state core and of the eigensolver,
over drawn parameters and matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdem import checks, model, oracle
from pdem.model import ModelParams, WavefunctionForm

constants = st.floats(0.5, 2.0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(b2=st.floats(0.6, 40.0), m0=constants, omega=constants, hbar=constants,
       level=st.floats(0.0, 1.0))
def test_array_core(b2, m0, omega, hbar, level):
    p = ModelParams(m0=m0, omega=omega, hbar=hbar, a=math.sqrt(b2 * hbar / (m0 * omega)))
    n_max = model.max_level(p)
    n = min(int(level * (n_max + 1)), n_max)
    state = model.bound_state(p, n)
    # the default grid of `pdem wavefunction`
    xs = np.linspace(-p.a * (1.0 - 1e-3), p.a + 8.0 / p.lambda0, 201)
    psi = state.psi(xs)
    # the scalar wrapper runs the same core: equal bit for bit (NaN would fail)
    assert psi.tolist() == [model.wavefunction(p, n, x) for x in xs.tolist()]
    # pointwise relative error is ill-posed at the nodes of psi, so the two
    # closed forms are compared on the scale of the grid's largest value
    laguerre = state.psi(xs, WavefunctionForm.LAGUERRE)
    assert np.max(np.abs(psi - laguerre)) <= 1e-10 * np.max(np.abs(psi))
    assert abs(checks.bound_overlap(p, n_max, n_max) - 1.0) <= 1e-10


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
