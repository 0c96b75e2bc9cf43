import importlib.util
import math
import random
import re
import sys
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from pdem import checks, limits, model, oracle
from pdem.errors import DomainError, NonConvergence, ToleranceNotMet
from pdem.model import ModelParams
from pdem.oracle import Grid, Tridiagonal


# ---------------------------------------------------------------- grid

def test_grid_invariants():
    g = Grid(x_min=0.0, x_max=1.0, count=4)
    assert g.spacing == pytest.approx(0.2)
    assert np.allclose(g.points, [0.2, 0.4, 0.6, 0.8])
    with pytest.raises(ValueError):
        Grid(x_min=1.0, x_max=0.0, count=10)
    with pytest.raises(ValueError):
        Grid(x_min=0.0, x_max=1.0, count=2)


def test_grid_cap():
    # a Grid holds three numbers, so neither call allocates the points
    assert Grid(x_min=0.0, x_max=1.0, count=oracle.GRID_CAP).count == oracle.GRID_CAP
    with pytest.raises(ValueError, match="cap"):
        Grid(x_min=0.0, x_max=1.0, count=oracle.GRID_CAP + 1)


# ---------------------------------------------------------------- hamiltonian build

def test_build_rejects_wall_touching_grid(params_a2):
    with pytest.raises(DomainError):
        oracle.build_hamiltonian(params_a2, Grid(x_min=-2.0, x_max=5.0, count=10))


def test_constant_mass_reduction():
    # with a huge a the mass is constant m0 and V ~ 0, so the matrix reduces
    # to the standard [-1, 2, -1] * hbar^2/(2 m0 h^2) stencil
    p = ModelParams(a=1e8)
    g = Grid(x_min=-1e-4, x_max=1e-4, count=3)
    H = oracle.build_hamiltonian(p, g)
    k = p.hbar**2 / (2.0 * p.m0 * g.spacing**2)
    assert np.allclose(H.diag, 2.0 * k, rtol=1e-6)
    assert np.allclose(H.off, -k, rtol=1e-6)


def test_matrix_symmetry_is_structural(params_a2):
    # one stored off-diagonal serves both triangles, so symmetry is exact
    H = oracle.build_hamiltonian(params_a2, Grid(x_min=-1.9, x_max=10.0, count=500))
    assert H.off.shape == (499,)
    assert H.dimension == 500


# ---------------------------------------------------------------- graded u-grid

@pytest.mark.parametrize("kw", [
    {"a": 1.0},
    {"a": 10.0},
    {"a": 1e-100, "m0": 1e100, "omega": 1.0, "hbar": 1e-100},
    {"a": 3e80, "m0": 1e-80, "omega": 1e-80, "hbar": 1.0},
])
def test_graded_matrix_finite_and_symmetric(kw):
    # Tridiagonal refuses entries that are not finite, and its one stored
    # off-diagonal serves both triangles; every coupling is a negative
    # kinetic flux and every diagonal entry positive
    H = oracle.build_graded_hamiltonian(ModelParams(**kw), 1001)
    assert H.dimension == 1001 and H.off.shape == (1000,)
    assert np.all(H.off < 0.0) and np.all(H.diag > 0.0)


def test_graded_matrix_applies_the_operator(params_a2):
    # on psi = u^2 (u_max - u)^2, which vanishes at both ends, the matrix in
    # the unsymmetrized basis gives -k0 u^2 psi'' + V psi to second order
    p = params_a2
    u_max = (3.0 * p.b2 + 60.0) / p.wall_scale
    errors = []
    for rows in (999, 1999):
        H = oracle.build_graded_hamiltonian(p, rows)
        u = (math.sqrt(u_max) / (rows + 1) * np.arange(1, rows + 1)) ** 2
        psi = u**2 * (u_max - u) ** 2
        d2 = 2.0 * (u_max - u) ** 2 - 8.0 * u * (u_max - u) + 2.0 * u**2
        exact = -(p.hbar**2 / (2.0 * p.m0 * p.a**2)) * u**2 * d2 + model.potential(
            p, 1.0 / u - p.a
        ) * psi
        weight = u**-0.75  # sqrt(m_i), up to a constant
        phi = weight * psi
        applied = H.diag * phi
        applied[:-1] += H.off * phi[1:]
        applied[1:] += H.off * phi[:-1]
        errors.append(np.max(np.abs(applied / weight - exact)) / np.max(np.abs(exact)))
    assert errors[1] <= 1e-7  # measured 4.2e-8, at the wall end
    assert 3.9 <= errors[0] / errors[1] <= 4.1


@pytest.mark.parametrize("rows", [-7, 2, oracle.GRID_CAP + 1])
def test_graded_rows_out_of_range_exit_2(rows):
    # refused before anything is allocated, with the ValueError that the
    # CLI's handler turns into exit 2
    start = time.perf_counter()
    with pytest.raises(ValueError, match="interior points"):
        oracle.build_graded_hamiltonian(ModelParams(a=2.0), rows)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 2.3, 3.0])
def test_graded_levels_converge_at_second_order(a):
    # every level, the near-threshold ones included: the error falls fourfold
    # per halving of the spacing, and Richardson extrapolation of 2001 and
    # 4003 rows lands within 1e-8 (measured: 5.4e-10 at worst, a = 3, n = 8)
    p = ModelParams(a=a)
    exact = [model.energy(p, n).energy for n in range(model.max_level(p) + 1)]
    coarse, fine = (
        oracle.lowest_eigenvalues(oracle.build_graded_hamiltonian(p, rows), len(exact))
        for rows in (2001, 4003)
    )
    for c, f, e in zip(coarse, fine, exact):
        assert 3.99 <= abs(c - e) / abs(f - e) <= 4.01
        assert abs((4.0 * f - c) / 3.0 - e) <= 1e-8 * abs(e)


# ---------------------------------------------------------------- eigensolver

def test_two_by_two():
    m = Tridiagonal(diag=np.array([2.0, 2.0]), off=np.array([-1.0]))
    lams = oracle.lowest_eigenvalues(m, 2)
    assert lams[0] == pytest.approx(1.0, abs=5e-12)
    assert lams[1] == pytest.approx(3.0, abs=5e-12)


def test_diagonal_matrix():
    m = Tridiagonal(diag=np.array([5.0, 1.0, 3.0]), off=np.zeros(2))
    lams = oracle.lowest_eigenvalues(m, 1)
    assert lams[0] == pytest.approx(1.0, abs=5e-12)


def test_against_numpy_dense():
    rng = np.random.default_rng(7)
    d = rng.standard_normal(60)
    e = rng.standard_normal(59)
    m = Tridiagonal(diag=d, off=e)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.sort(np.linalg.eigvalsh(dense))
    got = oracle.lowest_eigenvalues(m, 5)
    assert np.allclose(got, ref[:5], atol=1e-10)


def dense_eigenvalues(m):
    return np.linalg.eigvalsh(np.diag(m.diag) + np.diag(m.off, 1) + np.diag(m.off, -1))


def test_laguerre_sums_match_the_spectrum():
    # one pass gives the count, sum 1/(lam_i - x) and sum 1/(lam_i - x)^2,
    # below the reduction cutoff and above it
    rng = np.random.default_rng(5)
    for n in (50, 1000):
        m = Tridiagonal(diag=rng.standard_normal(n), off=rng.standard_normal(n - 1))
        lams = dense_eigenvalues(m)
        for x in (lams[0] - 1.0, 0.5 * (lams[10] + lams[11]), lams[-1] + 0.3):
            for order in (0, 1, 2):
                count, g, h = oracle._sturm_pass(m.diag, m.off**2, x, 1e-292, order)
                assert count == np.count_nonzero(lams < x)
                if order >= 1:
                    assert g == pytest.approx(np.sum(1.0 / (lams - x)), rel=1e-10)
                if order == 2:
                    assert h == pytest.approx(np.sum(1.0 / (lams - x) ** 2), rel=1e-10)


def test_sturm_pass_at_a_diagonal_entry():
    # a shift at or next to an even diagonal entry makes a pivot of the
    # reduction zero or tiny; eliminating it would swamp the entries it leaves
    # with rounding (or inf), so the pass finishes in the natural order
    rng = np.random.default_rng(3)
    m = Tridiagonal(diag=np.round(3.0 * rng.standard_normal(400), 1), off=rng.standard_normal(399))
    lams = dense_eigenvalues(m)
    for x in m.diag[0:40:2]:
        for shift in (x, x + 1e-12, x - 1e-9):
            if np.min(np.abs(lams - shift)) > 1e-9:
                count, _, _ = oracle._sturm_pass(m.diag, m.off**2, shift, 1e-292, 0)
                assert count == np.count_nonzero(lams < shift)


@pytest.mark.filterwarnings("error")
def test_degenerate_reducible_matrix():
    # zero off-diagonal: the double eigenvalue 1 is never alone in a bracket,
    # so levels 0 and 1 finish by bisection
    m = Tridiagonal(diag=np.array([1.0, 1.0, 3.0]), off=np.zeros(2))
    assert np.allclose(oracle.lowest_eigenvalues(m, 3), dense_eigenvalues(m), atol=1e-10)


@pytest.mark.filterwarnings("error")
def test_wilkinson_w21_plus():
    # the top pairs of W21+ agree to about 1e-14
    m = Tridiagonal(diag=np.abs(np.arange(-10.0, 11.0)), off=np.ones(20))
    assert np.allclose(oracle.lowest_eigenvalues(m, 21), dense_eigenvalues(m), atol=1e-10)


@pytest.mark.filterwarnings("error")
def test_negative_spectrum():
    rng = np.random.default_rng(3)
    m = Tridiagonal(diag=rng.standard_normal(40) - 50.0, off=rng.standard_normal(39))
    ref = dense_eigenvalues(m)
    assert ref[-1] < 0.0
    assert np.allclose(oracle.lowest_eigenvalues(m, 40), ref, atol=1e-10)


def test_every_k_of_a_random_matrix():
    rng = np.random.default_rng(11)
    m = Tridiagonal(diag=rng.standard_normal(60), off=rng.standard_normal(59))
    ref = dense_eigenvalues(m)
    for k in range(1, 61):
        assert np.allclose(oracle.lowest_eigenvalues(m, k), ref[:k], atol=1e-10)


def count_passes(monkeypatch):
    """A list that gains one entry per pass over the rows, of any kind."""
    passes = []
    sweep = oracle._sturm_pass
    monkeypatch.setattr(oracle, "_sturm_pass", lambda *args: passes.append(1) or sweep(*args))
    return passes


def test_ground_level_sweep_count(monkeypatch):
    # passes over the rows for the ground level of an fd-spectrum matrix:
    # 3 Laguerre, 1 Newton and 2 count passes, where bisection alone takes 64
    p = ModelParams(a=math.sqrt(12.0))
    grid = Grid(x_min=-p.a + 1e-3 * p.a, x_max=p.a + 40.0 / p.lambda0, count=8000)
    H = oracle.build_hamiltonian(p, grid)
    passes = count_passes(monkeypatch)
    [lam] = oracle.lowest_eigenvalues(H, 1)
    assert len(passes) <= 8
    ref = scipy.linalg.eigh_tridiagonal(
        H.diag, H.off, eigvals_only=True, select="i", select_range=(0, 0), tol=1e-14
    )
    assert lam == pytest.approx(ref[0], rel=1e-11, abs=0.0)


def _mpmath_count(matrix, lam):
    """Eigenvalues below lam, from the LDL^T pivots in 40-digit arithmetic."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        below, q = 0, mpmath.mpf(1)
        off = [0.0] + matrix.off.tolist()
        for d, e in zip(matrix.diag.tolist(), off):
            q = mpmath.mpf(d) - lam - mpmath.mpf(e) ** 2 / q
            below += q < 0
    return below


@pytest.mark.parametrize("b2, rows", [(5.3, 2003), (7.0, 4378), (11.7, 2500)])
def test_fd_ground_level_against_mpmath_counts(b2, rows):
    # fd-spectrum matrices: exact counts of the float matrix hold the ground
    # level within 2e-12 relative; measured, 2e-13 holds all three and 1e-13
    # only b^2 = 5.3
    p = ModelParams(a=math.sqrt(b2))
    grid = Grid(x_min=-p.a + 1e-3 * p.a, x_max=p.a + 40.0 / p.lambda0, count=rows)
    H = oracle.build_hamiltonian(p, grid)
    [lam] = oracle.lowest_eigenvalues(H, 1)
    assert _mpmath_count(H, lam * (1.0 - 2e-12)) == 0
    assert _mpmath_count(H, lam * (1.0 + 2e-12)) == 1


def test_eigensolver_check_pass_budget(monkeypatch):
    # levels 0 and 1 on a 32000-row x-grid at a = 2 take 20 passes; Newton
    # steps after bisection took 34
    p = ModelParams(a=2.0)
    grid = Grid(x_min=-p.a + 1e-3 * p.a, x_max=140.0, count=32000)
    H = oracle.build_hamiltonian(p, grid)
    passes = count_passes(monkeypatch)
    lams = oracle.lowest_eigenvalues(H, 2)
    assert len(passes) <= 24
    ref = scipy.linalg.eigh_tridiagonal(
        H.diag, H.off, eigvals_only=True, select="i", select_range=(0, 1), tol=1e-14
    )
    # at 32000 rows rounding moves LAPACK's bisection by about 1e-11 relative
    np.testing.assert_allclose(lams, ref, rtol=1e-10, atol=0.0)


def test_graded_check_pass_budget(monkeypatch):
    # the two levels of the default eigensolver check take 25 passes.  Level
    # 1's Laguerre steps fail to halve under the dense continuum above V_inf,
    # and isolating it from the Gershgorin top, 8e5, takes 6 counts by
    # galloping, where halving took 22 (45 passes in all)
    H = oracle.build_graded_hamiltonian(ModelParams(a=2.0), 4001)
    passes = count_passes(monkeypatch)
    lams = oracle.lowest_eigenvalues(H, 2)
    assert len(passes) <= 28
    ref = scipy.linalg.eigh_tridiagonal(
        H.diag, H.off, eigvals_only=True, select="i", select_range=(0, 1), tol=1e-14
    )
    np.testing.assert_allclose(lams, ref, rtol=1e-11, atol=0.0)


def test_level_just_below_the_start_is_approached_from_above(monkeypatch):
    # level 1 lies 5e-5 below where its Laguerre steps start, 1e-3 above
    # level 0: the downward step from there takes it in one pass
    m = Tridiagonal(diag=[0.0, 0.95e-3, 5.0, 6.0], off=[1e-6, 1e-4, 1e-4])
    passes = count_passes(monkeypatch)
    lams = oracle.lowest_eigenvalues(m, 2)
    assert len(passes) <= 9
    assert np.allclose(lams, dense_eigenvalues(m)[:2], atol=1e-10)


def test_clustered_levels_pass_budget(monkeypatch):
    # three clusters of near-equal levels: Newton steps toward a cluster
    # converge only linearly, and bisection takes over when one fails to
    # halve, so no level comes near the cap of 200 sweeps
    rng = np.random.default_rng(0)
    diag = rng.choice([-9.0, -6.0, 0.0], 30) + 1e-6 * rng.standard_normal(30)
    m = Tridiagonal(diag=diag, off=1e-5 * rng.standard_normal(29))
    passes = count_passes(monkeypatch)
    starts = []
    eigenvalue = oracle._eigenvalue
    monkeypatch.setattr(
        oracle, "_eigenvalue", lambda *args: starts.append(len(passes)) or eigenvalue(*args)
    )
    lams = oracle.lowest_eigenvalues(m, 30)
    assert max(np.diff(starts + [len(passes)])) <= 80
    assert np.allclose(lams, dense_eigenvalues(m), atol=1e-10)


def test_multiple_level_at_zero(monkeypatch):
    # copies of a 3 x 3 block whose lowest level is 0, below the reduction
    # cutoff and above it: a Laguerre step toward the multiple level shrinks
    # the distance by only a few percent, so the second step fails to halve
    # the first and bisection takes over
    for copies in (60, 1000):
        m = Tridiagonal(np.full(3 * copies, math.sqrt(2.0)), np.tile([1.0, 1.0, 0.0], copies)[:-1])
        passes = count_passes(monkeypatch)
        lams = oracle.lowest_eigenvalues(m, 2)
        assert len(passes) <= 45  # 2 Laguerre and 41 count passes
        for lam in lams:
            assert abs(lam) <= 1e-12
            assert oracle._sturm_pass(m.diag, m.off**2, lam - 1e-12, 1e-292, 0)[0] == 0
            assert oracle._sturm_pass(m.diag, m.off**2, lam + 1e-12, 1e-292, 0)[0] == copies


def test_level_at_the_gershgorin_upper_end(monkeypatch):
    # level 2 equals the Gershgorin upper end, so that end does not bound it
    # strictly; taken as a count, it made Newton's iterates land on the
    # bracket's end, and the level took 20 passes that halved it like bisection
    m = Tridiagonal([1.0, 1.0, 3.0], [0.0, 0.0])
    passes = count_passes(monkeypatch)
    oracle.lowest_eigenvalues(m, 2)
    lower = len(passes)
    lam = oracle.lowest_eigenvalues(m, 3)[2]
    assert len(passes) - 2 * lower <= 6
    e2 = m.off**2
    assert oracle._sturm_pass(m.diag, e2, lam - 3e-12, 1e-292, 0)[0] == 2
    assert oracle._sturm_pass(m.diag, e2, lam + 3e-12, 1e-292, 0)[0] == 3


@pytest.mark.filterwarnings("error")
def test_overflowing_off_diagonal_is_refused():
    # the squares of the couplings are what the passes use
    with pytest.raises(ValueError, match="overflow"):
        oracle.lowest_eigenvalues(Tridiagonal([1.0, 2.0, 3.0], [1e200, 1.0]), 1)


def test_open_bracket_raises(monkeypatch):
    # a level whose bracket the sweep budget leaves open is an error, not an
    # uncertified midpoint; the estimate and bound still hold the level
    monkeypatch.setattr(oracle, "_MAX_SWEEPS", 3)
    m = Tridiagonal(diag=[0.0, 1.0, 2.0, 3.0], off=[1.0, 1.0, 1.0])
    with pytest.raises(ToleranceNotMet) as info:
        oracle.lowest_eigenvalues(m, 1)
    assert info.value.error_bound > 1e-12
    assert abs(info.value.estimate - dense_eigenvalues(m)[0]) <= info.value.error_bound


def test_eigenvectors_residual_and_normalization():
    # the bisection eigenvalues of a model Hamiltonian against LAPACK's dense solver
    grid = Grid(x_min=-1.9, x_max=30.0, count=2000)
    p = ModelParams(a=2.0)
    H = oracle.build_hamiltonian(p, grid)
    lams = oracle.lowest_eigenvalues(H, 3)
    assert lams == sorted(lams)
    dense = np.diag(H.diag) + np.diag(H.off, 1) + np.diag(H.off, -1)
    ref = np.linalg.eigvalsh(dense)[:3]
    assert np.allclose(lams, ref, rtol=1e-11, atol=0.0)


def test_eigenpairs_deterministic(params_a2):
    grid = Grid(x_min=-1.9, x_max=20.0, count=800)
    H = oracle.build_hamiltonian(params_a2, grid)
    assert oracle.lowest_eigenvalues(H, 2) == oracle.lowest_eigenvalues(H, 2)


def test_fd_ground_state_matches_analytic(params_a2):
    # max-norm agreement after common normalization and sign alignment
    grid = Grid(x_min=-2.0 + 2e-3, x_max=64.0, count=20000)
    H = oracle.build_hamiltonian(params_a2, grid)
    _, vecs = scipy.linalg.eigh_tridiagonal(H.diag, H.off, select="i", select_range=(0, 0))
    vec = vecs[:, 0] / math.sqrt(grid.spacing)  # unit norm under trapezoid weights
    psi = model.wavefunction(params_a2, 0, grid.points)
    psi /= math.sqrt(grid.spacing * float(psi @ psi))
    dist = min(np.max(np.abs(vec - psi)), np.max(np.abs(vec + psi)))
    assert dist <= 1e-4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["diag", "off"])
@pytest.mark.parametrize("index", [0, 1])
def test_tridiagonal_rejects_non_finite(bad, where, index):
    entries = {"diag": [1.0, 1.0, 1.0], "off": [0.5, 0.5]}
    entries[where][index] = bad
    with pytest.raises(ValueError, match="finite"):
        Tridiagonal(**entries)


def test_k_bounds():
    m = Tridiagonal(diag=np.array([1.0, 2.0, 3.0]), off=np.zeros(2))
    with pytest.raises(ValueError):
        oracle.lowest_eigenvalues(m, 0)
    with pytest.raises(ValueError):
        oracle.lowest_eigenvalues(m, 4)


# ---------------------------------------------------------------- quadrature

def test_integrate_constant():
    assert oracle.integrate(np.ones_like, 0.0, 2.0, 1e-6) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_integrate_exponential(tol):
    val = oracle.integrate(lambda x: np.exp(-x), 0.0, 50.0, tol)
    assert abs(val - 1.0) <= tol * 2.0


def test_integrate_against_scipy():
    f = lambda x: np.sin(3.0 * x) * np.exp(-0.3 * x * x)
    ref, _ = scipy.integrate.quad(f, -2.0, 5.0, epsabs=1e-13, epsrel=1e-13)
    assert oracle.integrate(f, -2.0, 5.0, 1e-12) == pytest.approx(ref, abs=1e-11)


def test_integrate_normalization_cross_check(params_a2):
    # quadrature over the finite window (-2+1e-6, 40]; the window misses
    # 1.657e-7 of tail probability, and the quadrature resolves exactly that
    f = lambda x: model.wavefunction(params_a2, 0, x) ** 2
    val = oracle.integrate(f, -2.0 + 1e-6, 40.0, 1e-10)
    assert val == pytest.approx(0.9999998343124, abs=1e-9)
    # full-domain normalization via the tail substitution u = 1/(x+a)
    from pdem.checks import bound_overlap

    assert bound_overlap(params_a2, 0, 0) == pytest.approx(1.0, abs=1e-8)


def test_integrate_orthogonality_cross_check(params_a2):
    f = lambda x: model.wavefunction(params_a2, 0, x) * model.wavefunction(params_a2, 1, x)
    val = oracle.integrate(f, -2.0 + 1e-6, 40.0, 1e-10)
    assert abs(val) <= 1e-4  # finite window; full-domain value is below 1e-8
    from pdem.checks import bound_overlap

    assert abs(bound_overlap(params_a2, 0, 1)) <= 1e-8


def test_integrate_tolerance_not_met():
    # the panel budget runs out; rounds split at most _MAX_SPLITS panels, so
    # it takes 1 + 3 calls to reach 512 panels and 39 more to reach 20000
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sin(1e6 * x)

    with pytest.raises(ToleranceNotMet) as info:
        oracle.integrate(f, 0.0, 100.0, 1e-12)
    assert math.isfinite(info.value.estimate)
    assert info.value.error_bound > 0.0
    # the first call makes _FIRST_PANELS panels, and a split adds one in 30 nodes
    first = 15 * oracle._FIRST_PANELS
    assert oracle._FIRST_PANELS + (sum(sizes) - first) // 30 <= oracle._MAX_PANELS
    assert max(sizes) == 30 * oracle._MAX_SPLITS
    assert len(sizes) <= 49


def test_integrate_calls_with_node_arrays():
    # the first call gets the 15 nodes of each of the _FIRST_PANELS panels;
    # each later call gets both halves of every panel split in that round,
    # 30 nodes per panel, at most _MAX_SPLITS panels
    shapes = []
    first_nodes = []

    def f(x):
        shapes.append(x.shape)
        if not first_nodes:
            first_nodes.append(x.copy())
        return np.sin(40.0 * x) * np.exp(-x)

    oracle.integrate(f, 0.0, 50.0, 1e-12)
    assert shapes[0] == (15 * oracle._FIRST_PANELS,)
    # equal panels, all inside the range
    nodes = first_nodes[0].reshape(oracle._FIRST_PANELS, 15)
    assert 0.0 < nodes.min() and nodes.max() < 50.0
    assert np.allclose(np.diff(nodes[:, 7]), 50.0 / oracle._FIRST_PANELS, rtol=1e-12)
    assert len(shapes) > 1 and all(len(shape) == 1 for shape in shapes)
    sizes = [shape[0] for shape in shapes[1:]]
    assert all(size % 30 == 0 and 0 < size <= 30 * oracle._MAX_SPLITS for size in sizes)
    assert max(sizes) > 30  # panels are split in batches


def test_integrate_vector_integrand():
    # rows of a (k, N) integrand share the panels, and each meets its own tolerance
    f = lambda x: np.sin(3.0 * x) * np.exp(-0.3 * x * x)
    g = lambda x: np.exp(-x) / (1.0 + x * x)
    tol = 1e-12
    both = oracle.integrate(lambda x: np.stack((f(x), g(x))), -2.0, 5.0, tol)
    assert both.shape == (2,)
    for value, h in zip(both, (f, g)):
        assert abs(value - oracle.integrate(h, -2.0, 5.0, tol)) <= tol


@pytest.mark.parametrize("f, start", [
    (lambda x: np.full_like(x, np.nan), 0.0),
    (lambda x: np.where(x > 0.5, np.inf, 1.0), 0.5),
    (lambda x: np.stack((np.ones_like(x), np.where(x > 0.5, np.nan, 1.0))), 0.5),
], ids=["nan", "inf", "row"])
def test_integrate_refuses_non_finite_integrand(f, start):
    # the first non-finite panel of the first round is named, in any row
    panel = f"[{start!r}, {start + 1.0 / oracle._FIRST_PANELS!r}]"
    with pytest.raises(NonConvergence, match=r"not finite on the panel " + re.escape(panel)):
        oracle.integrate(f, 0.0, 1.0, 1e-10)


def test_integrate_sum_overflow_names_no_panel():
    # each first-round panel integrates to 1e308, only their sum overflows:
    # no panel is refused, as when each panel was tested alone
    with np.errstate(over="ignore"):
        assert oracle.integrate(lambda x: np.full_like(x, 1e306), 0.0, 6400.0, 1e-10) == math.inf


@pytest.mark.parametrize("x_min, x_max", [
    (0.0, math.inf),
    (-math.inf, 0.0),
    (-1e308, 1e308),
], ids=["to-inf", "from-inf", "width-overflows"])
def test_integrate_refuses_infinite_range(x_min, x_max):
    # refused before the integrand is called, with no RuntimeWarning from the
    # node arithmetic
    def f(x):
        raise AssertionError("the integrand must not be called")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite or its width overflows"):
            oracle.integrate(f, x_min, x_max, 1e-10)


def test_integrate_refuses_panels_at_float_resolution():
    # panels one ulp wide or of zero width cannot be split: they are kept
    # with their error, and with nothing left to split the tolerance is
    # refused instead of looping
    with pytest.raises(ToleranceNotMet) as info:
        oracle.integrate(lambda x: np.where(np.arange(x.size) % 2, 1e10, -1e10),
                         1.0, 1.0 + 2.2e-16, 1e-12)
    assert info.value.error_bound > 0.0


def _count_integrand_calls(monkeypatch):
    """A list that gets one entry per oracle.integrate call: the number of
    integrand calls it made."""
    calls = []
    integrate = oracle.integrate

    def counting(f, *args):
        calls.append(0)

        def g(x):
            calls[-1] += 1
            return f(x)

        return integrate(g, *args)

    monkeypatch.setattr(oracle, "integrate", counting)
    return calls


def test_bound_overlap_call_budget(monkeypatch):
    # in s = ln u the near-threshold integrand is smooth, the first round
    # covers its live range and also takes the closed-form tail point, and
    # a round splits every panel it has to: measured at most 2 calls per pair
    calls = _count_integrand_calls(monkeypatch)
    for a in (2.0, 3.0):
        p = ModelParams(a=a)
        top = model.max_level(p)
        for m in range(top + 1):
            for n in range(m, top + 1):
                checks.bound_overlap(p, m, n)
    assert len(calls) == 4 * 5 // 2 + 9 * 10 // 2
    assert max(calls) <= 2


def test_wavefunction_distance_call_budget(monkeypatch):
    # both signs in one quadrature, its first round wide enough for the
    # smooth integrands: measured 1 call per distance
    calls = _count_integrand_calls(monkeypatch)
    for a in (3.0, 5.0, 10.0, 20.0):
        for n in (0, 1, 2):
            limits.wavefunction_distance(ModelParams(a=a), n)
    assert len(calls) == 12
    assert max(calls) <= 1


def _full_range(p):
    """bound_overlap's range in d = ln(v/v*), v* = b^2 - 1/2, before its
    live range is cut: v from 1e-12 b^3 to 450 + 2 b^2 ln 1e3."""
    v_star = p.b2 - 0.5
    return (math.log(1e-12 * p.b2 ** 1.5 / v_star),
            math.log((450.0 + 2.0 * p.b2 * math.log(1e3)) / v_star))


def _tail(p, m, n, at_lo):
    """bound_overlap's closed-form piece below v = 1e-12 b^3, from the
    integrand in d there."""
    q = 2.0 * p.b2 - m - n - 1.0
    c = m / (m - p.b2) + n / (n - p.b2) - 2.0
    return at_lo / q * (1.0 - c * 1e-12 * p.b2 ** 1.5 / (q + 1.0))


def _overlap_reference(p, m, n):
    # scipy's QUADPACK in d on bound_overlap's range and integrand, plus its
    # closed-form piece below v = 1e-12 b^3
    integrand = checks._overlap_integrand(p.b2, m, n)[0]
    g = lambda d: float(integrand(np.array([d]))[0])
    d_lo, d_hi = _full_range(p)
    body, _ = scipy.integrate.quad(g, d_lo, d_hi, epsabs=1e-15, epsrel=0.0, limit=200)
    return body + _tail(p, m, n, g(d_lo))


@pytest.mark.parametrize("b2, m, n", [
    (3.5 + 1e-9, 3, 3),
    (3.5 + 1e-9, 0, 3),
    (39.52, 39, 39),
    (39.52, 38, 39),
], ids=["b2=3.5+1e-9-top", "b2=3.5+1e-9-0-top", "b2=39.52-top", "b2=39.52-pair"])
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_bound_overlap_against_quadpack(b2, m, n):
    # measured at most 2.5e-15 apart
    p = ModelParams(a=math.sqrt(b2))
    assert abs(checks.bound_overlap(p, m, n) - _overlap_reference(p, m, n)) <= 1e-14


def _live_range_cases():
    """(params, m, n): one b^2 drawn in each of six equal-ratio strata of
    [0.6, 40], every other one moved so that its top level sits near
    threshold (b^2 - n in (0.5, 1)), with constants drawn in [0.5, 2], and
    for each the low pair, two mixed pairs and the top pair."""
    rng = random.Random(20)
    edges = np.geomspace(0.6, 40.0, 7).tolist()
    cases = []
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        b2 = rng.uniform(lo, hi)
        if i % 2:
            b2 = math.floor(b2) + 0.5 + rng.uniform(0.01, 0.49)
        m0, omega, hbar = (rng.uniform(0.5, 2.0) for _ in range(3))
        p = ModelParams(m0=m0, omega=omega, hbar=hbar, a=math.sqrt(b2 * hbar / (m0 * omega)))
        top = model.max_level(p)
        for m, n in sorted({(0, 0), (0, top), (top // 2, top), (top, top)}):
            cases.append(pytest.param(p, m, n, id=f"b2={b2:.4f}-{m}-{n}"))
    return cases


LIVE_RANGE_CASES = _live_range_cases()


@pytest.mark.parametrize("p, m, n", LIVE_RANGE_CASES)
def test_overlap_majorant_bounds_integrand(p, m, n):
    # phi bounds ln|integrand| at every sampled node of the full range where
    # the integrand is a normal float (with equality for m = n = 0, up to
    # rounding, which a subnormal value exceeds), its slope is its
    # derivative, and the live range lies inside the full range, with the
    # majorant at most _LIVE_LEVEL at each cut that moved
    integrand, phi = checks._overlap_integrand(p.b2, m, n)
    d_lo, d_hi = _full_range(p)
    d = np.linspace(d_lo, d_hi, 2001)
    f = np.abs(integrand(d))
    bound, slope = np.array([phi(t) for t in d.tolist()]).T
    live = f >= np.finfo(float).tiny
    assert live.sum() > 100
    assert np.all(np.log(f[live]) <= bound[live] + 1e-9 * np.maximum(1.0, np.abs(bound[live])))
    h = 1e-5
    numeric = [(phi(t + h)[0] - phi(t - h)[0]) / (2.0 * h) for t in d[::100].tolist()]
    assert np.allclose(slope[::100], numeric, rtol=1e-6, atol=1e-6)
    lo, hi = checks._live_range(phi, d_lo, d_hi)
    assert d_lo <= lo < hi <= d_hi
    level = math.log(checks._LIVE_LEVEL)
    for cut, end in ((lo, d_lo), (hi, d_hi)):
        if cut != end:
            assert phi(cut)[0] <= level
    outside = (d < lo) | (d > hi)
    assert np.all(f[outside] <= checks._LIVE_LEVEL)

    # and the mass of the integrand outside the live range is within the
    # bound the cuts guarantee
    magnitude = lambda t: np.abs(integrand(t))
    dropped = sum(oracle.integrate(magnitude, t0, t1, 1e-17)
                  for t0, t1 in ((d_lo, lo), (hi, d_hi)) if t0 < t1)
    assert dropped <= checks._LIVE_LEVEL / checks._LIVE_SLOPE


@pytest.mark.parametrize("p, m, n", LIVE_RANGE_CASES)
def test_overlap_integrand_is_the_public_route(p, m, n):
    # at sampled nodes of the live range, the integrand in d is
    # psi_m(x) psi_n(x) / u of the public psi, x = 1/u - a, u = v/(l0^2 a^3),
    # within the rounding of that route: the terms b^2 ln(2b^2) of the
    # constants K_n and b^2 ln s, b^2/s of the log prefactor, each rounded to
    # eps, on the scale exp(phi) of the summed terms of the polynomials,
    # which a value near a node of psi falls below.  Measured at most 5.65
    # of it with ln C_n and the log prefactor formed in s, and 6.95 with the
    # Morse core, at nodes by the wall end of the range (b^2 = 1.82 and
    # 1.15, levels 0), where 1/s amplifies the rounding of s itself.
    integrand, phi = checks._overlap_integrand(p.b2, m, n)
    d = np.linspace(*checks._live_range(phi, *_full_range(p)), 301)
    v = (p.b2 - 0.5) * np.exp(d)
    u = v / p.wall_scale
    psi_m, psi_n = model.bound_states(p, (m, n)).psi(1.0 / u - p.a)
    public = psi_m * psi_n / u
    s = p.b2 / v
    rounding = sys.float_info.epsilon * p.b2 * (math.log(2.0 * p.b2) + np.abs(np.log(s)) + 1.0 / s)
    scale = np.exp([phi(t)[0] for t in d.tolist()])
    assert np.all(np.abs(integrand(d) - public) <= 8.0 * rounding * scale)


def _full_range_overlap(p, m, n, tol):
    """<psi_m, psi_n> as bound_overlap forms it, but over the full range at
    tolerance tol."""
    integrand = checks._overlap_integrand(p.b2, m, n)[0]
    d_lo, d_hi = _full_range(p)
    tail = _tail(p, m, n, integrand(np.array([d_lo]))[0])
    return oracle.integrate(integrand, d_lo, d_hi, tol) + tail


@pytest.mark.parametrize("p, m, n", LIVE_RANGE_CASES)
def test_bound_overlap_on_live_range_matches_full_range(p, m, n):
    # measured at most 1.3e-15 apart; the reference itself moves by at most
    # 2.3e-15 (the top pair at b^2 = 36.75) when its first round takes 48
    # to 256 panels
    assert abs(checks.bound_overlap(p, m, n) - _full_range_overlap(p, m, n, 1e-14)) <= 1e-14


def _benchmark_bound_states(seed):
    """The tasks of the benchmark's bound-states batch for seed
    (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.bound_states(seed)


def test_benchmark_overlap_and_distance_call_budget(monkeypatch):
    # the live range and the first round of _FIRST_PANELS panels: measured
    # 1.10 integrand calls per overlap over the 60 overlaps of seed 7, and
    # 1 call per distance
    tasks = [t for t in _benchmark_bound_states(7) if t.kind in ("overlap", "distance")]
    calls = _count_integrand_calls(monkeypatch)
    for task in tasks:
        task.call()
    assert len(calls) == len(tasks)
    overlaps = [c for t, c in zip(tasks, calls) if t.kind == "overlap"]
    distances = [c for t, c in zip(tasks, calls) if t.kind == "distance"]
    assert len(overlaps) == 60 and distances
    assert sum(overlaps) / len(overlaps) <= 1.15
    assert max(distances) == 1


def test_integrate_rejects_bad_range():
    with pytest.raises(ValueError):
        oracle.integrate(lambda x: x, 1.0, 0.0, 1e-8)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
def test_integrate_rejects_bad_tolerance(tol):
    # a NaN or infinite tolerance would accept the one-panel estimate
    with pytest.raises(ValueError, match="finite and positive"):
        oracle.integrate(np.exp, 0.0, 50.0, tol)


# ---------------------------------------------------------------- ode residual

def fd_derivatives(f, h):
    """x -> (f, f', f'') from 5-point central differences at steps h and h/2,
    Richardson-combined."""

    def stencil(x, step):
        fm2, fm1 = f(x - 2.0 * step), f(x - step)
        f0 = f(x)
        fp1, fp2 = f(x + step), f(x + 2.0 * step)
        d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * step)
        d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * step**2)
        return f0, d1, d2

    def wrapped(x):
        f0, d1a, d2a = stencil(x, h)
        _, d1b, d2b = stencil(x, 0.5 * h)
        return f0, d1b + (d1b - d1a) / 15.0, d2b + (d2b - d2a) / 15.0

    return wrapped


def test_residual_exact_solution_analytic(params_a2):
    psi = lambda x: model.wavefunction_with_derivatives(params_a2, 0, x)
    e0 = model.energy(params_a2, 0).energy
    for x in (-1.5, 0.0, 1.0, 5.0, 11.0):
        assert oracle.ode_residual(params_a2, psi, e0, x) <= 1e-10


def test_residual_exact_solution_fd(params_a3):
    e2 = model.energy(params_a3, 2).energy
    wrapped = fd_derivatives(lambda x: model.wavefunction(params_a3, 2, x), 1e-4 * params_a3.a)
    for x in np.linspace(-2.5, 12.0, 30):
        assert oracle.ode_residual(params_a3, wrapped, e2, float(x)) <= 1e-6


def test_residual_negative_control(params_a2):
    wrapped = fd_derivatives(lambda x: math.exp(-x * x), 1e-4 * params_a2.a)
    assert oracle.ode_residual(params_a2, wrapped, 0.5, 1.0) > 1e-2


def test_residual_domain_error(params_a2):
    psi = lambda x: (1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        oracle.ode_residual(params_a2, psi, 0.5, -2.0)


def test_residual_near_the_float_ceiling():
    # psi'' = 1.455e308 here: 2/(x+a) psi' and the potential term psi, formed
    # alone, overflow before they cancel, which gave NaN
    p = ModelParams(m0=1.6643224676989237e+260, omega=5.544677264779134e-119,
                    hbar=7.687642998938044e-105, a=1.3537892766843058e-123)
    x = -9.354346075221975e-124
    psi = lambda t: model.wavefunction_with_derivatives(p, 0, t)
    assert psi(x)[2] > 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = oracle.ode_residual(p, psi, model.energy(p, 0).energy, x)
    assert residual <= 1e-13  # measured 1.5e-14


@pytest.mark.parametrize("triple", [(1.0, 0.0, math.inf), (math.nan, 0.0, 0.0)], ids=["inf", "nan"])
def test_residual_refuses_what_it_cannot_form(params_a2, triple):
    with pytest.raises(DomainError, match="ODE residual"):
        oracle.ode_residual(params_a2, lambda _: triple, 0.5, 1.0)


def test_residual_scaling_keeps_bits(params_a3):
    # psi, a psi' and a^2 psi'' are scaled by a power of two, which is
    # exact: every residual is the one of the unscaled terms, bit for bit
    p = params_a3
    xs = np.linspace(-2.9, 12.0, 60)
    c0_of = lambda e: p.b2 * p.b2 * (e / model.well_depth(p))
    for n in (0, 4, 8):
        e = model.energy(p, n).energy
        values = model.wavefunction_with_derivatives(p, n, xs)
        got = oracle.ode_residual(p, lambda _: values, e, xs)
        for x, v, d1, d2, r in zip(xs.tolist(), *(w.tolist() for w in values), got.tolist()):
            # the equation in s = 1 + x/a, times a^2
            xa = x + p.a
            s = xa / p.a
            br = p.b2 * (x / xa)
            a1, a2 = p.a * d1, (p.a * p.a) * d2
            lhs = a2 + 2.0 / s * a1 - (br * br - c0_of(e)) / s / s * v
            scale = max(abs(a2), math.sqrt(p.b2) * abs(a1), p.b2 * abs(v), 1e-300)
            assert r == abs(lhs) / scale


# ---------------------------------------------------------------- convergence order

def test_grid_convergence_second_order(convergence_ladder):
    counts, errors = convergence_ladder
    for n in (0, 1):
        errs = errors[n]
        ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:]) if e1 > 1e-9 and e2 > 1e-9]
        assert ratios, "errors hit the floor too early"
        for r in ratios:
            assert 3.5 <= r <= 4.5


def test_fd_eigenvalues_match_spectrum_on_adequate_box(wide_box_eigenvalues, params_a2):
    # per-level bounds reflect how fast each state's power-law tail converges
    # in box size: the near-threshold levels are box-limited, not scheme-limited
    exact = [model.energy(params_a2, n).energy for n in range(4)]
    rel = [abs(l - e) / e for l, e in zip(wide_box_eigenvalues, exact)]
    assert rel[0] <= 1e-5
    assert rel[1] <= 1e-5
    assert rel[2] <= 2e-4
    assert rel[3] <= 2.5e-2
