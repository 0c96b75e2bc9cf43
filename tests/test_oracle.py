import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from pdem import checks, model, oracle
from pdem.errors import DomainError, ToleranceNotMet
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
    # one pass gives the count, sum 1/(lam_i - x) and sum 1/(lam_i - x)^2
    rng = np.random.default_rng(5)
    m = Tridiagonal(diag=rng.standard_normal(50), off=rng.standard_normal(49))
    lams = dense_eigenvalues(m)
    e2 = [0.0] + (m.off**2).tolist()
    for x in (lams[0] - 1.0, 0.5 * (lams[10] + lams[11]), lams[-1] + 0.3):
        count, g, h = oracle._sturm_laguerre(m.diag.tolist(), e2, x, 1e-292)
        assert count == np.count_nonzero(lams < x)
        assert g == pytest.approx(np.sum(1.0 / (lams - x)), rel=1e-10)
        assert h == pytest.approx(np.sum(1.0 / (lams - x) ** 2), rel=1e-10)


def test_degenerate_reducible_matrix():
    # zero off-diagonal: the double eigenvalue 1 is never alone in a bracket,
    # so levels 0 and 1 finish by bisection
    m = Tridiagonal(diag=np.array([1.0, 1.0, 3.0]), off=np.zeros(2))
    assert np.allclose(oracle.lowest_eigenvalues(m, 3), dense_eigenvalues(m), atol=1e-10)


def test_wilkinson_w21_plus():
    # the top pairs of W21+ agree to about 1e-14
    m = Tridiagonal(diag=np.abs(np.arange(-10.0, 11.0)), off=np.ones(20))
    assert np.allclose(oracle.lowest_eigenvalues(m, 21), dense_eigenvalues(m), atol=1e-10)


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
    for name in ("_sturm_count", "_sturm_newton", "_sturm_laguerre"):
        sweep = getattr(oracle, name)
        monkeypatch.setattr(
            oracle, name, lambda *args, sweep=sweep: passes.append(1) or sweep(*args)
        )
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


def test_eigensolver_check_pass_budget(monkeypatch):
    # the two levels of the default eigensolver check (32000 rows) take 20
    # passes; Newton steps after bisection took 34
    p = ModelParams(a=2.0)
    grid = Grid(x_min=-p.a + 1e-3 * p.a, x_max=140.0, count=checks.GRID_POINTS)
    H = oracle.build_hamiltonian(p, grid)
    passes = count_passes(monkeypatch)
    lams = oracle.lowest_eigenvalues(H, 2)
    assert len(passes) <= 24
    ref = scipy.linalg.eigh_tridiagonal(
        H.diag, H.off, eigvals_only=True, select="i", select_range=(0, 1), tol=1e-14
    )
    # at 32000 rows rounding moves LAPACK's bisection by about 1e-11 relative
    np.testing.assert_allclose(lams, ref, rtol=1e-10, atol=0.0)


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
    # 1000 copies of a 3 x 3 block whose lowest level is 0: a Laguerre step
    # toward the 1000-fold level shrinks the distance by only about 4%, so
    # the second step fails to halve the first and bisection takes over
    m = Tridiagonal(np.full(3000, math.sqrt(2.0)), np.tile([1.0, 1.0, 0.0], 1000)[:-1])
    passes = count_passes(monkeypatch)
    lams = oracle.lowest_eigenvalues(m, 2)
    assert len(passes) <= 45  # 2 Laguerre and 41 count passes
    d, e2 = m.diag.tolist(), [0.0] + (m.off**2).tolist()
    for lam in lams:
        assert abs(lam) <= 1e-12
        assert oracle._sturm_count(d, e2, lam - 1e-12, 1e-292) == 0
        assert oracle._sturm_count(d, e2, lam + 1e-12, 1e-292) == 1000


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
    psi = np.array([model.wavefunction(params_a2, 0, float(x)) for x in grid.points])
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
    with pytest.raises(ToleranceNotMet) as info:
        oracle.integrate(lambda x: np.sin(1e6 * x), 0.0, 100.0, 1e-12)
    assert math.isfinite(info.value.estimate)
    assert info.value.error_bound > 0.0


def test_integrate_calls_with_node_arrays():
    # one call for the first panel's 15 nodes, one per split for both halves
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.exp(-x)

    oracle.integrate(f, 0.0, 50.0, 1e-10)
    assert shapes[0] == (15,)
    assert len(shapes) > 1 and set(shapes[1:]) == {(30,)}


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
