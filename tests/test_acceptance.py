"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Three criteria are strict xfails: as literally stated their
numbers are unattainable, which was verified against independent oracles
(box-size scaling of the discretized operator, and 60-digit arithmetic for
the continuum amplitudes and polynomial limits).  Each is followed by a
green companion that validates the same physics under honest conditions.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from pdem import checks, limits, model, oracle, specfun
from pdem.errors import NonConvergence
from pdem.model import ModelParams


def report(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


# 1 ------------------------------------------------------------------

def test_criterion_01_level_counts():
    expected = {1.0: 0, 2.0: 3, 3.0: 8, 4.0: 15}
    got = {a: model.max_level(ModelParams(a=a)) for a in expected}
    report(1, got == expected, f"level counts {got}")
    assert got == expected


# 2 ------------------------------------------------------------------

def test_criterion_02_ground_state_degeneracy():
    eps = np.finfo(float).eps
    worst = max(
        abs(model.energy(ModelParams(a=a), 0).energy - 0.5)
        for a in (1.0, 2.0, 3.0, 4.0, 10.0)
    )
    report(2, worst <= 4 * eps, f"|E_0 - hw/2| <= {worst:.2e}")
    assert worst <= 4 * eps


# 3 ------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="The box (-2+1e-3, 14] cannot hold the upper levels: their "
    "power-law tails put 1.6% (n=1) to ~40% (n=2) of the probability beyond "
    "x=14, and the threshold level converges only like 1/box-size.  Measured "
    "relative errors are about {7e-4, 2e-2, 0.16, 0.49}; reaching 1e-5 for "
    "all four would need a box of order 1e5 wide.  See the wide-box "
    "companion test below.",
)
def test_criterion_03_oracle_cross_validation_as_stated(params_a2):
    t0 = time.time()
    grid = oracle.Grid(x_min=-2.0 + 1e-3, x_max=14.0, count=20000)
    lams = oracle.lowest_eigenvalues(oracle.build_hamiltonian(params_a2, grid), 4)
    elapsed = time.time() - t0
    exact = [0.5, 1.25, 1.75, 2.0]
    rels = [abs(l - e) / e for l, e in zip(lams, exact)]
    detail = "box 14, 20000 pts: rel errs " + ", ".join(f"{r:.1e}" for r in rels)
    ok = elapsed <= 30.0 and max(rels) <= 1e-5
    report(3, ok, detail + f" (vs 1e-5; {elapsed:.1f}s)")
    assert elapsed <= 30.0
    assert max(rels) <= 1e-5, detail


def test_criterion_03_companion_adequate_box(wide_box_eigenvalues, params_a2):
    # same cross-validation on (-2+2e-3, 300] with 150000 points; per-level
    # bounds follow each state's measured box-convergence rate (the n=2 tail
    # converges like R^-3, the threshold level n=3 like 1/R)
    exact = [model.energy(params_a2, n).energy for n in range(4)]
    rels = [abs(l - e) / e for l, e in zip(wide_box_eigenvalues, exact)]
    bounds = [1e-5, 1e-5, 2e-4, 2.5e-2]
    ok = all(r <= b for r, b in zip(rels, bounds))
    report(3, ok, "wide-box companion: rel errs "
           + ", ".join(f"{r:.1e}" for r in rels) + f" vs bounds {bounds}")
    assert ok


# 4 ------------------------------------------------------------------

def test_criterion_04_grid_convergence_order(convergence_ladder):
    counts, errors = convergence_ladder
    errs = errors[0]
    ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:]) if e1 > 1e-9 and e2 > 1e-9]
    ok = len(ratios) == 3 and all(3.5 <= r <= 4.5 for r in ratios)
    report(4, ok, "error ratios per refinement: " + ", ".join(f"{r:.2f}" for r in ratios))
    assert ok


# 5 ------------------------------------------------------------------

def test_criterion_05_orthonormality():
    worst = 0.0
    for a in (1.0, 2.0, 3.0):
        p = ModelParams(a=a)
        nmax = model.max_level(p)
        for m in range(nmax + 1):
            for n in range(m, nmax + 1):
                v = checks.bound_overlap(p, m, n)
                worst = max(worst, abs(v - (1.0 if m == n else 0.0)))
    report(5, worst <= 1e-8, f"worst |<m|n> - delta| = {worst:.2e} (vs 1e-8)")
    assert worst <= 1e-8


# 6 ------------------------------------------------------------------

def test_criterion_06_dual_form_identity():
    worst = 0.0
    for a in (1.0, 2.0, 3.0):
        p = ModelParams(a=a)
        xs = np.linspace(-a + 0.02 * a, a + 10.0 / p.lambda0, 200)
        for n in range(model.max_level(p) + 1):
            for x in xs:
                vb = model.wavefunction(p, n, float(x), model.WavefunctionForm.BESSEL)
                vl = model.wavefunction(p, n, float(x), model.WavefunctionForm.LAGUERRE)
                if vb == 0.0 and vl == 0.0:
                    continue
                worst = max(worst, abs(vb - vl) / max(abs(vb), abs(vl)))
    report(6, worst <= 1e-10, f"worst Bessel-vs-Laguerre rel diff = {worst:.2e} (vs 1e-10)")
    assert worst <= 1e-10


# 7 ------------------------------------------------------------------

def test_criterion_07_ode_residuals(params_a2):
    worst_bound = 0.0
    lo, hi = -2.0 + 2e-3, 14.0
    xs = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 200)
    for n in range(4):
        e = model.energy(params_a2, n).energy
        psi = lambda t: model.wavefunction_with_derivatives(params_a2, n, t)
        for x in xs:
            worst_bound = max(worst_bound, oracle.ode_residual(params_a2, psi, e, float(x)))
    worst_cont = 0.0
    lo = -2.0 + 2.0 / 50
    xs = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 120)
    for frac in (1.25, 1.5, 2.0):
        e = frac * model.well_depth(params_a2)
        st = model.continuum_state(params_a2, e)
        psi = lambda t: model.continuum_wavefunction_with_derivatives(st, params_a2, t)
        for x in xs:
            worst_cont = max(worst_cont, oracle.ode_residual(params_a2, psi, e, float(x)))
    ok = worst_bound <= 1e-6 and worst_cont <= 1e-6
    report(7, ok, f"residuals: bound {worst_bound:.2e}, continuum {worst_cont:.2e} (vs 1e-6)")
    assert ok


# 8 ------------------------------------------------------------------

def test_criterion_08_factorization():
    result = checks.check_factorization()
    report(8, result.passed, result.measured)
    assert result.passed, result.measured


# 9 ------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="At nu = 1e6 the supremum of the floored relative error over "
    "n <= 6 is 0.62, not 0.05 (verified against 50-digit arithmetic; the "
    "worst points are the zeros of the odd polynomials, where the scaling "
    "substitution's parity-breaking 2/nu shift dominates).  The O(nu^-1/2) "
    "rate makes the 0.05 bound hold only from nu of order 1.6e8; the "
    "companion test checks exactly that.",
)
def test_criterion_09_bessel_hermite_as_stated():
    grid = np.linspace(-2.0, 2.0, 17)
    sup = max(
        abs(limits.scaled_bessel(n, float(x), 1e6) - specfun.hermite(n, float(x)))
        / max(1.0, abs(specfun.hermite(n, float(x))))
        for n in range(7)
        for x in grid
    )
    ratios = []
    for n in range(1, 7):
        for nu in (1e4, 4e4, 1.6e5):
            e1 = max(abs(limits.scaled_bessel(n, float(x), nu) - specfun.hermite(n, float(x))) for x in grid)
            e4 = max(abs(limits.scaled_bessel(n, float(x), 4 * nu) - specfun.hermite(n, float(x))) for x in grid)
            if e1 > 1e-8:
                ratios.append(e4 / e1)
    rate_ok = all(0.35 <= r <= 0.65 for r in ratios)
    report(9, sup <= 0.05 and rate_ok,
           f"sup rel err at nu=1e6: {sup:.3f} (vs 0.05); rate window ok: {rate_ok}")
    assert rate_ok
    assert sup <= 0.05, f"sup = {sup:.3f}"


def test_criterion_09_companion_rate_and_large_nu():
    result = checks.check_bessel_hermite()
    report(9, result.passed, "companion: " + result.measured)
    assert result.passed, result.measured


# 10 -----------------------------------------------------------------

def test_criterion_10_wavefunction_limit():
    ok = True
    details = []
    for n in (0, 1, 2):
        ds = [limits.wavefunction_distance(ModelParams(a=a), n) for a in (3.0, 5.0, 10.0, 20.0)]
        decreasing = all(d2 < d1 for d1, d2 in zip(ds, ds[1:]))
        ratio = ds[-1] / ds[0]
        ok = ok and decreasing and ratio <= 0.2
        details.append(f"n={n}: ratio {ratio:.3f}")
    report(10, ok, "; ".join(details) + " (vs <= 0.2, strictly decreasing)")
    assert ok


# 11 -----------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="Two independent obstacles, both verified with 60-digit "
    "arithmetic: the exact amplitudes at q=2, x=1 are 0.411, 0.225, 0.118 "
    "for a = 2, 4, 8, so even perfect evaluation gives final/first = 0.287 "
    "> 0.1 (the decay is roughly 1/a); and at a = 8 the double-precision "
    "Kummer sum cancels through ~15 decades, so the evaluator raises "
    "rather than return noise.  The companion checks the decrease on the "
    "computable members.",
)
def test_criterion_11_continuum_vanishing_as_stated():
    try:
        sweep = limits.continuum_magnitude(
            [ModelParams(a=a) for a in (2.0, 4.0, 8.0)], 2.0, 1.0
        )
    except NonConvergence as exc:
        report(11, False, f"a=8 member not computable in double precision: {exc}")
        raise AssertionError("sweep member not computable") from exc
    vals = sweep.metric_values
    ok = all(v2 < v1 for v1, v2 in zip(vals, vals[1:])) and vals[-1] <= 0.1 * vals[0]
    report(11, ok, "sweep " + ", ".join(f"{v:.3f}" for v in vals))
    assert ok


def test_criterion_11_companion_decreasing_members():
    sweep = limits.continuum_magnitude([ModelParams(a=2.0), ModelParams(a=4.0)], 2.0, 1.0)
    v2, v4 = sweep.metric_values
    ok = v4 < v2 and abs(v2 - 0.4114357152) < 1e-6 and abs(v4 - 0.2254856023) < 1e-6
    report(11, ok, f"companion: |psi_E(1)| = {v2:.6f}, {v4:.6f} "
           "(match 60-digit values, decreasing)")
    assert ok


# 12 -----------------------------------------------------------------

def test_criterion_12_cli_determinism():
    cmd = [sys.executable, "-m", "pdem.cli", "spectrum", "--a", "2", "--format", "json"]
    out1 = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    out2 = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    identical = out1.stdout == out2.stdout and out1.returncode == out2.returncode == 0
    verify = subprocess.run(
        [sys.executable, "-m", "pdem.cli", "verify"],
        capture_output=True, text=True, timeout=300,
    )
    ok = identical and verify.returncode == 0
    report(12, ok, f"byte-identical spectrum output: {identical}; "
           f"verify exit code: {verify.returncode}")
    assert identical
    assert verify.returncode == 0, verify.stdout
