"""Named verification checks driven by the verify command and the test suite.

Each check compares a closed form against an independent route (quadrature,
finite differences, recurrence identities) and reports a measured worst case
next to its bound, so failures carry numbers rather than booleans.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import canonical, limits, model, oracle, specfun

# Defaults of pdem verify: the a values of the checks run per a, and the
# grid points and relative tolerance of the eigensolver check.
A_VALUES = (1.0, 2.0)
GRID_POINTS = 32000
EIGEN_TOL = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    bound: str
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: measured={self.measured} bound={self.bound}{extra}"


def bound_overlap(params, m, n):
    """<psi_m, psi_n> over the whole domain (-a, infinity).

    Substituting u = 1/(x+a) maps the infinite tail to a compact interval,
    and s = ln u spreads the tail end u -> 0 over a finite range, so the
    integrand is psi_m psi_n / u in s.  Near threshold it goes like u^(p-1)
    in u, singular at 0, which the quadrature could only resolve by halving
    about 40 times toward the lower cutoff.  In s it is e^(p s), smooth.  The
    integrand underflows to exact zero inside the wall layer, so the upper
    cutoff in u only needs to overshoot it.

    Below the lower cutoff u_lo the integrand in u is f(u) = K u^(p-1)
    (1 + c u) to first order, with p = 2b^2-m-n-1 > 0 for every pair of levels
    and c = l0^2 a^3 (m/(m-b^2) + n/(n-b^2) - 2) (from the wall factors and
    the top two coefficients of y_m and y_n).  That piece is added in closed
    form, f(u_lo) u_lo / p * (1 - c u_lo / (p+1)), where f(u_lo) u_lo is the
    integrand in s at ln u_lo.  Near threshold it is far from negligible:
    3e-3 of the norm at b^2 - n = 0.64, all of it as b^2 - n approaches 1/2.
    Without the c term it would be off by c u_lo, 2e-8 of the norm for the
    top level at b^2 = 39.52.

    Each integrand call evaluates psi_m and psi_n from one Bessel recurrence
    (model.bound_states), and also at s = ln u_lo for the closed-form piece.
    oracle.integrate's wide first round leaves most overlaps at that one
    call, and every pair at a = 2 and a = 3 at 2 calls or fewer.
    """
    a, b2 = params.a, params.b2
    u_lo = 1e-12
    u_hi = (900.0 + 4.0 * b2 * math.log(1e3)) / (2.0 * params.wall_scale)
    pair = model.bound_states(params, (m, n)).psi
    s_lo = math.log(u_lo)
    at_s_lo = []

    def integrand(s):
        u = np.exp(np.append(s, s_lo))
        psi_m, psi_n = pair(1.0 / u - a)
        values = psi_m * psi_n / u
        at_s_lo.append(values[-1])
        return values[:-1]

    body = oracle.integrate(integrand, s_lo, math.log(u_hi), 1e-11)
    p = 2.0 * b2 - m - n - 1.0
    c = params.wall_scale * (m / (m - b2) + n / (n - b2) - 2.0)
    return body + at_s_lo[0] / p * (1.0 - c * u_lo / (p + 1.0))


def check_level_counts():
    expected = {1.0: 0, 2.0: 3, 3.0: 8, 4.0: 15}
    got = {a: model.max_level(model.ModelParams(a=a)) for a in expected}
    ok = got == expected
    return CheckResult(
        "level-counts", ok, str(got), str(expected), "bound levels per a, unit constants"
    )


def check_ground_state():
    worst = 0.0
    for a in (1.0, 2.0, 3.0, 4.0, 10.0):
        p = model.ModelParams(a=a)
        e0 = model.energy(p, 0).energy
        worst = max(worst, abs(e0 - 0.5 * p.hbar * p.omega))
    ok = worst <= 4.0 * np.finfo(float).eps
    return CheckResult(
        "ground-state", ok, f"{worst:.3e}", "4 eps", "E_0 equals hbar*omega/2 exactly"
    )


def check_spectrum_shape(a_values):
    detail = "gaps positive and decreasing; all levels at or below the depth"
    for a in a_values:
        p = model.ModelParams(a=a)
        nmax = model.max_level(p)
        energies = [model.energy(p, n).energy for n in range(nmax + 1)]
        v_inf = model.well_depth(p)
        gaps = [b - c for b, c in zip(energies[1:], energies)]
        if any(g <= 0.0 for g in gaps):
            return CheckResult("spectrum-shape", False, f"a={a}: non-positive gap", ">0", detail)
        if any(g2 >= g1 for g1, g2 in zip(gaps, gaps[1:])):
            return CheckResult("spectrum-shape", False, f"a={a}: gaps not decreasing", "", detail)
        if any(e > v_inf + 1e-12 for e in energies):
            return CheckResult("spectrum-shape", False, f"a={a}: level above depth", "<= V_inf", detail)
    return CheckResult("spectrum-shape", True, "ok", "", detail)


def check_orthonormality(a_values):
    worst = 0.0
    for a in a_values:
        p = model.ModelParams(a=a)
        nmax = model.max_level(p)
        for m in range(nmax + 1):
            for n in range(m, nmax + 1):
                v = bound_overlap(p, m, n)
                worst = max(worst, abs(v - (1.0 if m == n else 0.0)))
    return CheckResult(
        "orthonormality", worst <= 1e-10, f"{worst:.3e}", "1e-10",
        f"|<m|n> - delta| over all pairs, a in {list(a_values)}",
    )


def check_dual_form(a_values):
    worst = 0.0
    for a in a_values:
        p = model.ModelParams(a=a)
        xs = np.linspace(-a + 0.02 * a, a + 10.0 / p.lambda0, 200)
        levels = range(model.max_level(p) + 1)
        states = model.bound_states(p, levels)
        laguerre = states.psi(xs, model.WavefunctionForm.LAGUERRE)
        for vb, vl in zip(states.psi(xs), laguerre):
            scale = np.maximum(np.abs(vb), np.abs(vl))
            nonzero = scale > 0.0
            if nonzero.any():
                worst = max(worst, float(np.max(np.abs(vb - vl)[nonzero] / scale[nonzero])))
    return CheckResult(
        "dual-form", worst <= 1e-10, f"{worst:.3e}", "1e-10",
        "Bessel vs Laguerre closed forms on 200-point grids",
    )


def _interior_grid(lo, hi, count):
    span = hi - lo
    return np.linspace(lo + 0.05 * span, hi - 0.05 * span, count)


def check_ode_residual(a_values):
    worst = 0.0
    for a in a_values:
        p = model.ModelParams(a=a)
        xs = _interior_grid(-a + 1e-3 * a, a + 12.0 / p.lambda0, 160)
        states = model.bound_states(p, range(model.max_level(p) + 1))
        # every level on the whole grid at once, and each level's residuals too
        rows = states.psi_with_derivatives(xs)
        for i, level in enumerate(states.levels):
            psi = lambda _, i=i: (rows[0][i], rows[1][i], rows[2][i])
            worst = max(worst, *oracle.ode_residual(p, psi, level.energy, xs).tolist())
    return CheckResult(
        "ode-residual", worst <= 1e-6, f"{worst:.3e}", "1e-06",
        "bound states, analytic derivatives, interior 90% of the domain",
    )


def check_continuum_residual():
    a = 2.0
    p = model.ModelParams(a=a)
    xs = _interior_grid(-a + a / 50.0, a + 12.0 / p.lambda0, 120)
    worst = 0.0
    for frac in (1.25, 1.5, 2.0):
        e = frac * model.well_depth(p)
        state = model.continuum_state(p, e)
        psi = lambda t: model.continuum_wavefunction_with_derivatives(state, p, t)
        worst = max(worst, *oracle.ode_residual(p, psi, e, xs).tolist())
    return CheckResult(
        "continuum-residual", worst <= 1e-6, f"{worst:.3e}", "1e-06",
        "scattering states at E/V_inf in [1.25, 1.5, 2.0], a=2.0",
    )


def _gaussian_battery(x):
    """Test functions p(x) exp(-x^2/2) and their first two derivatives on the
    grid x, as three arrays with one row per polynomial p."""
    polys = [
        (1.0,),
        (0.0, 1.0),
        (-1.0, 0.0, 1.0),
        (0.0, -0.5, 0.0, 1.0),
        (0.3, 0.0, -3.0, 0.0, 1.0),
    ]
    gauss = np.exp(-0.5 * x * x)
    g, dg, d2g = [], [], []
    for coeffs in polys:
        p = np.polynomial.Polynomial(coeffs)
        dp, d2p = p.deriv(), p.deriv(2)
        g.append(p(x) * gauss)
        dg.append((dp(x) - x * p(x)) * gauss)
        d2g.append((d2p(x) - 2.0 * x * dp(x) + (x * x - 1.0) * p(x)) * gauss)
    return np.array(g), np.array(dg), np.array(d2g)


def check_factorization():
    a = 2.0
    p = model.ModelParams(a=a)
    xs = np.linspace(-a + 0.05 * a, a + 8.0 / p.lambda0, 60)
    psi, dpsi, _ = model.wavefunction_with_derivatives(p, 0, xs)
    keep = np.abs(psi) >= 1e-280
    lowered = model.apply_lowering(p, xs[keep], psi[keep], dpsi[keep])
    worst_lower = float(np.max(np.abs(lowered) / np.abs(psi[keep])))

    cp = canonical.CanonicalParams()
    xs = np.linspace(-3.0, 3.0, 25)
    psi = canonical.canonical_wavefunction(cp, 0, xs)
    lowered = canonical.apply_lowering(
        cp, xs, psi, canonical.canonical_wavefunction_derivative(cp, 0, xs)
    )
    worst_can = float(np.max(np.abs(lowered) / np.abs(psi)))

    # [lower, raise] g = g, with the derivatives of raise g and lower g by hand
    lam0_sq = cp.lambda0**2
    rt = math.sqrt(2.0) * cp.lambda0
    g, dg, d2g = _gaussian_battery(xs)
    raised = canonical.apply_raising(cp, xs, g, dg)
    d_raised = (lam0_sq * g + lam0_sq * xs * dg - d2g) / rt
    lowered = canonical.apply_lowering(cp, xs, g, dg)
    d_lowered = (lam0_sq * g + lam0_sq * xs * dg + d2g) / rt
    comm = canonical.apply_lowering(cp, xs, raised, d_raised) - canonical.apply_raising(
        cp, xs, lowered, d_lowered
    )
    worst_comm = float(np.max(np.abs(comm - g) / np.maximum(1.0, np.abs(g))))

    ok = worst_lower <= 1e-12 and worst_can <= 1e-12 and worst_comm <= 1e-8
    return CheckResult(
        "factorization", ok,
        f"lower={worst_lower:.2e} canonical={worst_can:.2e} commutator={worst_comm:.2e}",
        "1e-12/1e-12/1e-08",
        "ground-state annihilation and [lower, raise] = 1",
    )


def check_eigensolver(grid_points, tol):
    """FD eigenvalues of levels 0 and 1 at a = 2 against the closed-form spectrum.

    Near-threshold levels converge only polynomially in the box size (their
    tails are power laws), so the check validates the strongly bound levels;
    wider boxes and per-level bounds live in the test suite.
    """
    a = 2.0
    p = model.ModelParams(a=a)
    grid = oracle.Grid(x_min=-a + 1e-3 * a, x_max=140.0, count=grid_points)
    lams = oracle.lowest_eigenvalues(oracle.build_hamiltonian(p, grid), 2)
    exact = [model.energy(p, n).energy for n in (0, 1)]
    worst = max(abs(lam - e) / abs(e) for lam, e in zip(lams, exact))
    return CheckResult(
        "eigensolver", worst <= tol, f"{worst:.3e}", f"{tol:.0e}",
        "finite-difference levels [0, 1] vs closed form, a=2.0, "
        f"{grid_points} points on (-a+1e-3 a, 140.0]",
    )


def check_convergence():
    a = 2.0
    p = model.ModelParams(a=a)
    exact = model.energy(p, 0).energy
    errs = []
    for count in (12500, 25000, 50000, 100000):
        grid = oracle.Grid(x_min=-a + 1e-3 * a, x_max=300.0, count=count)
        [lam] = oracle.lowest_eigenvalues(oracle.build_hamiltonian(p, grid), 1)
        errs.append(abs(lam - exact))
    ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:]) if e1 > 1e-9 and e2 > 1e-9]
    ok = bool(ratios) and all(3.5 <= r <= 4.5 for r in ratios)
    return CheckResult(
        "convergence", ok,
        "ratios=" + ",".join(f"{r:.2f}" for r in ratios),
        "[3.5, 4.5]",
        "error reduction per grid halving, level 0, a=2.0",
    )


def check_bessel_hermite():
    grid = np.linspace(-2.0, 2.0, 17)
    hermites = [specfun.hermite(n, grid) for n in range(7)]

    def errors(n, nu):
        return np.abs(limits.scaled_bessel(n, grid, nu) - hermites[n])

    ratios = []
    for n in range(1, 7):
        ladder = [float(np.max(errors(n, nu))) for nu in limits.NU_LADDER]
        ratios += [e4 / e1 for e1, e4 in zip(ladder, ladder[1:]) if e1 > 1e-8]
    rate_ok = all(0.35 <= r <= 0.65 for r in ratios)

    sup = max(
        float(np.max(errors(n, 2e8) / np.maximum(1.0, np.abs(hermites[n])))) for n in range(7)
    )
    ok = rate_ok and sup <= 0.05
    return CheckResult(
        "bessel-hermite", ok,
        f"sup@nu=2e+08: {sup:.3f}; rate in [{min(ratios):.2f}, {max(ratios):.2f}]",
        "sup<=0.05, rate in [0.35, 0.65]",
        "scaled Bessel polynomials against Hermite, O(nu^-1/2) rate",
    )


def check_wavefunction_limit():
    ok = True
    summary = []
    for n in (0, 1, 2):
        ds = [limits.wavefunction_distance(model.ModelParams(a=a), n) for a in limits.A_SWEEP]
        decreasing = all(d2 < d1 for d1, d2 in zip(ds, ds[1:]))
        ratio = ds[-1] / ds[0]
        ok = ok and decreasing and ratio <= 0.2
        summary.append(f"n={n}: ratio={ratio:.3f} dec={decreasing}")
    return CheckResult(
        "wavefunction-limit", ok, "; ".join(summary), "decreasing, ratio<=0.2",
        "sign-minimized L2 distance to the canonical states",
    )


def check_continuum_vanishing():
    """|psi_E(1)| falls along limits.CONTINUUM_A_SWEEP at fixed q = 2."""
    sweep = limits.continuum_magnitude(
        [model.ModelParams(a=a) for a in limits.CONTINUUM_A_SWEEP], 2.0, 1.0
    )
    vals = sweep.metric_values
    ok = all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    return CheckResult(
        "continuum-vanishing", ok,
        ", ".join(f"a={a}: {v:.4f}" for a, v in zip(sweep.parameter_values, vals)),
        "strictly decreasing",
        "|psi_E(1.0)| at fixed q=2.0",
    )


# Every check by name, as (run, in the default battery); the default battery
# runs in this order.  run takes the a_values, grid_points and eigen_tol of
# run_checks by keyword: a_values reach the four checks run per a, grid_points
# and eigen_tol the eigensolver, and every other check runs at fixed settings.
CHECKS = {
    "level-counts": (lambda **_: check_level_counts(), True),
    "ground-state": (lambda **_: check_ground_state(), True),
    "spectrum-shape": (lambda a_values, **_: check_spectrum_shape(a_values), True),
    "orthonormality": (lambda a_values, **_: check_orthonormality(a_values), True),
    "dual-form": (lambda a_values, **_: check_dual_form(a_values), True),
    "ode-residual": (lambda a_values, **_: check_ode_residual(a_values), True),
    "continuum-residual": (lambda **_: check_continuum_residual(), True),
    "factorization": (lambda **_: check_factorization(), True),
    "eigensolver": (
        lambda grid_points, eigen_tol, **_: check_eigensolver(grid_points, eigen_tol),
        True,
    ),
    "bessel-hermite": (lambda **_: check_bessel_hermite(), True),
    "convergence": (lambda **_: check_convergence(), False),
    "wavefunction-limit": (lambda **_: check_wavefunction_limit(), False),
    "continuum-vanishing": (lambda **_: check_continuum_vanishing(), False),
}

DEFAULT_CHECKS = tuple(name for name, (_, default) in CHECKS.items() if default)


def run_checks(names=None, a_values=A_VALUES, grid_points=GRID_POINTS, eigen_tol=EIGEN_TOL):
    """Run the named checks (default set if names is None); returns results."""
    if names is None:
        names = DEFAULT_CHECKS
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {sorted(CHECKS)}")
    return [
        CHECKS[n][0](a_values=a_values, grid_points=grid_points, eigen_tol=eigen_tol)
        for n in names
    ]
