"""Named verification checks driven by the verify command and the test suite.

Each check compares a closed form against an independent route (quadrature,
finite differences, recurrence identities) and reports a measured worst case
next to its bound, so failures carry numbers rather than booleans.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import canonical, limits, model, oracle, specfun
from .errors import NonConvergence

# Default of pdem verify: the a values of the checks run per a.
A_VALUES = (1.0, 2.0)


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


# bound_overlap's quadrature tolerance, and the cuts of its live range
# (_live_range): the majorant of the integrand is at most _LIVE_LEVEL at a cut
# and falls off past it at a rate of at least _LIVE_SLOPE in d, so each side
# drops at most _LIVE_LEVEL / _LIVE_SLOPE = 1e-15, 1e-4 of the tolerance.
_OVERLAP_TOL = 1e-11
_LIVE_LEVEL = 1e-18
_LIVE_SLOPE = 1e-3
# Newton steps toward a cut at most, and the step in d that ends them.
_LIVE_STEPS = 12
_LIVE_STEP_STOP = 1e-2
_LN2 = math.log(2.0)


def bound_overlap(params, m, n):
    """<psi_m, psi_n> over the whole domain (-a, infinity).

    In the Morse variable v = b^2/s = l0^2 a^3 / (x+a), which maps the
    infinite tail to v -> 0 and the wall to v -> infinity, the overlap is
    the integral over d = ln(v/v*), v* = b^2 - 1/2, of the integrand of
    _overlap_integrand, which depends on the constants only through b^2.
    Near threshold it goes like v^(p-1) in v, singular at 0, which a
    quadrature could only resolve by halving about 40 times toward the lower
    end; in d it is e^(p d), smooth (p = 2b^2-m-n-1 > 0 for every pair of
    levels).  The integrand underflows to exact zero inside the wall layer,
    so the upper end in v only needs to overshoot it.

    Below the lower end v_lo the integrand in v is f(v) = A v^(p-1)
    (1 + c v) to first order, with c = m/(m-b^2) + n/(n-b^2) - 2 (from e^(-2v)
    and the top two coefficients of y_m and y_n).  That piece is added in
    closed form, f(v_lo) v_lo / p * (1 - c v_lo / (p+1)), where f(v_lo) v_lo
    is the integrand in d at ln(v_lo/v*).  Near threshold it is far from
    negligible: 3e-3 of the norm at b^2 - n = 0.64, all of it as b^2 - n
    approaches 1/2.  Without the c term it would be off by c v_lo, 2e-8 of
    the norm for the top level at b^2 = 39.52.

    The quadrature runs only over the live range of the integrand
    (_live_range), inside _overlap_range(b^2), and the closed-form piece is
    taken at its lower end.  Each integrand call runs one Bessel recurrence
    for both levels, at the nodes and at the lower end of the live range.
    oracle.integrate's first round leaves most overlaps at that one call,
    and every pair at a = 2 and a = 3 at 2 calls or fewer.  Raises
    DomainError where b^2 is past model.PSI_LOG_TOL, LevelOutOfRange for a
    level that is not bound, and NonConvergence where the integrand or the
    result is not finite.
    """
    model.require_level(params, m)
    model.require_level(params, n)
    b2 = params.b2
    integrand, phi = _overlap_integrand(b2, m, n)
    d_lo, d_hi = _live_range(phi, *_overlap_range(b2))
    at_lo = []

    def body(d):
        values = integrand(np.append(d, d_lo))
        at_lo.append(values[-1])
        return values[:-1]

    total = oracle.integrate(body, d_lo, d_hi, _OVERLAP_TOL)
    p = 2.0 * b2 - m - n - 1.0
    c = m / (m - b2) + n / (n - b2) - 2.0
    total += at_lo[0] / p * (1.0 - c * (b2 - 0.5) * math.exp(d_lo) / (p + 1.0))
    if not math.isfinite(total):
        raise NonConvergence(f"the overlap <{m}|{n}> at b^2 = {b2!r} is not finite")
    return total


def _overlap_range(b2):
    """(d_lo, d_hi): the range in d = ln(v/v*) that bound_overlap integrates
    before its live range is cut.  v_lo = 1e-12 b^3 is where the closed-form
    piece below it is accurate, and v_hi = 450 + 2 b^2 ln 1e3 lies inside the
    wall layer, where the integrand has underflowed to zero."""
    v_star = b2 - 0.5
    return (math.log(1e-12 * b2 * math.sqrt(b2) / v_star),
            math.log((450.0 + 2.0 * b2 * math.log(1e3)) / v_star))


def _overlap_integrand(b2, m, n):
    """(integrand, phi): the integrand of bound_overlap at b^2 in
    d = ln(v/v*), on a 1-d array of nodes, and a concave bound phi on its
    log, d -> (phi, dphi/dd), for _live_range.

    With x + a = l0^2 a^3 / v, psi_m psi_n dx = phi_m phi_n dd, the product
    of the levels' Morse states (model.morse_phi), whose constants are
    formed once here.  A node costs an exponential for 1/v = e^(-d)/v*, one
    recurrence for both levels, an expm1 for v - v* = v* expm1(d) and the
    exponential of the summed log rows and exponents of the Bessel rows.
    Raises DomainError where b^2 is past model.PSI_LOG_TOL.

    With K the sum of the constants and model.morse_phi's bound on |y_n|,
    the log of the integrand is at most
    phi = K + 2v* (d - expm1(d)) + (m+n) ln(1 + b^2/v), concave in d (its
    second derivative is v ((m+n) b^2/(v+b^2)^2 - 2), and m + n < 2b^2).
    """
    levels = (m, n)
    constants = model.morse_constants(b2, levels)
    log_k = float(constants[0] + constants[1])
    v_star = b2 - 0.5

    def integrand(d):
        log_rows, (exponent, y, _, _) = model.morse_phi(
            b2, levels, constants, d, v_star * np.expm1(d), np.exp(-d) / v_star
        )
        return np.exp(log_rows[0] + log_rows[1] + _LN2 * (exponent[0] + exponent[1])) * y[0] * y[1]

    def phi(d):
        v = v_star * math.exp(d)
        return (log_k + 2.0 * v_star * (d - math.expm1(d)) + (m + n) * math.log1p(b2 / v),
                2.0 * (v_star - v) - (m + n) * b2 / (v + b2))

    return integrand, phi


def _live_range(phi, d_lo, d_hi):
    """[d_lo, d_hi] cut to where exp(phi) can exceed _LIVE_LEVEL, for a
    concave phi (_overlap_integrand).

    From each end where phi is below ln _LIVE_LEVEL, Newton steps toward
    that level stay outside its root, because the tangent of a concave
    function lies above it.  The cut is the last iterate where phi is at
    most the level and falls outward at a rate of at least _LIVE_SLOPE: past
    it exp(phi) lies below an exponential of that rate, so the mass dropped
    there is at most _LIVE_LEVEL / _LIVE_SLOPE.  An end where phi is above
    the level stays.
    """
    level = math.log(_LIVE_LEVEL)

    def cut(end, outward):
        d = best = end
        for _ in range(_LIVE_STEPS):
            value, slope = phi(d)
            fall = -outward * slope
            if not (value <= level and fall >= _LIVE_SLOPE):
                break
            best = d
            step = (level - value) / fall  # inward, to the Newton iterate
            if step <= _LIVE_STEP_STOP:
                break
            d -= outward * step
        return best

    return cut(d_lo, -1.0), cut(d_hi, 1.0)


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
        energies = model.level_energy(p, np.arange(len(model.bound_levels(p))))
        v_inf = model.well_depth(p)
        gaps = np.diff(energies)
        if (gaps <= 0.0).any():
            return CheckResult("spectrum-shape", False, f"a={a}: non-positive gap", ">0", detail)
        if (gaps[1:] >= gaps[:-1]).any():
            return CheckResult("spectrum-shape", False, f"a={a}: gaps not decreasing", "", detail)
        if (energies > v_inf + 1e-12).any():
            return CheckResult("spectrum-shape", False, f"a={a}: level above depth", "<= V_inf", detail)
    return CheckResult("spectrum-shape", True, "ok", "", detail)


def check_orthonormality(a_values):
    worst = 0.0
    for a in a_values:
        p = model.ModelParams(a=a)
        levels = model.bound_levels(p)
        for m in levels:
            for n in levels[m:]:
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
        states = model.bound_states(p, model.bound_levels(p))
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
        states = model.bound_states(p, model.bound_levels(p))
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


def check_eigensolver():
    """FD eigenvalues of levels 0 and 1 at a = 2 against the closed-form
    spectrum, on 4001 rows of the graded u-grid
    (oracle.build_graded_hamiltonian)."""
    p = model.ModelParams(a=2.0)
    lams = oracle.lowest_eigenvalues(oracle.build_graded_hamiltonian(p, 4001), 2)
    exact = [model.energy(p, n).energy for n in (0, 1)]
    worst = max(abs(lam - e) / abs(e) for lam, e in zip(lams, exact))
    return CheckResult(
        "eigensolver", worst <= 1e-5, f"{worst:.3e}", "1e-05",
        "finite-difference levels [0, 1] vs closed form, a=2.0, 4001 rows, "
        "graded grid in u = 1/(x+a)",
    )


def check_convergence():
    """Error reduction per halving of the graded u-grid's spacing, every level
    at a = 2: second order makes each ratio 4."""
    p = model.ModelParams(a=2.0)
    levels = model.bound_levels(p)
    exact = [model.energy(p, n).energy for n in levels]
    ladder = (501, 1003, 2007, 4015)  # rows + 1 doubles
    errs = []
    for rows in ladder:
        lams = oracle.lowest_eigenvalues(oracle.build_graded_hamiltonian(p, rows), len(exact))
        errs.append([abs(lam - e) for lam, e in zip(lams, exact)])
    ratios = [e1 / e2 for c, f in zip(errs, errs[1:]) for e1, e2 in zip(c, f)]
    ok = all(3.9 <= r <= 4.1 for r in ratios)
    return CheckResult(
        "convergence", ok,
        f"ratios in [{min(ratios):.3f}, {max(ratios):.3f}]",
        "[3.9, 4.1]",
        f"error reduction per halving of the graded u-grid spacing, levels 0-{levels[-1]}, "
        f"a=2.0, {ladder[0]}-{ladder[-1]} rows",
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
    a_values = limits.CONTINUUM_A_SWEEP
    vals = limits.continuum_magnitude([model.ModelParams(a=a) for a in a_values], 2.0, 1.0)
    ok = all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    return CheckResult(
        "continuum-vanishing", ok,
        ", ".join(f"a={a}: {v:.4f}" for a, v in zip(a_values, vals)),
        "strictly decreasing",
        "|psi_E(1.0)| at fixed q=2.0",
    )


# Every check by name, as (run, in the default battery); the default battery
# runs in this order.  run takes the a_values of run_checks, which reach the
# four checks run per a; every other check runs at fixed settings.
CHECKS = {
    "level-counts": (lambda _: check_level_counts(), True),
    "ground-state": (lambda _: check_ground_state(), True),
    "spectrum-shape": (check_spectrum_shape, True),
    "orthonormality": (check_orthonormality, True),
    "dual-form": (check_dual_form, True),
    "ode-residual": (check_ode_residual, True),
    "continuum-residual": (lambda _: check_continuum_residual(), True),
    "factorization": (lambda _: check_factorization(), True),
    "eigensolver": (lambda _: check_eigensolver(), True),
    "bessel-hermite": (lambda _: check_bessel_hermite(), True),
    "convergence": (lambda _: check_convergence(), False),
    "wavefunction-limit": (lambda _: check_wavefunction_limit(), False),
    "continuum-vanishing": (lambda _: check_continuum_vanishing(), False),
}

DEFAULT_CHECKS = tuple(name for name, (_, default) in CHECKS.items() if default)


def run_checks(names=None, a_values=A_VALUES):
    """Run the named checks (default set if names is None); returns results."""
    if names is None:
        names = DEFAULT_CHECKS
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {sorted(CHECKS)}")
    return [CHECKS[n][0](a_values) for n in names]
