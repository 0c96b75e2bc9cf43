"""Seeded task batches for the three benchmark workloads, with their checks.

A batch is a list of Task objects.  The benchmark times task.call() and,
outside the timed region, passes its output to task.check(), which compares it
against an independent route at the package's stated tolerance and returns
None on success or a one-line failure reason.

Every draw comes from random.Random(seed), so the package receives plain
Python floats only (numpy scalars break argparse).  Draws that set the cost
or the outcome of a task (b^2, grid rows, a, energy, position, level) are
stratified: one draw per equal-width stratum, in shuffled order.  That keeps
the batch's total work nearly the same from seed to seed while every value
stays continuous and seeded.  No draw is filtered.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from pdem import checks, cli, limits, model, oracle

# Tolerances the package states (README, checks.py).
DUAL_FORM_TOL = 1e-10
ODE_RESIDUAL_TOL = 1e-6
OVERLAP_TOL = 1e-8
# Relative FD error allowed for the ground level on the coarsest grid the
# fd-spectrum workload draws (2000 rows); the measured worst case is 3.6e-5.
FD_GROUND_TOL = 1e-4

# Each task's time comes from about ten or more rounds of its batch, so the
# batches are sized for rounds of a few seconds: bound-states and fd-spectrum
# keep to about 100-110 tasks, most of them tens of milliseconds long.

# (m0, omega, hbar) are drawn log-uniform on this range around 1.
CONSTANT_RANGE = (0.8, 1.25)

# bound-states: b^2 draws, their range, overlap pairs per draw, and the b^2
# from which a draw also gets a wavefunction_distance task.
BOUND_DRAWS = 20
BOUND_B2_RANGE = (1.0, 16.0)
OVERLAP_PAIRS = 3
DISTANCE_FROM_B2 = 9.0

# fd-spectrum: FD tasks, their b^2 range and their grid rows (log-stratified).
# Each check of the default `pdem verify` battery is a task of its own.
FD_DRAWS = 90
FD_B2_RANGE = (5.0, 12.0)
FD_ROWS_RANGE = (2000, 8000)

# continuum: draws of (a, E / V_inf), and points per draw.
CONTINUUM_DRAWS = 80
CONTINUUM_A_RANGE = (2.0, 8.0)
CONTINUUM_ENERGY_RANGE = (1.1, 3.0)
CONTINUUM_POINTS = 12

# Task kinds with no failing draw at the baseline.  A failure of one of these
# is a regression, and makes the run incorrect rather than only lowering
# pass_rate.  The other kinds fail on known defects (see README.md).
MUST_PASS = frozenset({"spectrum", "distance", "fd", "verify"})


@dataclass(frozen=True)
class Task:
    """One timed unit of work and the check of its output."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv):
    """pdem.cli.main in-process, with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def digest(output):
    """Short fingerprint used to confirm that repeated rounds reproduce round 0."""
    if isinstance(output, CliResult):
        text = f"{output.code}\n{output.out}\n{output.err}"
        return hashlib.sha1(text.encode()).hexdigest()
    return repr(output)


def _stratified(rng, count, lo, hi, log=False):
    """count draws, one uniform draw in each equal-width stratum of [lo, hi]."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    values = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return [math.exp(v) for v in values] if log else values


def _params(rng, b2=None, a=None):
    """ModelParams with log-uniform constants and either (lambda0 a)^2 = b2 or a given a."""
    lo, hi = (math.log(v) for v in CONSTANT_RANGE)
    m0, omega, hbar = (math.exp(rng.uniform(lo, hi)) for _ in range(3))
    if a is None:
        a = math.sqrt(b2 * hbar / (m0 * omega))
    return model.ModelParams(m0=m0, omega=omega, hbar=hbar, a=a)


def _common_argv(p):
    return ["--a", repr(p.a), "--m0", repr(p.m0), "--omega", repr(p.omega), "--hbar", repr(p.hbar)]


def _cli_failure(res):
    if res.code != 0:
        return f"exit code {res.code}: {res.err.strip()}"
    return None


# --- bound-states -----------------------------------------------------------

def _wavefunction_task(p):
    levels = list(range(model.max_level(p) + 1))
    argv = ["wavefunction", "--format", "json", *_common_argv(p)]
    for n in levels:
        argv += ["--n", str(n)]

    def check(res):
        bad = _cli_failure(res)
        if bad:
            return bad
        columns = json.loads(res.out)["columns"]
        worst = 0.0
        for n in levels:
            for x, vb in zip(columns["x"], columns[f"psi_{n}"]):
                vl = model.wavefunction(p, n, x, model.WavefunctionForm.LAGUERRE)
                if vb is None or not (math.isfinite(vb) and math.isfinite(vl)):
                    return f"non-finite psi_{n} at x={x!r}"
                if vb == 0.0 and vl == 0.0:
                    continue
                worst = max(worst, abs(vb - vl) / max(abs(vb), abs(vl)))
        if worst > DUAL_FORM_TOL:
            return f"Bessel vs Laguerre {worst:.3e} > {DUAL_FORM_TOL:.0e}"
        return None

    return Task("wavefunction", lambda: run_cli(argv), check)


def _spectrum_task(p):
    argv = ["spectrum", "--format", "json", *_common_argv(p)]
    count = math.ceil(p.b2 - 0.5)  # levels strictly below b^2 - 1/2, counted from n = 0

    def check(res):
        bad = _cli_failure(res)
        if bad:
            return bad
        columns = json.loads(res.out)["columns"]
        if columns["n"] != list(range(count)):
            return f"levels {columns['n']} != 0..{count - 1}"
        for n, e in zip(columns["n"], columns["energy"]):
            exact = p.hbar * p.omega * (n + 0.5) - p.hbar**2 * n * (n + 1) / (2 * p.m0 * p.a**2)
            if not abs(e - exact) <= 1e-12 * abs(exact):
                return f"E_{n}={e!r} != {exact!r}"
        return None

    return Task("spectrum", lambda: run_cli(argv), check)


def _overlap_task(p, m, n):
    expected = 1.0 if m == n else 0.0

    def check(value):
        if not math.isfinite(value):
            return "non-finite overlap"
        if abs(value - expected) > OVERLAP_TOL:
            return f"|<{m}|{n}> - delta| = {abs(value - expected):.3e} > {OVERLAP_TOL:.0e}"
        return None

    return Task("overlap", lambda: checks.bound_overlap(p, m, n), check)


def _distance_task(p, n):
    def check(value):
        if not math.isfinite(value):
            return "non-finite distance"
        if not 0.0 <= value <= math.sqrt(2.0) + 1e-9:
            return f"distance {value!r} outside [0, sqrt 2]"
        return None

    return Task("distance", lambda: limits.wavefunction_distance(p, n), check)


def bound_states(seed):
    rng = random.Random(seed)
    d_fracs = _stratified(rng, BOUND_DRAWS, 0.0, 1.0)
    tasks = []
    for i, b2 in enumerate(_stratified(rng, BOUND_DRAWS, *BOUND_B2_RANGE)):
        p = _params(rng, b2=b2)
        count = model.max_level(p) + 1
        tasks.append(_wavefunction_task(p))
        tasks.append(_spectrum_task(p))
        # Levels are stratified fractions of the level count within each draw,
        # so every b^2 gets low and high levels alike and the quadrature work
        # of the batch changes little from seed to seed.
        m_fracs = _stratified(rng, OVERLAP_PAIRS, 0.0, 1.0)
        n_fracs = _stratified(rng, OVERLAP_PAIRS, 0.0, 1.0)
        for m_frac, n_frac in zip(m_fracs, n_fracs):
            tasks.append(_overlap_task(p, int(m_frac * count), int(n_frac * count)))
        if b2 >= DISTANCE_FROM_B2:
            tasks.append(_distance_task(p, int(d_fracs[i] * count)))
    rng.shuffle(tasks)
    return tasks


# --- fd-spectrum ------------------------------------------------------------

def _fd_task(p, rows):
    # The box reaches a + 40/lambda0: far enough that the power-law tail of
    # the ground level loses less than the tolerance (b^2 >= 5 here).
    grid = oracle.Grid(x_min=-p.a + 1e-3 * p.a, x_max=p.a + 40.0 / p.lambda0, count=rows)

    def call():
        return oracle.lowest_eigenvalues(oracle.build_hamiltonian(p, grid), 1)

    def check(lams):
        exact = model.energy(p, 0).energy
        err = abs(lams[0] - exact) / abs(exact)
        if not err <= FD_GROUND_TOL:
            return f"FD ground level: relative error {err:.3e} > {FD_GROUND_TOL:.0e}"
        return None

    return Task("fd", call, check)


def _verify_task(argv):
    return Task("verify", lambda: run_cli(argv), _cli_failure)


def fd_spectrum(seed):
    rng = random.Random(seed)
    b2s = _stratified(rng, FD_DRAWS, *FD_B2_RANGE)
    rows = _stratified(rng, FD_DRAWS, *FD_ROWS_RANGE, log=True)
    tasks = [_fd_task(_params(rng, b2=b2), round(r)) for b2, r in zip(b2s, rows)]
    tasks += [_verify_task(["verify", "--check", name]) for name in checks.DEFAULT_CHECKS]
    rng.shuffle(tasks)
    return tasks


# --- continuum --------------------------------------------------------------

def _continuum_point_task(p, state, x):
    def call():
        psi = lambda t: model.continuum_wavefunction_with_derivatives(state, p, t)
        return oracle.ode_residual(p, psi, state.energy, x)

    def check(residual):
        if not residual <= ODE_RESIDUAL_TOL:
            return f"ODE residual {residual!r} > {ODE_RESIDUAL_TOL:.0e}"
        return None

    return Task("continuum-point", call, check)


def _continuum_limit_task(q, x, a_values, constants):
    argv = ["limit", "--kind", "continuum", "--format", "json", "--q", repr(q), "--x", repr(x)]
    argv += ["--m0", repr(constants[0]), "--omega", repr(constants[1]), "--hbar", repr(constants[2])]
    for a in a_values:
        argv += ["--a-value", repr(a)]

    def check(res):
        bad = _cli_failure(res)
        if bad:
            return bad
        magnitudes = json.loads(res.out)["columns"]["magnitude"]
        finite = all(v is not None and math.isfinite(v) for v in magnitudes)
        if len(magnitudes) != len(a_values) or not finite:
            return f"bad magnitudes {magnitudes!r}"
        return None

    return Task("continuum-limit", lambda: run_cli(argv), check)


def continuum(seed):
    rng = random.Random(seed)
    tasks = []
    columns = zip(
        _stratified(rng, CONTINUUM_DRAWS, *CONTINUUM_A_RANGE),
        _stratified(rng, CONTINUUM_DRAWS, *CONTINUUM_ENERGY_RANGE),  # E / V_inf
        _stratified(rng, CONTINUUM_DRAWS, 1.0, 4.0),  # q of the limit sweep
        _stratified(rng, CONTINUUM_DRAWS, 0.0, 2.0),  # x of the limit sweep
    )
    for a, e_frac, q, x in columns:
        p = _params(rng, a=a)
        state = model.continuum_state(p, e_frac * model.well_depth(p))
        # positions log-spaced in x + a, from a/50 off the wall to 12/lambda0 past x = a
        for s in _stratified(rng, CONTINUUM_POINTS, a / 50.0, 2.0 * a + 12.0 / p.lambda0, log=True):
            tasks.append(_continuum_point_task(p, state, s - a))
        # the sweep ends at the stratified a, which sets how hard its Kummer sums are
        a_pair = (rng.uniform(CONTINUUM_A_RANGE[0], a), a)
        tasks.append(_continuum_limit_task(q, x, a_pair, (p.m0, p.omega, p.hbar)))
    rng.shuffle(tasks)
    return tasks


WORKLOADS = {
    "bound-states": bound_states,
    "fd-spectrum": fd_spectrum,
    "continuum": continuum,
}
