import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

from pdem import checks, cli, model
from pdem.errors import PdemError

PDEM = [sys.executable, "-m", "pdem.cli"]


def run_cli(*args):
    """cli.main(args) in-process with stdout and stderr captured; a
    SystemExit (argparse's usage errors and --help) becomes the return code.
    An exception that escapes main propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def run_process(command, *args):
    """The CLI as a separate process, started by command."""
    return subprocess.run(command + list(args), capture_output=True, text=True, timeout=300)


def test_module_entry_point_matches_in_process():
    argv = ["spectrum", "--a", "2", "--format", "json"]
    proc = run_process(PDEM, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, run_cli(*argv).stdout, "")


def test_console_script_matches_in_process():
    # the installed pdem script, or where it is not installed the code pip
    # writes for the entry point pyproject.toml declares
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert '\npdem = "pdem.cli:main"\n' in pyproject
    script = [sys.executable, "-c", "import sys; from pdem.cli import main; sys.exit(main())"]
    argv = ["wavefunction", "--a", "2", "--n", "1", "--points", "9"]
    proc = run_process(["pdem"] if shutil.which("pdem") else script, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, run_cli(*argv).stdout, "")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--a", "1e200"],
    ["profile", "--x-max", "inf"],
    ["wavefunction", "--a", "1", "--n", "1"],
    ["limit", "--kind", "bessel-hermite", "--n", "400", "--x", "0.3"],
], ids=["b2-overflow", "infinite-range", "level", "hermite-overflow"])
def test_process_refusals_exit_2_without_traceback(argv):
    proc = run_process(PDEM, *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_spectrum_a1_single_row():
    proc = run_cli("spectrum", "--a", "1")
    assert proc.returncode == 0
    meta, header, rows = parse_csv(proc.stdout)
    assert meta["n_max"] == "0"
    assert len(rows) == 1
    assert float(rows[0][header.index("energy")]) == 0.5


def test_spectrum_a2_four_rows():
    proc = run_cli("spectrum", "--a", "2")
    assert proc.returncode == 0
    meta, header, rows = parse_csv(proc.stdout)
    assert len(rows) == 4
    assert float(rows[-1][header.index("energy")]) == 2.0
    assert meta["v_inf"] == "2.0"


def test_invalid_a_exits_2():
    proc = run_cli("spectrum", "--a", "0.5")
    assert proc.returncode == 2
    assert "sqrt(2)" in proc.stderr and "lambda0" in proc.stderr


@pytest.mark.parametrize("flag", ["--a", "--m0", "--omega", "--hbar"])
def test_non_finite_constant_exits_2(flag):
    proc = run_cli("spectrum", flag, "inf")
    assert proc.returncode == 2
    assert "must be finite" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["--a", "1e200"],
    ["--hbar", "1e300", "--m0", "1e-30", "--omega", "1e-10"],
    ["--a", "1e8"],
    # b^2 = 0.6 and V_inf = 1.5e308, so E_0 = V_inf / b^2 = 2.5e308
    ["--omega", "1.7320508e154", "--hbar", "2.8867513e154", "--a", "1"],
], ids=["b2-overflow", "lambda0-underflow", "level-cap", "energy-overflow"])
def test_extreme_finite_constants_exit_2(args):
    proc = run_cli("spectrum", *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_level_cap_returns_quickly(capsys):
    # 10^16 levels at a = 1e8: refused up front instead of written out
    start = time.perf_counter()
    assert cli.main(["spectrum", "--a", "1e8"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "cap" in capsys.readouterr().err


def test_verify_level_cap_returns_quickly(capsys):
    # every check run per a loops over all its levels: refused before any runs
    start = time.perf_counter()
    assert cli.main(["verify", "--a", "1e8", "--check", "spectrum-shape"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "cap" in captured.err


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--a", "120", "--n", "0"],
    ["limit", "--kind", "wavefunction", "--a-value", "50", "--a-value", "150"],
    ["limit", "--kind", "energy", "--n", "3", "--a-value", "1e8"],
], ids=["wavefunction", "distance", "energy"])
def test_low_levels_past_the_level_cap(argv):
    # 14 399, 2 499 to 22 499 and 10^16 levels: the cap bounds the level
    # asked for, not b^2
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--a", "1e8", "--n", "0"],
    ["limit", "--kind", "wavefunction", "--a-value", "1e8"],
], ids=["wavefunction", "distance"])
def test_bound_states_past_the_precision_bound_exit_2(argv, capsys):
    # b^2 = 1e16: ln C_0 and the log prefactor cancel in terms near 3.7e17
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "accuracy" in captured.err


def test_spectrum_where_hbar_omega_overflows():
    # hbar w = 3.24e308 is past the float ceiling, E_0 = hbar w / 2 = V_inf
    # is not: the unit hbar w = 2 V_inf / b^2 is applied last
    proc = run_cli("spectrum", "--m0", "1", "--a", "1", "--omega", "1.8e154", "--hbar", "1.8e154")
    assert (proc.returncode, proc.stderr) == (0, "")
    meta, header, rows = parse_csv(proc.stdout)
    assert meta["n_max"] == "0" and len(rows) == 1
    for key in ("energy", "canonical_energy"):
        assert float(rows[0][header.index(key)]) == pytest.approx(1.62e308, rel=1e-15)


def test_limit_continuum_huge_a_exits_2(capsys):
    # (lambda0 a)^2 = 1e200 squared leaves the float range
    argv = ["limit", "--kind", "continuum", "--a-value", "1e100", "--a-value", "2e100"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["profile", "--points", "1000001"],
    ["wavefunction", "--points", str(10**15)],
], ids=["profile", "wavefunction"])
def test_grid_size_caps_exit_2(argv, capsys):
    # refused before any grid is built: numpy's MemoryError would escape
    # the handler
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cap" in err and err.count("\n") == 1


def test_main_reuses_one_parser(capsys):
    # main parses with one parser per process; no repeatable option or
    # default may carry over from one call to the next
    runs = [
        ["wavefunction", "--n", "0", "--n", "1", "--points", "7"],
        ["wavefunction", "--n", "2", "--points", "7"],
        ["limit", "--kind", "continuum", "--a-value", "2", "--a-value", "4", "--format", "json"],
    ]
    shared = []
    for argv in runs:
        assert cli.main(argv) == 0
        shared.append(capsys.readouterr())
    assert cli.build_parser() is cli.build_parser()
    for argv, output in zip(runs, shared):
        cli.build_parser.cache_clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr() == output
    assert "psi_1" in shared[0].out and "psi_1" not in shared[1].out
    assert "psi_2" in shared[1].out and "psi_0" not in shared[1].out


def test_unknown_flag_exits_2():
    proc = run_cli("spectrum", "--bogus", "1")
    assert proc.returncode == 2


def test_profile_values_and_wall_token():
    proc = run_cli("profile", "--a", "2", "--x-min", "-2", "--x-max", "2", "--points", "3")
    assert proc.returncode == 0
    _, header, rows = parse_csv(proc.stdout)
    xi = header.index("x")
    vi = header.index("potential")
    mi = header.index("mass")
    assert [r[xi] for r in rows] == ["-2.0", "0.0", "2.0"]
    assert rows[0][vi] == "inf" and rows[0][mi] == "inf"  # at the wall
    assert float(rows[1][vi]) == 0.0 and float(rows[1][mi]) == 1.0
    assert float(rows[2][vi]) == 0.5 and float(rows[2][mi]) == 0.25


def test_profile_where_squares_leave_the_float_range():
    # (a+x)^2 overflows past x ~ 1e154: V tends to V_inf = 2 and M to 0
    # there, instead of a traceback or nan
    proc = run_cli("profile", "--a", "2", "--x-min", "1e150", "--x-max", "1e200", "--points", "3")
    assert proc.returncode == 0, proc.stderr
    _, header, rows = parse_csv(proc.stdout)
    assert [r[header.index("potential")] for r in rows] == ["2.0"] * 3
    assert [float(r[header.index("mass")]) for r in rows] == [4e-300, 0.0, 0.0]
    # and it underflows to 0 within about 1e-162 of a wall at a = 1e-149
    proc = run_cli("profile", "--hbar", "1e-300", "--a", "1e-149",
                   "--x-min=-9.9999999999999e-150", "--x-max=-9.99e-150", "--points", "3")
    assert proc.returncode == 0, proc.stderr
    _, header, rows = parse_csv(proc.stdout)
    assert float(rows[0][header.index("potential")]) == pytest.approx(5.014984526558655e-271, rel=1e-15)
    assert float(rows[0][header.index("mass")]) == pytest.approx(1.002996905311751e+28, rel=1e-15)
    # where m0 w^2 a^2 x^2 underflows V is still M x^2 / 2, about 2e-292
    x = Fraction(float(rows[1][header.index("x")]))
    exact = Fraction(1e-149) ** 2 / (Fraction(1e-149) + x) ** 2 * x**2 / 2
    assert float(rows[1][header.index("potential")]) == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_limit_continuum_with_tiny_hbar():
    # hbar^2 underflows to 0 here; near x/a = 1e149 the magnitude is
    # (x/a + 1)^(-1/2) up to terms in 1/(x/a + 1)
    proc = run_cli("limit", "--kind", "continuum", "--hbar", "1e-300", "--q", "2", "--x", "1",
                   "--a-value", "1e-149", "--a-value", "2e-149", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    magnitudes = json.loads(proc.stdout)["columns"]["magnitude"]
    assert magnitudes == pytest.approx([(1e-149) ** 0.5, (2e-149) ** 0.5], rel=1e-13)


def test_limit_continuum_with_huge_a_over_hbar():
    # (a/hbar)^2 overflows here; psi depends on x/a, (lambda0 a)^2 and q
    # alone, so the unit constants at x = 1e-60 give the same magnitudes
    args = ("limit", "--kind", "continuum", "--q", "2", "--format", "json")
    proc = run_cli(*args, "--m0", "1e-220", "--hbar", "1e-100", "--x", "1",
                   "--a-value", "1e60", "--a-value", "2e60")
    assert proc.returncode == 0, proc.stderr
    unit = run_cli(*args, "--x", "1e-60", "--a-value", "1", "--a-value", "2")
    assert unit.returncode == 0, unit.stderr
    magnitudes = json.loads(proc.stdout)["columns"]["magnitude"]
    assert magnitudes == pytest.approx(json.loads(unit.stdout)["columns"]["magnitude"], rel=1e-13)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_profile_with_an_overflowing_well_depth_exits_2(fmt):
    # V_inf = 1e400 (a/2)^2 is past the float ceiling: the potentials would be inf
    proc = run_cli("profile", "--omega", "1e200", "--hbar", "1e200",
                   "--points", "3", "--format", fmt)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "well depth" in proc.stderr


@pytest.mark.parametrize("command", ["profile", "wavefunction"])
@pytest.mark.parametrize("limits", [
    ["--x-max", "inf"],
    ["--x-min=-inf"],
    ["--x-max", "nan"],
    ["--x-min=-1e308", "--x-max", "1e308"],
], ids=["inf", "minus-inf", "nan", "width-overflow"])
def test_non_finite_sample_range_exits_2(command, limits):
    proc = run_cli(command, *limits, "--format", "json")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: sample range") and proc.stderr.count("\n") == 1


def test_profile_json_wall_is_null():
    proc = run_cli("profile", "--a", "1", "--x-min", "-1.5", "--x-max", "0",
                   "--points", "4", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["meta"]["command"] == "profile"
    assert payload["columns"]["potential"][0] is None
    assert payload["columns"]["mass"][0] is None


def test_wavefunction_columns(params_a2):
    proc = run_cli("wavefunction", "--a", "2", "--n", "0", "--n", "1",
                   "--x-min", "-1", "--x-max", "3", "--points", "5", "--canonical")
    assert proc.returncode == 0
    _, header, rows = parse_csv(proc.stdout)
    assert header == ["x", "psi_0", "density_0", "psi_1", "density_1",
                      "canonical_0", "canonical_1"]
    for row in rows:
        x = float(row[0])
        psi0 = float(row[1])
        assert psi0 == pytest.approx(model.wavefunction(params_a2, 0, x), rel=1e-14)
        assert float(row[2]) == pytest.approx(psi0 * psi0, rel=1e-14)


def test_csv_has_no_numpy_scalars():
    # numpy 2 prints its scalars as np.float64(...); csv cells are repr()s
    for argv in (
        ["wavefunction", "--a", "2", "--n", "0", "--n", "3", "--canonical", "--points", "21"],
        ["limit", "--kind", "bessel-hermite", "--n", "3", "--x", "0.5"],
        ["limit", "--kind", "wavefunction", "--a-value", "3"],
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 0
        assert "np." not in proc.stdout


def test_wavefunction_level_out_of_range():
    proc = run_cli("wavefunction", "--a", "1", "--n", "1")
    assert proc.returncode == 2
    assert "0..0" in proc.stderr


def test_output_deterministic():
    a = run_cli("spectrum", "--a", "2", "--format", "json")
    b = run_cli("spectrum", "--a", "2", "--format", "json")
    assert a.stdout == b.stdout
    c = run_cli("wavefunction", "--a", "2", "--n", "2", "--points", "50")
    d = run_cli("wavefunction", "--a", "2", "--n", "2", "--points", "50")
    assert c.stdout == d.stdout


def test_csv_json_numeric_equality():
    csv_out = run_cli("spectrum", "--a", "3").stdout
    json_out = run_cli("spectrum", "--a", "3", "--format", "json").stdout
    _, header, rows = parse_csv(csv_out)
    payload = json.loads(json_out)
    for j, name in enumerate(header):
        col = payload["columns"][name]
        for i, row in enumerate(rows):
            # repr round-trip: the csv token parses back to the exact float
            assert float(row[j]) == col[i]


def test_out_file(tmp_path):
    target = tmp_path / "table.csv"
    proc = run_cli("spectrum", "--a", "1", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    text = target.read_text()
    assert text.endswith("\n") and "\r" not in text


@pytest.mark.parametrize("target", ["missing/table.csv", "."], ids=["missing-dir", "directory"])
def test_out_unwritable_exits_2(target, tmp_path):
    # open's OSError used to escape main as a traceback
    proc = run_cli("spectrum", "--out", str(tmp_path / target))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["spectrum", "--a", "2"], ["verify", "--check", "spectrum-shape"]])
def test_closed_stdout_pipe_exits_1_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedPipe()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 1 and err.getvalue() == ""
    # an --out file that cannot be written is still a usage error
    assert run_cli("spectrum", "--out", "/nonexistent/x.csv").returncode == 2


def test_closed_stdout_pipe_of_a_process():
    # more output than a pipe buffers, read one byte of, then closed: no
    # "Broken pipe" error and no "Exception ignored" at the last flush.
    # Buffered stdout, as by default, and unbuffered (PYTHONUNBUFFERED), whose
    # text layer would drop the rest of a short write to the closed pipe
    # without an error: the text goes out through stdout's binary buffer.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        proc = subprocess.Popen(
            PDEM + ["wavefunction", "--a", "2", "--points", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env | unbuffered,
        )
        proc.stdout.read(1)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=300), err) == (1, b""), unbuffered


def test_limit_bessel_hermite_table():
    proc = run_cli("limit", "--kind", "bessel-hermite", "--n", "2", "--x", "0")
    assert proc.returncode == 0
    _, header, rows = parse_csv(proc.stdout)
    errs = [float(r[header.index("abs_error")]) for r in rows]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_limit_bessel_hermite_overflow_exits_2():
    # H_400(0.3) leaves the float range; the table must not fill with nan
    proc = run_cli("limit", "--kind", "bessel-hermite", "--n", "400", "--x", "0.3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("nu", ["1.3e154", "1e200"])
def test_limit_bessel_hermite_coefficient_overflow_exits_2(nu):
    # the recurrence coefficients at alpha = -nu leave the float range; the
    # table printed 0.0 at 1.3e154, and at 1e200 NaN leaked a RuntimeWarning
    proc = run_cli("limit", "--kind", "bessel-hermite", "--nu", nu)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_wavefunction_far_out_with_canonical():
    proc = run_cli("wavefunction", "--a", "4", "--n", "8", "--n", "15", "--x-min", "1e34",
                   "--x-max", "1e40", "--points", "3", "--canonical")
    assert proc.returncode == 0
    _, header, rows = parse_csv(proc.stdout)
    assert len(rows) == 3 and len(header) == 7
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_limit_bessel_hermite_degree_cap_exits_2(capsys):
    start = time.perf_counter()
    assert cli.main(["limit", "--kind", "bessel-hermite", "--n", "10001", "--nu", "1e13"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"cap of {model.LEVEL_CAP}" in err


def test_limit_energy_table():
    proc = run_cli("limit", "--kind", "energy", "--n", "1",
                   "--a-value", "2", "--a-value", "10")
    _, header, rows = parse_csv(proc.stdout)
    gaps = [float(r[header.index("gap")]) for r in rows]
    assert gaps == [0.25, 0.01]


def test_limit_wavefunction_table():
    proc = run_cli("limit", "--kind", "wavefunction", "--n", "0",
                   "--a-value", "3", "--a-value", "5")
    assert proc.returncode == 0
    _, header, rows = parse_csv(proc.stdout)
    ds = [float(r[header.index("l2_distance")]) for r in rows]
    assert ds[1] < ds[0]


@pytest.mark.parametrize("kind", ["energy", "wavefunction", "continuum"])
@pytest.mark.parametrize("a_values", [("5", "3"), ("3", "3")], ids=["decreasing", "repeated"])
def test_limit_a_sweep_must_increase(kind, a_values):
    # every kind that sweeps a refuses a list that is not strictly increasing
    argv = ["limit", "--kind", kind]
    for a in a_values:
        argv += ["--a-value", a]
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: parameter values must be strictly increasing\n"


def test_spectrum_where_hbar_squared_overflows():
    # hbar^2 and a^2 leave the float range, (lambda0 a)^2 = 5.3 does not: the
    # levels and gaps come from hbar w and b^2, and add up to the ladder
    argv = ["spectrum", "--m0", "8.420664923106498e+120", "--omega", "7.477119218683197e-185",
            "--hbar", "1.2198418612478675e+192", "--a", "1.0133263956864385e+128"]
    proc = run_process(PDEM, *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    meta, header, rows = parse_csv(proc.stdout)
    assert meta["n_max"] == "4" and len(rows) == 5
    for row in rows:
        energy, ladder, gap = (float(row[header.index(k)]) for k in ("energy", "canonical_energy", "gap"))
        assert energy + gap == pytest.approx(ladder, rel=1e-15)


def test_limit_continuum_table():
    proc = run_cli("limit", "--kind", "continuum", "--q", "2", "--x", "1",
                   "--a-value", "2", "--a-value", "4")
    assert proc.returncode == 0
    _, header, rows = parse_csv(proc.stdout)
    mags = [float(r[header.index("magnitude")]) for r in rows]
    assert mags[1] < mags[0]


def test_verify_default_passes():
    proc = run_cli("verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")
    # run_checks() runs the default battery in DEFAULT_CHECKS order
    assert [l.split()[1].rstrip(":") for l in lines[:-1]] == list(checks.DEFAULT_CHECKS)


def test_verify_failing_check_exits_1(monkeypatch):
    failing = checks.CheckResult("always-fails", False, "1", "0")
    monkeypatch.setitem(checks.CHECKS, "always-fails", (lambda _: failing, False))
    proc = run_cli("verify", "--check", "level-counts", "--check", "always-fails")
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        checks.check_level_counts().line(),
        "FAIL always-fails: measured=1 bound=0",
        "1/2 checks passed",
    ]


def test_verify_check_filter():
    proc = run_cli("verify", "--check", "orthonormality")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 2  # one check plus the summary
    assert lines[0].startswith("PASS orthonormality")


def test_verify_unknown_check():
    proc = run_cli("verify", "--check", "nope")
    assert proc.returncode == 2
    assert "unknown checks: ['nope']" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "eigensolver", "--tol", "1"],
    ["verify", "--check", "eigensolver", "--grid-points", "50"],
    ["limit", "--kind", "wavefunction", "--n", "1", "--a-value", "3", "--tol", "1e-3"],
    ["limit", "--kind", "energy", "--a", "7"],  # not taken for --a-value
    ["limit", "--kind", "energy", "--a=7"],
], ids=["verify-tol", "verify-grid-points", "limit-tol", "limit-a", "limit-a-equals"])
def test_options_no_command_reads_exit_2(argv, capsys):
    # each check is a fixed claim, and no --kind of limit reads a single a
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_limit_reads_the_n_it_is_given():
    proc = run_cli("limit", "--kind", "energy", "--n", "5", "--a-value", "3")
    assert proc.returncode == 0, proc.stderr
    meta, header, rows = parse_csv(proc.stdout)
    assert meta["n"] == "5"
    assert float(rows[0][header.index("energy")]) == model.energy(model.ModelParams(a=3.0), 5).energy


@pytest.mark.parametrize("nu,code", [("1e14", 0), ("1.0000000000000002e14", 2), ("1e40", 2)])
def test_limit_bessel_hermite_nu_bound(nu, code):
    # at nu = 1e40 the printed limit was -1.7e17, for H_6(-1.1) = 161.8
    proc = run_cli("limit", "--kind", "bessel-hermite", "--n", "6", "--x", "-1.1", "--nu", nu)
    assert proc.returncode == code, proc.stderr


@pytest.mark.parametrize("flag", ["--m0", "--omega", "--hbar"])
def test_verify_takes_no_constants(flag, capsys):
    # every check runs at unit constants, so verify does not offer them
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--check", "level-counts", flag, "4"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_help_names_every_check():
    proc = run_cli("verify", "--help")
    assert proc.returncode == 0
    help_text = "".join(proc.stdout.split())  # argparse wraps lines, also at hyphens
    for name in checks.CHECKS:
        assert name in help_text


@pytest.mark.parametrize("name", [n for n in checks.CHECKS if n not in checks.DEFAULT_CHECKS])
def test_verify_non_default_check_runs(name):
    proc = run_cli("verify", "--check", name)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0].startswith(f"PASS {name}:")


def test_verify_a_sets_the_checks_run_per_a():
    proc = run_cli("verify", "--a", "3", "--check", "orthonormality")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "a in [3.0])" in proc.stdout.splitlines()[0]


def test_verify_invalid_a_exits_2():
    # refused before any check runs
    proc = run_cli("verify", "--a", "0.5")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _parsed(parse, argv):
    """vars() of parse(argv)'s namespace, or the exit code, stdout and
    stderr of the SystemExit it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["spectrum"], ["spectrum", "--a", "3", "--a=2.5", "--format", "json", "--m0", "-1"],
    ["profile", "--x-min=-2", "--x-max", "6", "--points", "3", "--points", "5"],
    ["profile", "--x-min", "-2", "--out", "t.csv"],
    ["wavefunction", "--n", "0", "--n", "3", "--canonical", "--x-min=-1e-3"],
    ["verify"], ["verify", "--a", "2", "--a", "-3", "--check", "spectrum-shape", "--check", "nope"],
    ["limit", "--kind", "energy", "--a-value", "3", "--a-value", "5", "--n", "-1"],
    ["limit", "--nu", "1e4", "--nu=4e4", "--x", "-1.5"],
    # refused: by the top-level parser, or by a command's own parser
    [], ["-h"], ["--help"], ["nosuch"], ["spectrum", "--bogus"], ["spectrum", "--a"],
    ["spectrum", "--a", "2", "--bogus"], ["spectrum", "extra"], ["spectrum", "-h"],
    ["spectrum", "--", "x"], ["limit", "--a", "2"], ["limit", "--kind", "nope"],
    ["verify", "--check"], ["profile", "--points", "1.5"],
])
def test_each_command_is_parsed_as_by_the_top_level_parser(argv):
    # cli.parse_args hands a command's arguments to its own parser: the same
    # namespace, or the same exit code and bytes on stdout and stderr
    assert _parsed(cli.parse_args, argv) == _parsed(cli.build_parser().parse_args, argv)


def _scalar_spectrum(argv):
    """(exit code, csv rows or stderr) of pdem spectrum argv as a loop of
    scalar calls over the levels gives it."""
    from pdem import canonical, limits

    args = cli.build_parser().parse_args(["spectrum", *argv])
    try:
        params = cli._params(args)
        ref = canonical.CanonicalParams(m0=params.m0, omega=params.omega, hbar=params.hbar)
        rows = []
        for n in model.bound_levels(params):
            values = (model.energy(params, n).energy, canonical.canonical_energy(ref, n),
                      limits.energy_gap(params, n))
            rows.append(",".join([str(n), *map(repr, values)]))
    except (ValueError, PdemError) as exc:
        return 2, f"error: {exc}\n"
    return 0, rows


EDGE_SPECTRA = [  # the float-range edges that tier1.yml runs
    ["--m0", "1", "--a", "1", "--omega", "1.8e154", "--hbar", "1.8e154"],
    ["--m0", "8.420664923106498e+120", "--omega", "7.477119218683197e-185",
     "--hbar", "1.2198418612478675e+192", "--a", "1.0133263956864385e+128"],
    ["--a", "1e8"], ["--a", "120"], ["--hbar", "1e-300", "--a", "1e-149"],
    ["--omega", "1e200", "--hbar", "1e200"],
    # refused at level 0, and at a level above it, where the canonical
    # column, the largest, leaves the float range first
    ["--a", "1", "--omega", "1.8e154", "--hbar", "3e154"],
    ["--a", "2.9298381536315397", "--omega", "4.892598942952575e+153", "--hbar", "3.876515782453009e+153"],
]


def _seeded_spectra(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m0, omega, hbar = (float(v) for v in 10.0 ** rng.uniform(-300, 300, 3))
        b2 = float(rng.uniform(0.6, 40.0))
        ratio = hbar / m0 / omega
        a = math.sqrt(b2 * ratio) if 0.0 < ratio < math.inf else 2.0
        yield ["--m0", repr(m0), "--omega", repr(omega), "--hbar", repr(hbar), "--a", repr(a)]
    for _ in range(count):  # hbar w near the float ceiling
        omega = float(10.0 ** rng.uniform(152, 154.5))
        yield ["--a", repr(float(rng.uniform(0.8, 3.0))), "--omega", repr(omega),
               "--hbar", repr(omega * float(10.0 ** rng.uniform(-1, 1)))]


@pytest.mark.parametrize("argv", EDGE_SPECTRA + list(_seeded_spectra(7, 40)))
def test_spectrum_is_the_loop_of_scalar_calls(argv):
    # one pass over the ladder prints what a loop of scalar calls gives, bit
    # for bit, and refuses the level and quantity that loop refuses first
    proc = run_cli("spectrum", *argv)
    code, expected = _scalar_spectrum(argv)
    assert proc.returncode == code
    if code:
        assert (proc.stdout, proc.stderr) == ("", expected)
    else:
        assert proc.stdout.splitlines()[-len(expected):] == expected
