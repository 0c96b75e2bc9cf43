import json
import subprocess
import sys
import time

import pytest

PDEM = [sys.executable, "-m", "pdem.cli"]


def run_cli(*args):
    return subprocess.run(
        PDEM + list(args), capture_output=True, text=True, timeout=300
    )


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
], ids=["b2-overflow", "lambda0-underflow", "level-cap"])
def test_extreme_finite_constants_exit_2(args):
    proc = run_cli("spectrum", *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_level_cap_returns_quickly(capsys):
    # 10^16 levels at a = 1e8: refused up front instead of written out
    from pdem import cli

    start = time.perf_counter()
    assert cli.main(["spectrum", "--a", "1e8"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "cap" in capsys.readouterr().err


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
    from pdem import model

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


def test_limit_bessel_hermite_table():
    proc = run_cli("limit", "--kind", "bessel-hermite", "--n", "2", "--x", "0")
    assert proc.returncode == 0
    _, header, rows = parse_csv(proc.stdout)
    errs = [float(r[header.index("abs_error")]) for r in rows]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


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


def test_limit_continuum_table():
    proc = run_cli("limit", "--kind", "continuum", "--q", "2", "--x", "1",
                   "--a-value", "2", "--a-value", "4")
    assert proc.returncode == 0
    _, header, rows = parse_csv(proc.stdout)
    mags = [float(r[header.index("magnitude")]) for r in rows]
    assert mags[1] < mags[0]


def test_verify_default_passes():
    from pdem import checks

    proc = run_cli("verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")
    # run_checks() runs the default battery in DEFAULT_CHECKS order
    assert [l.split()[1].rstrip(":") for l in lines[:-1]] == list(checks.DEFAULT_CHECKS)


def test_verify_coarse_grid_fails():
    proc = run_cli("verify", "--grid-points", "50")
    assert proc.returncode == 1
    assert any(l.startswith("FAIL eigensolver") for l in proc.stdout.splitlines())


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


def test_verify_help_names_every_check():
    from pdem import checks

    proc = run_cli("verify", "--help")
    assert proc.returncode == 0
    help_text = "".join(proc.stdout.split())  # argparse wraps lines, also at hyphens
    for name in checks.CHECKS:
        assert name in help_text


def test_verify_non_default_check_runs():
    proc = run_cli("verify", "--check", "continuum-vanishing")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0].startswith("PASS continuum-vanishing")
