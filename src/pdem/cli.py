"""Command-line surface: spectrum tables, profile/wavefunction sampling,
the verification battery, and limit sweeps, as deterministic csv or json.

Numbers serialize through repr (shortest round-trip), so identical
invocations produce byte-identical output.  Exit codes: 0 success,
1 verification failure, 2 usage or invalid-parameter error.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, canonical, checks, limits, model
from .errors import PdemError

_WALL_TOKEN = "inf"


def _add_common(parser):
    parser.add_argument("--a", type=float, default=2.0, help="semiconfinement length (wall at x=-a)")
    parser.add_argument("--m0", type=float, default=1.0, help="mass constant")
    parser.add_argument("--omega", type=float, default=1.0, help="angular frequency")
    parser.add_argument("--hbar", type=float, default=1.0, help="action constant")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _params(args):
    return model.ModelParams(m0=args.m0, omega=args.omega, hbar=args.hbar, a=args.a)


def _meta_params(params, extra=None):
    meta = {
        "a": params.a,
        "m0": params.m0,
        "omega": params.omega,
        "hbar": params.hbar,
        "lambda0": params.lambda0,
        "v_inf": model.well_depth(params),
        "n_max": model.max_level(params),
    }
    if extra:
        meta.update(extra)
    return meta


def _fmt(value):
    if value is None:
        return _WALL_TOKEN
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(command, meta, columns, args):
    """Write the table; wall entries are None (csv 'inf' token, json null)."""
    names = list(columns)
    if args.format == "json":
        payload = {
            "meta": {"version": __version__, "command": command, "params": meta},
            "columns": {name: columns[name] for name in names},
        }
        text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    else:
        lines = [f"# version={__version__}", f"# command={command}"]
        for key in sorted(meta):
            lines.append(f"# {key}={_fmt(meta[key])}")
        lines.append(",".join(names))
        length = len(columns[names[0]])
        for i in range(length):
            lines.append(",".join(_fmt(columns[name][i]) for name in names))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sample_grid(args, params):
    if args.x_min is None:
        args.x_min = -params.a
    if args.x_max is None:
        args.x_max = 3.0 * params.a
    if not args.x_min < args.x_max:
        raise PdemError(f"--x-min must be below --x-max, got [{args.x_min}, {args.x_max}]")
    return np.linspace(args.x_min, args.x_max, args.points)


def cmd_spectrum(args):
    params = _params(args)
    ref = canonical.CanonicalParams(m0=params.m0, omega=params.omega, hbar=params.hbar)
    n_levels = model.max_level(params) + 1
    ns, e_well, e_can, gaps = [], [], [], []
    for n in range(n_levels):
        ns.append(n)
        e_well.append(model.energy(params, n).energy)
        e_can.append(canonical.canonical_energy(ref, n))
        gaps.append(limits.energy_gap(params, n))
    _emit(
        "spectrum",
        _meta_params(params),
        {"n": ns, "energy": e_well, "canonical_energy": e_can, "gap": gaps},
        args,
    )
    return 0


def cmd_profile(args):
    params = _params(args)
    xs = _sample_grid(args, params)
    pot, mass = [], []
    for x in xs:
        x = float(x)
        v = model.potential(params, x)
        if math.isinf(v):
            pot.append(None)
            mass.append(None)
        else:
            pot.append(v)
            mass.append(model.effective_mass(params, x))
    _emit("profile", _meta_params(params), {"x": [float(x) for x in xs], "potential": pot, "mass": mass}, args)
    return 0


def cmd_wavefunction(args):
    params = _params(args)
    if args.x_min is None:
        args.x_min = -params.a * (1.0 - 1e-3)
    if args.x_max is None:
        args.x_max = params.a + 8.0 / params.lambda0
    xs = _sample_grid(args, params)
    levels = args.n or [0]
    states = [model.bound_state(params, n) for n in levels]
    columns = {"x": xs.tolist()}
    inside = xs > -params.a
    for n, state in zip(levels, states):
        values = iter(state.psi(xs[inside]).tolist())
        psi_col = [next(values) if ok else None for ok in inside]
        columns[f"psi_{n}"] = psi_col
        columns[f"density_{n}"] = [None if v is None else v * v for v in psi_col]
    if args.canonical:
        ref = canonical.CanonicalParams(m0=params.m0, omega=params.omega, hbar=params.hbar)
        for n in levels:
            columns[f"canonical_{n}"] = canonical.canonical_wavefunction(ref, n, xs).tolist()
    _emit("wavefunction", _meta_params(params, {"levels": levels}), columns, args)
    return 0


def cmd_verify(args):
    a_values = tuple(args.a_list) if args.a_list else (1.0, 2.0)
    for a in a_values:
        model.ModelParams(m0=args.m0, omega=args.omega, hbar=args.hbar, a=a)
    names = tuple(args.check) if args.check else None
    results = checks.run_checks(
        names, a_values=a_values, grid_points=args.grid_points, eigen_tol=args.tol
    )
    for result in results:
        sys.stdout.write(result.line() + "\n")
    failed = [r for r in results if not r.passed]
    sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return 1 if failed else 0


def cmd_limit(args):
    params_kw = dict(m0=args.m0, omega=args.omega, hbar=args.hbar)
    if args.kind == "bessel-hermite":
        from . import specfun

        nus = args.nu or [1e4, 4e4, 1.6e5, 6.4e5]
        n = args.n[0] if args.n else 2
        target = specfun.hermite(n, args.x)
        scaled = [limits.scaled_bessel(n, args.x, nu) for nu in nus]
        _emit(
            "limit",
            {"kind": args.kind, "n": n, "x": args.x, "hermite": target},
            {
                "nu": list(nus),
                "scaled_bessel": scaled,
                "abs_error": [abs(s - target) for s in scaled],
            },
            args,
        )
        return 0

    a_values = args.a_list or ([3.0, 5.0, 10.0, 20.0] if args.kind != "continuum" else [2.0, 4.0])
    if args.kind == "energy":
        n = args.n[0] if args.n else 1
        rows = {"a": [], "energy": [], "canonical_energy": [], "gap": []}
        for a in a_values:
            p = model.ModelParams(a=a, **params_kw)
            ref = canonical.CanonicalParams(**params_kw)
            rows["a"].append(a)
            rows["energy"].append(model.energy(p, n).energy)
            rows["canonical_energy"].append(canonical.canonical_energy(ref, n))
            rows["gap"].append(limits.energy_gap(p, n))
        _emit("limit", {"kind": args.kind, "n": n}, rows, args)
        return 0
    if args.kind == "wavefunction":
        n = args.n[0] if args.n else 0
        ds = [
            limits.wavefunction_distance(model.ModelParams(a=a, **params_kw), n, tol=args.tol)
            for a in a_values
        ]
        _emit("limit", {"kind": args.kind, "n": n}, {"a": list(a_values), "l2_distance": ds}, args)
        return 0
    if args.kind == "continuum":
        sweep = limits.continuum_magnitude(
            [model.ModelParams(a=a, **params_kw) for a in a_values], args.q, args.x
        )
        _emit(
            "limit",
            {"kind": args.kind, "q": args.q, "x": args.x},
            {"a": sweep.parameter_values, "magnitude": sweep.metric_values},
            args,
        )
        return 0
    raise PdemError(f"unknown limit kind {args.kind!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pdem",
        description="Semi-infinite step-harmonic quantum well with "
        "position-dependent effective mass",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="bound-level table with canonical comparison")
    _add_common(sp)
    sp.set_defaults(func=cmd_spectrum)

    pp = sub.add_parser("profile", help="sample the potential and effective mass")
    _add_common(pp)
    pp.add_argument("--x-min", type=float, default=None)
    pp.add_argument("--x-max", type=float, default=None)
    pp.add_argument("--points", type=int, default=121)
    pp.set_defaults(func=cmd_profile)

    wp = sub.add_parser("wavefunction", help="sample bound-state wavefunctions")
    _add_common(wp)
    wp.add_argument("--n", type=int, action="append", help="level (repeatable)")
    wp.add_argument("--x-min", type=float, default=None)
    wp.add_argument("--x-max", type=float, default=None)
    wp.add_argument("--points", type=int, default=201)
    wp.add_argument("--canonical", action="store_true", help="add canonical comparison columns")
    wp.set_defaults(func=cmd_wavefunction)

    vp = sub.add_parser("verify", help="run the verification battery")
    vp.add_argument("--a", type=float, action="append", dest="a_list",
                    help="semiconfinement length (repeatable; default 1 and 2)")
    vp.add_argument("--m0", type=float, default=1.0)
    vp.add_argument("--omega", type=float, default=1.0)
    vp.add_argument("--hbar", type=float, default=1.0)
    vp.add_argument("--check", action="append",
                    help=f"check name (repeatable); available: {', '.join(checks.CHECKS)}")
    vp.add_argument("--grid-points", type=int, default=32000,
                    help="interior points for the eigensolver check")
    vp.add_argument("--tol", type=float, default=1e-5,
                    help="relative tolerance for the eigensolver check")
    vp.set_defaults(func=cmd_verify)

    lp = sub.add_parser("limit", help="limit-relation sweep tables")
    _add_common(lp)
    lp.add_argument("--kind", choices=("bessel-hermite", "energy", "wavefunction", "continuum"),
                    default="bessel-hermite")
    lp.add_argument("--n", type=int, action="append", help="level or polynomial degree")
    lp.add_argument("--nu", type=float, action="append", help="scaling parameter (repeatable)")
    lp.add_argument("--q", type=float, default=2.0, help="continuum wavenumber parameter")
    lp.add_argument("--x", type=float, default=0.0, help="evaluation position")
    lp.add_argument("--a-value", type=float, action="append", dest="a_list",
                    help="sweep value of a (repeatable)")
    lp.add_argument("--tol", type=float, default=1e-10,
                    help="quadrature tolerance for distance sweeps")
    lp.set_defaults(func=cmd_limit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PdemError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
