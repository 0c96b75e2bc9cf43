"""Command-line surface: spectrum tables, profile/wavefunction sampling,
the verification battery, and limit sweeps, as deterministic csv or json.

Numbers serialize through repr (shortest round-trip), so identical
invocations produce byte-identical output.  Exit codes: 0 success,
1 verification failure or a closed stdout pipe, 2 usage or invalid-parameter error.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, canonical, checks, limits, model, specfun
from .errors import PdemError

_WALL_TOKEN = "inf"

# Most sample points --points admits.  Above it the grid alone would take
# gigabytes, and numpy's MemoryError would escape as a traceback.
POINTS_CAP = 1_000_000


def _add_common(parser, with_a=True):
    if with_a:
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
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise PdemError(str(exc)) from exc
    else:
        _write(text)


def _write(text):
    """text to stdout's binary buffer, short write by short write, so that
    a closed pipe raises BrokenPipeError even where an unbuffered text layer
    would drop the rest silently; a stdout without one (a StringIO) as is."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        return sys.stdout.write(text)
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[buffer.write(data):]


def _sample_grid(args, params):
    if args.x_min is None:
        args.x_min = -params.a
    if args.x_max is None:
        args.x_max = 3.0 * params.a
    if not math.isfinite(args.x_max - args.x_min):  # an infinite limit makes it inf or NaN
        raise PdemError(
            f"sample range [{args.x_min}, {args.x_max}] is not finite or its width overflows"
        )
    if not args.x_min < args.x_max:
        raise PdemError(f"--x-min must be below --x-max, got [{args.x_min}, {args.x_max}]")
    if args.points > POINTS_CAP:
        raise PdemError(f"--points {args.points} exceeds the cap of {POINTS_CAP}")
    return np.linspace(args.x_min, args.x_max, args.points)


def cmd_spectrum(args):
    params = _params(args)
    levels = np.arange(len(model.bound_levels(params)))
    energies, ladder, gaps = model.ladder(params, levels).tolist()
    columns = {"n": levels.tolist(), "energy": energies, "canonical_energy": ladder, "gap": gaps}
    _emit("spectrum", _meta_params(params), columns, args)
    return 0


def cmd_profile(args):
    params = _params(args)
    xs = _sample_grid(args, params)
    inside = xs > -params.a
    columns = {
        "x": xs.tolist(),
        "potential": _walled(inside, model.potential(params, xs[inside]).tolist()),
        "mass": _walled(inside, model.effective_mass(params, xs[inside]).tolist()),
    }
    _emit("profile", _meta_params(params), columns, args)
    return 0


def _walled(inside, values):
    """values, one per True of inside, with None where inside is False."""
    if inside.all():
        return values
    it = iter(values)
    return [next(it) if ok else None for ok in inside.tolist()]


def cmd_wavefunction(args):
    params = _params(args)
    if args.x_min is None:
        args.x_min = -params.a * (1.0 - 1e-3)
    if args.x_max is None:
        args.x_max = params.a + 8.0 / params.lambda0
    xs = _sample_grid(args, params)
    levels = args.n or [0]
    states = model.bound_states(params, levels)
    columns = {"x": xs.tolist()}
    inside = xs > -params.a
    psi = states.psi(xs[inside])
    for n, row in zip(levels, psi):
        columns[f"psi_{n}"] = _walled(inside, row.tolist())
        columns[f"density_{n}"] = _walled(inside, (row * row).tolist())
    if args.canonical:
        ref = canonical.CanonicalParams(m0=params.m0, omega=params.omega, hbar=params.hbar)
        for n in levels:
            columns[f"canonical_{n}"] = canonical.canonical_wavefunction(ref, n, xs).tolist()
    _emit("wavefunction", _meta_params(params, {"levels": levels}), columns, args)
    return 0


def cmd_verify(args):
    a_values = tuple(args.a_list) if args.a_list else checks.A_VALUES
    for a in a_values:  # each a runs checks over all its levels
        model.bound_levels(model.ModelParams(a=a))
    names = tuple(args.check) if args.check else None
    results = checks.run_checks(names, a_values=a_values)
    failed = [r for r in results if not r.passed]
    lines = [r.line() for r in results] + [f"{len(results) - len(failed)}/{len(results)} checks passed"]
    _write("\n".join(lines) + "\n")
    return 1 if failed else 0


def _limit_bessel_hermite(args, params_kw):
    nus = args.nu or limits.NU_LADDER
    n = 2 if args.n is None else args.n
    # scaled_bessel runs first: it refuses a degree above its cap before any
    # recurrence, the Hermite one included, runs.  Overflow is refused below.
    with np.errstate(over="ignore"):
        scaled = [limits.scaled_bessel(n, args.x, nu) for nu in nus]
        target = specfun.hermite(n, args.x)
    errors = [abs(s - target) for s in scaled]
    if not all(map(math.isfinite, [target, *scaled, *errors])):
        raise PdemError(f"H_{n}({args.x}) or its scaled Bessel limit leaves the float range")
    _emit(
        "limit",
        {"kind": args.kind, "n": n, "x": args.x, "hermite": target},
        {"nu": list(nus), "scaled_bessel": scaled, "abs_error": errors},
        args,
    )


def _a_sweep(args, default):
    """The --a-value sweep, else default; refused unless strictly increasing."""
    a_values = args.a_list or default
    limits.require_increasing(a_values)
    return a_values


def _limit_energy(args, params_kw):
    n = 1 if args.n is None else args.n
    rows = {"a": [], "energy": [], "canonical_energy": [], "gap": []}
    for a in _a_sweep(args, limits.A_SWEEP):
        p = model.ModelParams(a=a, **params_kw)
        ref = canonical.CanonicalParams(**params_kw)
        rows["a"].append(a)
        rows["energy"].append(model.energy(p, n).energy)
        rows["canonical_energy"].append(canonical.canonical_energy(ref, n))
        rows["gap"].append(limits.energy_gap(p, n))
    _emit("limit", {"kind": args.kind, "n": n}, rows, args)


def _limit_wavefunction(args, params_kw):
    n = 0 if args.n is None else args.n
    a_values = _a_sweep(args, limits.A_SWEEP)
    ds = [limits.wavefunction_distance(model.ModelParams(a=a, **params_kw), n) for a in a_values]
    _emit("limit", {"kind": args.kind, "n": n}, {"a": list(a_values), "l2_distance": ds}, args)


def _limit_continuum(args, params_kw):
    a_values = _a_sweep(args, limits.CONTINUUM_A_SWEEP)
    magnitudes = limits.continuum_magnitude(
        [model.ModelParams(a=a, **params_kw) for a in a_values], args.q, args.x
    )
    _emit(
        "limit",
        {"kind": args.kind, "q": args.q, "x": args.x},
        {"a": list(a_values), "magnitude": magnitudes},
        args,
    )


# Every --kind of pdem limit, by name.
LIMITS = {
    "bessel-hermite": _limit_bessel_hermite,
    "energy": _limit_energy,
    "wavefunction": _limit_wavefunction,
    "continuum": _limit_continuum,
}


def cmd_limit(args):
    LIMITS[args.kind](args, dict(m0=args.m0, omega=args.omega, hbar=args.hbar))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged (every repeatable option defaults to None, so each parse gets a
    list of its own)."""
    parser = argparse.ArgumentParser(
        prog="pdem",
        description="Semi-infinite step-harmonic quantum well with "
        "position-dependent effective mass",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # {command name: its own parser}, for parse_args

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
                    help=f"semiconfinement length (repeatable; default {checks.A_VALUES})")
    vp.add_argument("--check", action="append",
                    help=f"check name (repeatable); available: {', '.join(checks.CHECKS)}")
    vp.set_defaults(func=cmd_verify)

    # no abbreviations, so that --a, which no kind reads, is refused rather
    # than taken for --a-value
    lp = sub.add_parser("limit", help="limit-relation sweep tables", allow_abbrev=False)
    _add_common(lp, with_a=False)
    lp.add_argument("--kind", choices=tuple(LIMITS), default="bessel-hermite")
    lp.add_argument("--n", type=int, help="level or polynomial degree")
    lp.add_argument("--nu", type=float, action="append", help="scaling parameter (repeatable)")
    lp.add_argument("--q", type=float, default=2.0, help="continuum wavenumber parameter")
    lp.add_argument("--x", type=float, default=0.0, help="evaluation position")
    lp.add_argument("--a-value", type=float, action="append", dest="a_list",
                    help="sweep value of a (repeatable)")
    lp.set_defaults(func=cmd_limit)

    return parser


def parse_args(argv):
    """The namespace of argv, parsed once, by the parser of the command it
    names: the top-level parser hands that parser everything after the name
    and adds only command.  The top-level parser itself parses an argv that
    names no command (none, an unknown one, or top-level -h), and one that
    leaves arguments over, so that its usage message and exit code report
    them as before."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (Python's "Note on SIGPIPE"): stdout's file, where
        # it has one, becomes os.devnull, so that the last flush prints nothing
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except (PdemError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
