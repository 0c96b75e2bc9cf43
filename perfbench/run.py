"""Seeded benchmark of the pdem package.

Run from the repository root:

    python3 perfbench/run.py --workload bound-states --seed 1 --seconds 36 --trace 0

It drives src/pdem from outside: the CLI in-process through pdem.cli.main with
output captured in memory, plus public module functions.  One thread at a
time.  The workload's seeded batch of at least 100 tasks is run in rounds for
about --seconds, and for at least MIN_ROUNDS untraced rounds.  Each round is
a fresh process (perfbench/one_round.py), so no round reuses what an earlier
one computed.  Each task is timed alone, in CPU seconds, scaled to the
reference speed of perfbench/reference.py, and its time is its lower
quartile over those rounds.  Round 0 checks the outputs, outside the timed
region, and every later round must reproduce them exactly.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 traces
round 1 among untraced ones and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CPUS = sorted(os.sched_getaffinity(0))

# One thread for every numpy pool, in every process the benchmark starts.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
SETUP_SAMPLES = 30
# Untraced rounds needed before a run may end; each task's time is its
# lower quartile over these rounds.
MIN_ROUNDS = 3
# No round starts that would end after this long, whatever --seconds says, and
# no round may run past HARD_LIMIT_S, so that a run ends inside its time limit.
DEADLINE_S = 120.0
HARD_LIMIT_S = 170.0

# Times one import of pdem.cli, and the reference loop around it.
_SETUP_CHILD = """\
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
from reference import reference_seconds
if "numpy" in sys.modules:
    sys.exit("numpy already imported")
references = [reference_seconds() for _ in range(5)]
t0 = time.process_time()
import pdem.cli
seconds = time.process_time() - t0
references += [reference_seconds() for _ in range(5)]
print(repr(seconds), repr(statistics.median(references)))
print(pdem.cli.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments, a
    round that failed)."""


def use_cpu(index):
    """Pin this process (and the children it starts) to one of its CPUs, in turn.

    Other work on the machine slows one CPU at a time, often for tens of
    seconds; rotating keeps that from slowing every sample of a run."""
    os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


def measure_setup():
    """Median of SETUP_SAMPLES imports of pdem.cli, each in a fresh
    interpreter where numpy is not loaded: CPU seconds, scaled to the
    reference speed by the reference loop timed in the same interpreter.

    The first import compiles bytecode and is discarded."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        use_cpu(i)
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(HERE)], env=CHILD_ENV, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing pdem.cli failed: {proc.stderr.strip()}")
        times, path = proc.stdout.split("\n")[:2]
        seconds, reference = (float(v) for v in times.split())
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchError(f"pdem.cli came from {path}, not from {SRC}")
        samples.append(seconds * REFERENCE_S / reference)
    return statistics.median(samples[1:])


def run_round(workload, seed, index, check, trace, timeout):
    """One round in a fresh process, pinned to a CPU in turn; returns its
    result object (see one_round.py)."""
    use_cpu(index)
    argv = [sys.executable, str(HERE / "one_round.py"), "--workload", workload,
            "--seed", str(seed), "--check", str(int(check)), "--trace", str(int(trace))]
    proc = subprocess.run(argv, env=CHILD_ENV, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if check:  # tracebacks of calls that escaped PdemError, once per kind
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"round {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Round 0's checked tasks, and the later rounds' outputs that differ
    from round 0's.

    attempted and failed count the batch's tasks once, as round 0 checked
    them, so that they depend on the seed alone and not on how many rounds
    fitted in the run."""

    def __init__(self, first):
        self.fingerprints = first["fingerprints"]
        self.attempted = len(first["verdicts"])
        self.failures = Counter()
        self.first_reason = {}
        for kind, verdict in zip(first["kinds"], first["verdicts"]):
            if verdict is not None:
                self.failures[kind] += 1
                self.first_reason.setdefault(kind, verdict)
        self.failed = sum(self.failures.values())
        self.must_pass_failed = sum(self.failures[kind] for kind in first["must_pass"])
        self.irreproducible = 0

    def add(self, result):
        self.irreproducible += sum(
            a != b for a, b in zip(result["fingerprints"], self.fingerprints)
        )


def percentile90(samples):
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def lower_quartile(samples):
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


def run(workload, seed, seconds, trace, setup_s, process_start):
    untraced = []  # per untraced round: each task's CPU seconds, scaled
    untraced_wall = []  # per untraced round: the wall-clock seconds of each task
    references = []  # per untraced round: the median of its reference loops
    round_walls = []  # per untraced round: its seconds, process start included
    peak_rss = []
    traced = None
    tally = None
    start = perf_counter()
    round_index = 0
    while True:
        is_traced = trace and round_index == 1
        t0 = perf_counter()
        result = run_round(workload, seed, round_index, round_index == 0, is_traced,
                           HARD_LIMIT_S - (t0 - process_start))
        if tally is None:
            tally = Tally(result)
        else:
            tally.add(result)
        if is_traced:
            traced = result
        else:
            reference = statistics.median(result["references"])
            untraced.append([t * REFERENCE_S / reference for t in result["cpu_times"]])
            untraced_wall.append(result["times"])
            references.append(reference)
            round_walls.append(perf_counter() - t0)
            peak_rss.append(result["peak_rss_mb"])
        round_index += 1
        # Stop before a round that would end after --seconds, judged by the
        # fastest round so far, once MIN_ROUNDS untraced rounds are in.
        next_end = perf_counter() - start + min(round_walls)
        if (next_end > seconds and len(untraced) >= MIN_ROUNDS) or next_end > DEADLINE_S:
            break

    # CPU time leaves out the waits for a CPU, and the scale by the round's
    # reference loop leaves out how fast other work on the machine let the
    # CPU run.  Each task's time is then its lower quartile over the untraced
    # rounds, which passes over rounds that other load hit harder than the
    # reference loop.
    times = [lower_quartile(ts) for ts in zip(*untraced)]
    wall = [statistics.median(ts) for ts in zip(*untraced_wall)]
    summary = {
        "workload": workload,
        "seed": seed,
        "rounds": round_index,
        "tasks_per_round": len(times),
        "task_executions": round_index * len(times),
        "reference_ms": statistics.median(references) * 1e3,
        "wall_s": sum(wall),
        "task_p50_wall_ms": statistics.median(wall) * 1e3,
        "task_p90_wall_ms": percentile90(wall) * 1e3,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "failed_by_kind": dict(tally.failures),
        "first_failure_by_kind": tally.first_reason,
        "must_pass_failed": tally.must_pass_failed,
        "irreproducible": tally.irreproducible,
    }
    if traced is None:
        values = {
            "setup_s": setup_s,
            "batch_s": sum(times),
            "task_p50_ms": statistics.median(times) * 1e3,
            "task_p90_ms": percentile90(times) * 1e3,
            "pass_rate": 1.0 - tally.failed / tally.attempted,
            "peak_rss_mb": max(peak_rss),
        }
    else:
        # the traced round against the untraced ones, each at its own speed
        traced_s = sum(traced["cpu_times"]) * REFERENCE_S / statistics.median(traced["references"])
        untraced_s = statistics.median(map(sum, untraced))
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        summary["spans"] = traced["spans"]
    correct = tally.irreproducible == 0 and tally.must_pass_failed == 0
    return correct, tally.attempted, tally.failed, values, summary


def main(argv=None):
    process_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if not (SRC / "pdem" / "__init__.py").is_file():
            raise BenchError(f"no pdem sources under {SRC}")
        # the traced run does not report it
        setup_s = None if args.trace else measure_setup()
        correct, attempted, failed, values, summary = run(
            args.workload, args.seed, args.seconds, args.trace, setup_s, process_start
        )
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        sys.stderr.write(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}\n")
        return 2
    summary["correct"] = correct
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
