"""One round of a benchmark workload, in a fresh process.

    python3 perfbench/one_round.py --workload bound-states --seed 1 --check 1 --trace 0

perfbench/run.py starts this once per round, so that nothing a round leaves in
memory (a memo, a cache, a warmed table) can speed up a later round of the
same batch.  It draws the workload's batch from the seed, runs every task once
with each task timed alone, and prints one JSON object as its last line of
stdout:

- times: each task's wall-clock seconds;
- cpu_times: each task's CPU seconds (time.process_time), which leave out
  the time the process waited for a CPU, on this machine or on its host;
- references: CPU seconds of the reference loop (reference.py), timed
  between tasks every REFERENCE_EVERY_S of wall-clock time;
- fingerprints: each task's output digest, or its failure reason if it raised;
- peak_rss_mb: the process's peak resident memory after the tasks;
- with --check 1: kinds, verdicts (each task's failure reason or null, from
  the checks in workloads.py, run after all tasks) and must_pass;
- with --trace 1: layers (the per-layer metrics of tracing.py) and spans; the
  spans themselves go to perfbench/out/trace-<workload>.npz.
"""

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)
from reference import reference_seconds  # noqa: E402
from pdem.errors import PdemError  # noqa: E402

# How often the reference loop is timed; it costs about 2 % of a round.
REFERENCE_EVERY_S = 0.05


def call(task, crashed_kinds, report):
    """task.call() -> (output, None), or (None, reason) if it raised."""
    try:
        return task.call(), None
    except PdemError as exc:
        return None, f"raised {type(exc).__name__}: {exc}"
    except Exception as exc:  # outside the package's error contract
        if report and task.kind not in crashed_kinds:
            crashed_kinds.add(task.kind)
            traceback.print_exc(file=sys.stderr)
        return None, f"crashed with {type(exc).__name__}: {exc}"


def check(task, output, reason):
    if reason is not None:
        return reason
    try:
        return task.check(output)
    except Exception as exc:  # malformed output (missing JSON keys, ...)
        return f"output check raised {type(exc).__name__}: {exc}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    batch = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    crashed_kinds = set()
    times, cpu_times, references, outputs = [], [], [], []
    last_reference = float("-inf")
    for i, task in enumerate(batch):
        if perf_counter() - last_reference >= REFERENCE_EVERY_S:
            references.append(reference_seconds())
            last_reference = perf_counter()
        if tracer is not None:
            tracer.task = i
        t0, c0 = perf_counter(), process_time()
        output, reason = call(task, crashed_kinds, args.check)
        cpu_times.append(process_time() - c0)
        times.append(perf_counter() - t0)
        outputs.append((output, reason))
    references.append(reference_seconds())
    if tracer is not None:
        tracer.uninstall()

    result = {
        "times": times,
        "cpu_times": cpu_times,
        "references": references,
        "fingerprints": [
            reason if reason is not None else workloads.digest(output)
            for output, reason in outputs
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.check:
        result["kinds"] = [task.kind for task in batch]
        result["verdicts"] = [check(task, *out) for task, out in zip(batch, outputs)]
        result["must_pass"] = sorted(workloads.MUST_PASS)
    if tracer is not None:
        totals = tracer.totals()
        result["layers"] = tracing.layer_metrics(totals, len(tracer.energy_keys))
        result["spans"] = sum(v["calls"] for v in totals.values())
        tracer.write(HERE / "out" / f"trace-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
