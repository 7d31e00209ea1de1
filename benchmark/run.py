"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Workloads: paper_grid, adult_variants, wide_threaded (see README.md).  The
program is imported from ``src/`` of the same checkout; without it the run
exits with status 2 and prints no result.

A run generates its inputs from ``--seed``, sets up through the program's
``ingestion`` module, makes one checked warm-up operation, then repeats the
workload's operation in a closed loop (one at a time, from this one process)
for ``--seconds``, checking each one after it is timed.  After each
operation its result and the set-up's data are dropped and the set-up is
made again, ``setup_batch`` times in a row, so that one ``setup_s`` sample
covers at least about 100 ms of work and the samples, like the operations',
spread over the whole run.  Before each operation, and once at each end of
the run, a fixed reference computation is timed (``reference.py``);
``op_ms`` and ``setup_s`` are wall times rescaled by the reference samples
on either side of them, so that the machine's swings in speed cancel out.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` spans around the program's public functions are recorded
during set-up and the timed operations, and it holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import spans
from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Generated inputs and the program's output files; ignored by git.
WORKDIR = os.path.join(HERE, "out")

END_TO_END = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MB", "nicv": "1"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload_cls, seed: int, seconds: float, tracer) -> dict:
    """Set up, warm up and time one workload; returns the result object."""
    os.makedirs(WORKDIR, exist_ok=True)
    workload = workload_cls(seed, WORKDIR)
    reference = Reference()
    problems: list[str] = []
    # Wall times, each with the index of the reference sample taken before it.
    setup_s: list[tuple[float, int]] = []
    op_ms: list[tuple[float, int]] = []

    def set_up():
        """Set up ``setup_batch`` times in a row; returns the last result."""
        if tracer is not None:
            tracer.unit = f"setup{len(setup_s)}"
        start = time.perf_counter()
        for _ in range(workload.setup_batch):
            state = None  # only one set-up's data is alive at a time
            state = workload.setup()
        setup_s.append(((time.perf_counter() - start) / workload.setup_batch,
                        len(reference.times_ms) - 1))
        if tracer is not None:
            tracer.unit = None
        problems.extend(workload.check_setup(state))
        return state

    reference.run()
    state = set_up()
    start = time.perf_counter()
    outcomes = [workload.warm_up(state)]
    warm_up_ms = 1e3 * (time.perf_counter() - start)
    op_units = []
    deadline = time.perf_counter() + seconds
    while not op_ms or time.perf_counter() < deadline:
        before = reference.run()
        unit = f"op{len(op_ms)}"
        if tracer is not None:
            tracer.unit = unit
        start = time.perf_counter()
        result = workload.operation(state)
        op_ms.append((1e3 * (time.perf_counter() - start), before))
        if tracer is not None:
            tracer.unit = None
        op_units.append(unit)
        outcomes.append(workload.check(state, result))
        result = state = None
        state = set_up()
    reference.run()

    for outcome in outcomes:
        problems += outcome.problems
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    nicv = outcomes[0].edpdcs_nicv
    metrics = {
        "setup_s": statistics.median(t * reference.scale(i) for t, i in setup_s),
        "op_ms": statistics.median(t * reference.scale(i) for t, i in op_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "nicv": statistics.fmean(nicv) if nicv else float("nan"),
    }
    units = END_TO_END
    if tracer is not None:
        op_spans = sum(s.unit in op_units for s in tracer.spans) / len(op_units)
        print(f"traced op_ms {metrics['op_ms']:.6g} over {len(op_ms)} operations, "
              f"{op_spans:.0f} spans per operation", file=sys.stderr)
        metrics = spans.layer_metrics(tracer.spans, op_units)
        units = spans.LAYER_METRICS
    print(f"{workload.name}: warm-up {warm_up_ms:.1f} ms (checks included); "
          f"{len(op_ms)} timed operations, wall op_ms {[round(t, 1) for t, _ in op_ms]}, "
          f"wall setup_s {[round(t, 5) for t, _ in setup_s]}, "
          f"reference ms {[round(t, 1) for t in reference.times_ms]}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(o.runs for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dpkmeans", "__init__.py")):
        print(f"error: no dpkmeans package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dpkmeans
    import workloads

    if os.path.dirname(os.path.abspath(dpkmeans.__file__)) != os.path.join(SRC, "dpkmeans"):
        print(f"error: imported dpkmeans from {dpkmeans.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
