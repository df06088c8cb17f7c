"""One benchmark process: set up a workload, then (in work mode) time its
rounds and check their outputs.

Protocol on stdout, for run.py: a line ``READY <import seconds>`` once set
up is done, and in work mode a final line ``RESULT <json>``. Everything
else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """Largest resident set of this process or any waited-for child (Linux
    reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed(fn):
    """fn's result, and the (wall, cpu) seconds it took."""
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - t0, _cpu_seconds() - cpu0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "work"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import polyview  # the import is what setup.import_s times

    import_s = time.perf_counter() - start
    if not os.path.abspath(polyview.__file__).startswith(src + os.sep):
        raise SystemExit(f"polyview imported from {polyview.__file__}, not from {src}")

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    rounds = workloads.rounds_for(workload, args.seconds)
    workload.build(rounds)
    workload.warm_up(os.path.join(args.out, "warmup"))
    print(f"READY {import_s!r}", flush=True)
    if args.mode == "setup":
        return 0

    # Traced runs time round 0 untraced, then install the spans, so the
    # overhead is measured inside one process on the same workload.
    tracer = tracing.Tracer() if args.trace else None
    timings, results = [], []
    for r in range(rounds):
        if tracer is not None and r == 1:
            tracing.install(tracer)
        result, parts = workload.run_round(r, os.path.join(args.out, f"round{r}"), timed)
        results.append(result)
        timings.append(parts)
    peak_rss = _peak_rss_mib()
    layers = tracing.metrics(tracer) if tracer is not None else None

    failed, outcomes = 0, []
    for result in results:
        round_failed, outcome = workload.outcome(result)
        failed += round_failed
        outcomes.append(outcome)
    correct = True
    try:
        workload.check(outcomes, os.path.join(args.out, "check"))
    except Exception as exc:  # any check or reference error makes the run incorrect
        correct = False
        print(f"check failed: {exc}\n{traceback.format_exc()}", file=sys.stderr)

    report = {
        "correct": correct,
        "attempted": rounds * workload.units_per_round,
        "failed": failed,
        "units_per_round": workload.units_per_round,
        "rounds": [[{"wall_s": w, "cpu_s": c} for w, c in parts] for parts in timings],
        "peak_rss_mb": peak_rss,
    }
    if tracer is not None:
        walls = [sum(w for w, _ in parts) for parts in timings]
        traced = sum(walls[1:])
        report["trace"] = {name: list(v) for name, v in layers.items()}
        report["trace"]["trace.rounds_s"] = [traced, "s"]
        report["trace"]["trace.overhead"] = [traced / (rounds - 1) / walls[0] - 1.0, "ratio"]
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
