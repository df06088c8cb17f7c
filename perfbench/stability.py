"""Run the benchmark on several seeds per workload and report each metric's
median and spread (interquartile distance over median, from
statistics.quantiles(values, n=4)), the figure BENCHMARK.json's bounds are
judged against.

    python3 perfbench/stability.py [--workloads a,b] [--first-seed 100]

Run from the root of a checkout. Writes every run's result line to
perfbench/out/stability-<timestamp>.json and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10  # seeds per workload, as in a full evaluation


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    record = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(RUNS):
            seed = args.first_seed + i
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=False)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, wall_s=wall)
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
        record[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, mean wall {statistics.mean(r['wall_s'] for r in runs):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            bound = bounds.get(name)
            line = (f"  {name:44s} median {statistics.median(values):.6g} "
                    f"{runs[0]['metrics'][name]['unit']}")
            if len(values) >= 2 and statistics.median(values) != 0:
                line += f"  spread {spread(values):.4f}"
            if bound is not None:
                line += f"  bound {bound}"
            print(line, flush=True)
        print()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"stability-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
