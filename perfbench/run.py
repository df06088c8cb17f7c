"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts SETUP_ONLY worker
processes that only set up (their set-up times, with the work process's,
give the median setup_s), then one work process that times its rounds and
checks their outputs. A round's time is the sum of its parts' times, each
part taken at its fastest over the rounds (see ``fastest_round``). The
last line of stdout is one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.

Uses the standard library only, so it adds no memory of its own to the
workload's processes.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig3-m10", "fig3-m2-dense", "gradcheck")
SETUP_ONLY = 6


def deadline_s(seconds: float) -> float:
    """Time allowed for a whole run: 170 s at BENCHMARK.json's --seconds 20,
    under the 180 s a run may take, and more for longer runs."""
    return 110.0 + 3.0 * seconds


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process whose stdout lines are read against a deadline."""

    def __init__(self, argv: list[str], deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, bufsize=0)
        self.buffer = b""

    def read_line(self) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise WorkerError("worker missed the deadline")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise WorkerError(f"worker exited early with code {self.proc.wait()}")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def expect(self, tag: str) -> str:
        line = self.read_line()
        if not line.startswith(tag + " "):
            raise WorkerError(f"expected {tag}, got {line!r}")
        return line[len(tag) + 1:]

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=max(0.1, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker did not exit before the deadline") from None
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run(args, out_dir: str, deadline: float) -> dict:
    base = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    setup_s, import_s = [], []

    def start(mode: str) -> Worker:
        worker = Worker(base + ["--mode", mode], deadline)
        try:
            import_s.append(float(worker.expect("READY")))
            setup_s.append(time.perf_counter() - worker.started)
            return worker
        except BaseException:
            worker.stop()
            raise

    for _ in range(SETUP_ONLY):
        worker = start("setup")
        try:
            worker.finish()
        finally:
            worker.stop()
    worker = start("work")
    try:
        report = json.loads(worker.expect("RESULT"))
        worker.finish()
    finally:
        worker.stop()
    report["setup_s"] = statistics.median(setup_s)
    report["import_s"] = statistics.median(import_s)
    return report


def fastest_round(rounds: list[list[dict]], key: str) -> float:
    """Seconds of one round, as the sum over its parts of each part's
    fastest repetition. Every round repeats the same operations on inputs
    of the same shapes, so a part that ran slower in one round than in
    another lost that time to the host, not to the program: on the 2-core
    reference machine a round's time swung by up to half within one
    process. A change to the program moves every repetition of a part,
    the fastest too."""
    return sum(min(part[key] for part in parts) for parts in zip(*rounds))


def metrics(report: dict, trace: int) -> dict:
    if trace:
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in report["trace"].items()}
        out["setup.import_s"] = {"value": report["import_s"], "unit": "s"}
        return out
    units = report["units_per_round"]
    rounds = report["rounds"]
    return {
        "setup_s": {"value": report["setup_s"], "unit": "s"},
        "work_per_s": {"value": units / fastest_round(rounds, "wall_s"), "unit": "1/s"},
        "cpu_s_per_work": {"value": fastest_round(rounds, "cpu_s") / units, "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.perf_counter() + deadline_s(args.seconds)
    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        report = run(args, out_dir, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if report["correct"]:
        shutil.rmtree(out_dir, ignore_errors=True)
    else:
        print(f"outputs failed their checks; kept in {out_dir}", file=sys.stderr)

    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics(report, args.trace),
    }
    for name, metric in result["metrics"].items():
        print(f"{args.workload}  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
