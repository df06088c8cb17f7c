"""Reference figures for the README: the machine fingerprint, the time of
one loss_and_grads step per method at M in {2, 4, 10} and K = 1024, and
numpy's own GEMM and exp rates at the M = 10 kernel's shapes, a floor to
compare the contrastive kernel against.

    python3 perfbench/figures.py

Run from the root of a checkout; prints medians over REPS calls after one
warm-up call each.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import sys
import time

REPS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402


def blas() -> tuple[str, int | None]:
    """numpy's BLAS build string and the thread count it runs with."""
    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    name = f"{info['name']} {info.get('version', '')}".strip()
    np.ones(2) @ np.ones(2)  # loads the library
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "numpy" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return name, int(getattr(lib, symbol)())
    return name, None


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def median_time(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    from polyview import streams
    from polyview.gaussian_world import GaussianConfig, sample_batch
    from polyview.losses import Method
    from polyview.tinynn import init_params, loss_and_grads

    name, threads = blas()
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, BLAS {name} with {threads} threads, git {git_sha()}")

    k = 1024
    params = init_params(streams.stream(0, streams.INIT))
    print(f"\nloss_and_grads, ms per call at K = {k} (median of {REPS}):")
    print("| M | " + " | ".join(m.value for m in Method) + " |")
    print("| --- " * (len(Method) + 1) + "|")
    for m in (2, 4, 10):
        views = sample_batch(GaussianConfig(1.0, 0.25, k, m, 0),
                             streams.stream(0, streams.TRAIN_BATCH, a=1)).views
        cells = []
        for method in Method:
            if method is Method.INFONCE and m != 2:
                cells.append("-")
                continue
            t = median_time(lambda: loss_and_grads(params, views, method, 0.5), REPS)
            cells.append(f"{1e3 * t:.0f}")
        print(f"| {m} | " + " | ".join(cells) + " |")

    g = np.random.default_rng(0)
    a = g.standard_normal((k, 32))
    b = np.ascontiguousarray(g.standard_normal((10 * k, 32)).T)
    scores = a @ b
    out = np.empty_like(scores)
    gemm = median_time(lambda: np.matmul(a, b, out=out), REPS)
    exp = median_time(lambda: np.exp(scores, out=out), REPS)
    print(f"\nnumpy floor at the M = 10 block shapes (median of {REPS}):")
    print(f"  GEMM 1024 x 32 . 32 x 10240: {1e3 * gemm:.1f} ms, "
          f"{2 * k * 32 * 10 * k / gemm / 1e9:.1f} GFLOP/s")
    print(f"  exp over 1024 x 10240:       {1e3 * exp:.1f} ms, "
          f"{scores.size / exp / 1e6:.0f} M exp/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
