"""Per-layer spans recorded from outside the program.

``install`` replaces the module attributes through which the program looks
up each layer (for example ``harness.forward`` and ``tinynn.forward``) with
wrappers that count calls and time them. Spans nest through a stack: a
layer's self time is its duration minus the time its child spans cover.

Every traced sweep runs with jobs = 1, in the traced process: spans in
forked pool workers would not reach this tracer.

tracemalloc is started only for the first call of each (layer, method,
input shape): the peak allocation of a call depends on nothing else, so the
maximum over those calls is the maximum over all calls, without tracing
every allocation of the run.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict

METHODS = ("infonce", "multicrop", "arithmetic", "geometric", "suffstats")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self.nbytes: dict[str, int] = defaultdict(int)
        self.stack: list[list[float]] = []
        self.sampled: set = set()

    def record(self, name: str, duration: float, child: float, method: str | None) -> None:
        self.calls[name] += 1
        self.seconds[name] += duration
        self.self_seconds[name] += duration - child
        if method is not None:
            self.calls[f"{name}.{method}"] += 1
            self.seconds[f"{name}.{method}"] += duration


def _span(tracer: Tracer, name: str, fn, method_of=None, alloc_key=None, on_exit=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        method = method_of(args, kwargs) if method_of else None
        key = alloc_key(args, kwargs) if alloc_key else None
        sample = key is not None and key not in tracer.sampled and not tracemalloc.is_tracing()
        if sample:
            tracer.sampled.add(key)
            tracemalloc.start()
        frame = [0.0]
        tracer.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            tracer.stack.pop()
            if sample:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.peak_alloc[name] = max(tracer.peak_alloc[name], peak)
            tracer.record(name, duration, frame[0], method)
            if tracer.stack:
                tracer.stack[-1][0] += duration
        if on_exit is not None:
            on_exit(tracer, args)
        return result

    return wrapper


def _method_token(value) -> str:
    return value.value


def _shape(value) -> tuple:
    return tuple(getattr(value, "z", value).shape)


def _record_bytes(tracer: Tracer, args) -> None:
    tracer.nbytes["harness.RunRecord.write"] += os.path.getsize(args[1])


def install(tracer: Tracer) -> None:
    """Wrap every traced layer where the program looks it up."""
    from polyview import harness, streams, tinynn

    def method_at(i):
        return lambda args, kwargs: _method_token(args[i])

    def key_at(name, m_i, x_i):
        return lambda args, kwargs: (name, _method_token(args[m_i]), _shape(args[x_i]))

    streams.stream = _span(tracer, "streams.stream", streams.stream)
    harness.sample_batch = _span(tracer, "gaussian_world.sample_batch", harness.sample_batch)
    forward = _span(tracer, "tinynn.forward", tinynn.forward)
    harness.forward = tinynn.forward = forward
    lag = _span(tracer, "tinynn.loss_and_grads", tinynn.loss_and_grads,
                method_of=method_at(2), alloc_key=key_at("lag", 2, 1))
    harness.loss_and_grads = tinynn.loss_and_grads = lag
    loss = _span(tracer, "losses.compute_loss", tinynn.compute_loss,
                 method_of=method_at(0), alloc_key=key_at("loss", 0, 1))
    harness.compute_loss = tinynn.compute_loss = loss
    harness.adamw_step = _span(tracer, "tinynn.adamw_step", harness.adamw_step)
    tinynn.finite_difference_grads = _span(
        tracer, "tinynn.finite_difference_grads", tinynn.finite_difference_grads)
    harness.run_training = _span(tracer, "harness.run_training", harness.run_training)
    harness.RunRecord.write = _span(tracer, "harness.RunRecord.write", harness.RunRecord.write,
                                    on_exit=_record_bytes)
    harness.run_sweep = _span(tracer, "harness.run_sweep", harness.run_sweep)


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit). A layer the
    workload never reaches reads 0."""
    mib = 1024.0 * 1024.0
    out: dict[str, tuple[float, str]] = {}
    for name in ("streams.stream", "gaussian_world.sample_batch", "tinynn.forward",
                 "tinynn.loss_and_grads", "losses.compute_loss", "tinynn.adamw_step",
                 "tinynn.finite_difference_grads", "harness.RunRecord.write"):
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.s"] = (tracer.seconds[name], "s")
    for name in ("tinynn.loss_and_grads", "losses.compute_loss"):
        out[f"{name}.peak_alloc_mb"] = (tracer.peak_alloc[name] / mib, "MiB")
        for method in METHODS:
            calls = tracer.calls[f"{name}.{method}"]
            per_call = tracer.seconds[f"{name}.{method}"] / calls if calls else 0.0
            out[f"{name}.{method}.s_per_call"] = (per_call, "s")
    for name in ("tinynn.finite_difference_grads", "harness.run_training", "harness.run_sweep"):
        out[f"{name}.self_s"] = (tracer.self_seconds[name], "s")
    for name in ("harness.run_training", "harness.run_sweep"):
        out[f"{name}.s"] = (tracer.seconds[name], "s")
    out["harness.RunRecord.write.bytes"] = (tracer.nbytes["harness.RunRecord.write"], "bytes")
    return out
