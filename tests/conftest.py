"""Shared fixtures and helpers for the test suite.

Random test batches are drawn from the TEST purpose of the package's
counter-based streams, so every test is deterministic and independent of
execution order. Helpers here are intentionally dumb: loops and explicit
normalization, no reuse of the library's vectorized kernels, so they can
serve as independent oracles.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from polyview import losses, streams
from polyview.losses import EmbeddingBatch


def unit_rows(raw: np.ndarray) -> np.ndarray:
    out = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    return np.ascontiguousarray(out)


def random_embedding_batch(k: int, m: int, d: int, case: int) -> EmbeddingBatch:
    """Random unit-norm embeddings keyed by (k, m, d, case)."""
    rng = streams.stream(7, streams.TEST, a=case, b=(k * 31 + m * 7 + d) % (1 << 16))
    raw = rng.standard_normal(size=(k, m, d))
    return EmbeddingBatch(z=unit_rows(raw))


def identical_embedding_batch(k: int, m: int, d: int, case: int = 0) -> EmbeddingBatch:
    """All K*M embeddings equal: the collapse fixture."""
    rng = streams.stream(11, streams.TEST, a=case)
    one = unit_rows(rng.standard_normal(size=(1, 1, d)))
    return EmbeddingBatch(z=np.ascontiguousarray(np.broadcast_to(one, (k, m, d)).copy()))


class CountingPool(ThreadPoolExecutor):
    def __init__(self, width):
        super().__init__(width)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


def at_width(monkeypatch, width, compute):
    """compute() with the tile pool forced to width threads, and the number
    of items (tiles or batch tasks) the pool ran."""
    pool = CountingPool(width) if width > 1 else None
    monkeypatch.setattr(losses, "_pool", (width, pool))
    try:
        return compute(), (pool.submitted if pool else 0)
    finally:
        if pool is not None:
            pool.shutdown()


@pytest.fixture
def rng() -> np.random.Generator:
    return streams.stream(3, streams.TEST, a=999)
