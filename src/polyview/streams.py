"""Counter-based deterministic random streams.

Every random draw in the package is produced by a Philox counter-based
generator keyed by (seed, purpose, index, index). A draw is therefore fully
determined by its key, independent of call order, other streams, or thread
scheduling. Purposes partition the key space so that, for example, the batch
for training epoch 7 can never collide with evaluation batch 7.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Purpose tags. New purposes must get fresh numbers; never renumber.
INIT = 0          # network parameter initialization
TRAIN_BATCH = 1   # per-epoch training batch (a = epoch)
EVAL_BATCH = 2    # held-out evaluation batch (a = recording point, b = batch)
PROBE = 3         # conditional-convergence probe (a = multiplicity)
STUDY = 4         # variance / validity study batches (a = batch index)
TEST = 5          # reserved for test fixtures


def stream(seed: int, purpose: int, a: int = 0, b: int = 0) -> np.random.Generator:
    """Return the Generator for key (seed, purpose, a, b).

    seed is a 64-bit unsigned integer; purpose < 2**8, a < 2**32, b < 2**16.
    The tuple is packed into the second Philox key word, so distinct tuples
    give provably non-overlapping streams.
    """
    check_key(seed, purpose, a, b)
    packed = (purpose << 48) | (a << 16) | b
    key = np.array([seed, packed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_key(seed: int, purpose: int, a: int = 0, b: int = 0) -> None:
    """Raise ValueError unless (seed, purpose, a, b) keys a stream."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= purpose < (1 << 8):
        raise ValueError(f"purpose out of range: {purpose}")
    if not 0 <= a < (1 << 32):
        raise ValueError(f"stream index a out of range: {a}")
    if not 0 <= b < (1 << 16):
        raise ValueError(f"stream index b out of range: {b}")
