"""Long-double reference for the five objectives' per-sample losses.

Every score, exp, log and sum runs in np.longdouble (a 64-bit mantissa on
x86-64 Linux) from the float64 embeddings, vectorized over anchors and
targets, and no code is shared with the library's kernel. It grades the
kernel's absolute accuracy: a stable float64 kernel errs by about u / tau
relative (u = 2**-53), the rounding of its scores.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """log-sum-exp over one axis, which the result drops."""
    top = x.max(axis=axis, keepdims=True)
    return (top + np.log(np.exp(x - top).sum(axis=axis, keepdims=True))).squeeze(axis)


def _scores(anchors: np.ndarray, cands: np.ndarray, tau: float) -> np.ndarray:
    """s[i, a, j, b] = anchors[i, a] . cands[j, b] / tau."""
    k, m, d = anchors.shape
    s = anchors.reshape(k * m, d) @ cands.reshape(k * m, d).T
    return (s / LD(tau)).reshape(k, m, k, m)


def _negatives(s: np.ndarray) -> np.ndarray:
    """Per anchor (i, a): log-sum-exp of its scores against every candidate
    (j, b) of another sample j != i."""
    k, m = s.shape[:2]
    others = s.copy()
    others[np.arange(k), :, np.arange(k), :] = -np.inf
    return _lse(others.reshape(k, m, k * m), axis=-1)


def reference_losses(z: np.ndarray, tau: float) -> dict[str, np.ndarray]:
    """Per-sample losses (K,) in long double on float64 embeddings z
    (K, M, d), keyed by CLI token: every objective, infonce only at M = 2."""
    z = np.asarray(z, dtype=LD)
    k, m, _ = z.shape
    same, off = np.arange(k), ~np.eye(m, dtype=bool)
    s = _scores(z, z, tau)
    pos = s[same, :, same, :]  # pos[i, a, b]: anchor (i, a), positive (i, b)
    # Pair InfoNCE of every ordered view pair (a, b): view b of every sample.
    pair = (_lse(s, axis=2) - pos)[:, off].mean(axis=1)
    # Per-target log-likelihoods against every view of every other sample.
    log_l = (pos - np.logaddexp(pos, _negatives(s)[..., None]))[:, off].reshape(k, m, m - 1)
    # Suffstats: anchor (i, a) against its own rest statistic and every other
    # sample's; q is the normalized mean of the other M - 1 views.
    u = (z.sum(axis=1, keepdims=True) - z) / (m - 1)
    s = _scores(z, u / np.sqrt((u * u).sum(axis=-1, keepdims=True)), tau)
    rest = s[same, :, same, :][:, np.arange(m), np.arange(m)]
    losses = {
        "multicrop": pair,
        "arithmetic": (np.log(LD(m - 1)) - _lse(log_l, axis=2)).mean(axis=1),
        "geometric": -log_l.mean(axis=(1, 2)),
        "suffstats": (np.logaddexp(rest, _negatives(s)) - rest).mean(axis=1),
    }
    return {"infonce": pair, **losses} if m == 2 else losses
