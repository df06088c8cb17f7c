"""Long-double reference for the five objectives: per-sample losses, and
the gradient of their mean with respect to the embeddings.

Every score, exp, log and sum runs in np.longdouble (a 64-bit mantissa on
x86-64 Linux) from the float64 embeddings, vectorized over anchors and
targets, and no code is shared with the library's kernel. It grades the
kernel's absolute accuracy: a stable float64 kernel errs by about u / tau
relative (u = 2**-53), the rounding of its scores.

Unit rows keep every score s in [-1/tau, 1/tau], and long double's range
holds exp(s - 1/tau) down to tau = 2e-4, so every exp takes that one shift.
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
    s = np.dot(anchors.reshape(k * m, d), cands.reshape(k * m, d).T)
    return (s / LD(tau)).reshape(k, m, k, m)


def _negatives(e: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """From e = exp(s - 1/tau), per anchor (i, a): the log-sum-exp n of its
    scores against every candidate (j, b) of another sample j != i, and the
    softmax exp(s - n) over those candidates, zero at its own sample's. e
    loses its own-sample entries."""
    k = e.shape[0]
    e[np.arange(k), :, np.arange(k), :] = 0
    total = e.sum(axis=(2, 3))
    return np.log(total) + 1 / LD(tau), e / total[:, :, None, None]


def _through_scores(g: np.ndarray, anchors: np.ndarray, cands: np.ndarray, tau: float):
    """The gradients w.r.t. anchors and cands (K, M, d) of a function whose
    gradient w.r.t. the scores anchors[i, a] . cands[j, b] / tau is
    g[i, a, j, b]; their sum if anchors is cands."""
    k, m, d = anchors.shape
    g = g.reshape(k * m, k * m) / LD(tau)
    # numpy's long-double np.dot is fastest on C-contiguous operands.
    if anchors is cands:
        return np.dot(g + g.T, anchors.reshape(k * m, d)).reshape(k, m, d)
    return (np.dot(g, cands.reshape(k * m, d)).reshape(k, m, d),
            np.dot(np.ascontiguousarray(g.T), anchors.reshape(k * m, d)).reshape(k, m, d))


def reference(z: np.ndarray, tau: float) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-sample losses (K,) and the gradient (K, M, d) of their mean, in
    long double on float64 embeddings z (K, M, d), keyed by CLI token: every
    objective, infonce only at M = 2. Each gradient w.r.t. a score is a
    softmax minus the indicator of the positive, chained through the
    objective's aggregation; suffstats' also runs through the rest means'
    normalization."""
    z = np.asarray(z, dtype=LD)
    k, m, _ = z.shape
    same, views, off = np.arange(k), np.arange(m), ~np.eye(m, dtype=bool)
    inv_tau = 1 / LD(tau)
    s = _scores(z, z, tau)
    e = np.exp(s - inv_tau)
    pos = s[same, :, same, :]  # pos[i, a, b]: anchor (i, a), positive (i, b)
    # Pair InfoNCE of every ordered view pair (a, b): view b of every sample.
    column = e.sum(axis=2)
    pair = (np.log(column) + inv_tau - pos)[:, off].mean(axis=1)
    g = e / column[:, :, None, :]
    g[same, :, same, :] -= 1
    g *= off[None, :, None, :] / LD(k * m * (m - 1))
    out = {"multicrop": (pair, _through_scores(g, z, z, tau))}
    # Per-target log-likelihoods against every view of every other sample.
    # d(log l) is 1 - l at the positive and -(1 - l) times the negatives'
    # softmax at each negative; -weight / K is d(mean loss) / d(log l).
    n, soft = _negatives(e, tau)
    log_denom = np.logaddexp(pos, n[..., None])
    share = np.exp(n[..., None] - log_denom)  # 1 - l
    log_l = np.where(off, pos - log_denom, -np.inf)
    lse_l = _lse(log_l, axis=2)
    weights = {
        "arithmetic": (np.log(LD(m - 1)) - lse_l, np.exp(log_l - lse_l[..., None]) / m),
        "geometric": (-log_l[:, off].reshape(k, m, m - 1).mean(axis=2), off / LD(m * (m - 1))),
    }
    for token, (per_anchor, weight) in weights.items():
        c = weight * share / -LD(k)
        g = -c.sum(axis=2)[:, :, None, None] * soft
        g[same, :, same, :] += c
        out[token] = (per_anchor.mean(axis=1), _through_scores(g, z, z, tau))
    # Suffstats: anchor (i, a) against its own rest statistic and every other
    # sample's; q is the normalized mean of the other M - 1 views.
    u = (z.sum(axis=1, keepdims=True) - z) / (m - 1)
    norms = np.sqrt((u * u).sum(axis=-1, keepdims=True))
    q = u / norms
    s = _scores(z, q, tau)
    rest = s[same[:, None], views, same[:, None], views]
    n, soft = _negatives(np.exp(s - inv_tau), tau)
    log_denom = np.logaddexp(rest, n)
    share = np.exp(n - log_denom) / LD(k * m)
    g = share[:, :, None, None] * soft
    g[same[:, None], views, same[:, None], views] -= share
    grad, grad_q = _through_scores(g, z, q, tau)
    grad_u = (grad_q - (grad_q * q).sum(axis=-1, keepdims=True) * q) / norms
    grad += (grad_u.sum(axis=1, keepdims=True) - grad_u) / (m - 1)
    out["suffstats"] = ((log_denom - rest).mean(axis=1), grad)
    return {"infonce": out["multicrop"], **out} if m == 2 else out
