"""Contrastive objectives over M views per sample.

Five objectives on a batch of K samples with M unit-norm embeddings each
(B = K*M views total), all built from temperature-scaled cosine scores:

  * pair InfoNCE: K-way softmax of view beta's positive among view beta of
    every sample, anchored at view alpha;
  * Multi-Crop: mean of pair InfoNCE over all M(M-1) ordered view pairs;
  * Arithmetic / Geometric poly-view losses: -log of the arithmetic mean,
    and the mean of -log, of the per-target-view likelihoods l_{i,alpha,beta}
    whose candidate set is the positive plus every view of every other
    sample (B-M+1 candidates);
  * Sufficient-statistics loss: each view contrasts against the normalized
    mean of its own rest set among the rest-set statistics of other samples.

One kernel, `_candidate_set_loss`, computes all five. It scores anchor views
against a candidate matrix (all views, one view, or the rest-set
statistics), leaves every same-sample candidate out of the negative sums,
takes each positive straight from its score, and aggregates the per-target
log-likelihoods by their mean or log-mean-exp (one target: the mean of one).

Shift rule: unit rows keep every score in [-1/tau, 1/tau]. Anchors scaled
by 1/tau get a column -1/tau and candidates a column of ones, so the score
GEMM itself subtracts the constant 1/tau. While 2/tau <= 700 no shifted
exp under- or overflows, and with anchors as candidates the exp matrix is
symmetric: each pair of view tiles is computed once for both. Below that
temperature each row takes the max of its non-excluded scores in each
candidate view, and symmetry is not used. A loss-only call runs pass 1 (the
negative sums); gradients add pass 2, which recomputes each tile. All
reductions run in float64 in a fixed order: equal inputs give equal bits.

Threads: one ordered map, `_ordered_map`, runs two kinds of work on one
pool of threads: the view tiles of a kernel call (in pass 1 a tile's score
GEMM, exp, mask and sums, in pass 2 its gradient products), and whole-batch
tasks, the independent held-out batches of an evaluation row or a study,
each drawn, encoded and scored by one task. The pool is made at the first
map with several items, as wide as OpenBLAS's thread count then; from then
on OpenBLAS runs one thread, so the pool takes over its cores. The calling
thread keeps the serial order: results come back in item order, so it
writes each tile's sums into their own slices of the negative sums, adds
each tile's gradient increments in tile order, and reduces the batches'
values in batch order. Each item's arithmetic is the same whichever thread
runs it, and OpenBLAS splits a GEMM between its threads by blocks of the
output, never within a dot product, so every output bit is the same at any
width. Without a handle on numpy's OpenBLAS the width is 1 and the items
run in order on the calling thread; so do single-item maps.

Two rules hold for the tasks. Nested calls run serially: a kernel call
inside a task runs its tiles one after another on the task's thread, since
a task that waited on its own pool would deadlock once every pool thread
did the same. Buffers come from the calling thread: it allocates one per
pool thread, sized for the largest tile that `_plan` gives at the batch's
(K, M), and a task's kernel calls use its slot. Buffers that threads
allocated themselves would grow one malloc arena per thread and raise the
peak memory.
"""

from __future__ import annotations

import contextvars
import ctypes
import enum
import functools
import math
import os
import queue
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

NORMALIZE_EPS = 1e-30
# exp(-700) is still a normal double; below tau = 2/700 rows take their own max.
_SHIFT_LIMIT = 700.0
# Views are grouped into tiles of at most this many rows (at least one view).
_TILE_ROWS = 1024
# The tile pool as (width, executor or None), made at the first map with several items.
_pool = None
_pool_lock = threading.Lock()
# The buffer of the task running in this context, or None outside any task.
_task_buffer = contextvars.ContextVar("polyview_task_buffer", default=None)


class _NumericalError(ValueError):
    """A non-finite value, a zero or non-unit norm: the arithmetic failed."""


class Method(enum.Enum):
    """Dispatch tag for the five objectives. Values are the CLI tokens."""

    INFONCE = "infonce"
    MULTICROP = "multicrop"
    ARITHMETIC_PVC = "arithmetic"
    GEOMETRIC_PVC = "geometric"
    SUFFSTATS = "suffstats"

    @classmethod
    def from_token(cls, token: str) -> "Method":
        for method in cls:
            if method.value == token:
                return method
        raise ValueError(
            f"unknown method {token!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class EmbeddingBatch:
    """K x M x d array of unit-norm embeddings, one row per view."""

    z: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=np.float64)
        object.__setattr__(self, "z", z)
        if z.ndim != 3:
            raise ValueError(f"embeddings must be (K, M, d), got shape {z.shape}")
        k, m, d = z.shape
        if k < 2 or m < 2 or d < 1:
            raise ValueError(f"need K >= 2, M >= 2, d >= 1, got {z.shape}")
        if not np.isfinite(z).all():
            raise _NumericalError("embeddings contain non-finite values")
        norms = np.linalg.norm(z, axis=-1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > 1e-12:
            raise _NumericalError(f"rows must be unit norm within 1e-12, worst error {worst:.3e}")

    @property
    def m(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True)
class LossResult:
    """Scalar objective plus the per-sample loss vector it averages."""

    total: float
    per_sample: np.ndarray = field(repr=False)

    @classmethod
    def from_per_sample(cls, per_sample: np.ndarray) -> "LossResult":
        return cls(total=float(per_sample.mean()), per_sample=per_sample)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale rows (last axis) to unit Euclidean norm.

    Raises on any row with norm <= 1e-30 rather than emitting NaN.
    """
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms <= NORMALIZE_EPS):
        raise _NumericalError("cannot normalize a zero or subnormal vector")
    return v / norms


def _check_tau(tau: float) -> None:
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0
            and math.isfinite(1.0 / tau)):
        raise ValueError(f"temperature tau must be a positive finite real with a finite "
                         f"reciprocal, got {tau}")


# ---------------------------------------------------------------------------
# The candidate-set kernel. Arrays are view-major: (views, K, d), so a tile
# of whole views is a contiguous block of rows.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _plan(others: bool, per_view: bool, ma: int, mc: int, k: int, symmetric: bool,
          tile_rows: int):
    """Index work shared by every call of one shape: targets (Ma, T), the
    candidate views holding each anchor view's positives; the tiles
    (a0, a1, b0, b1, mirrored, same), anchor views [a0, a1) against
    candidate views [b0, b1) with the flat indices of their same-sample
    entries, a mirrored tile also standing for its transpose; and the flat
    indices of the targets in a (Ma, K, Mc) array."""
    if others:
        targets = np.array([[b for b in range(mc) if b != a] for a in range(ma)])
    else:
        targets = np.arange(ma)[:, None]
    needed = np.full((ma, mc), not per_view)
    needed[np.arange(ma)[:, None], targets] = True
    rows, step, tiles = np.arange(k), max(1, tile_rows // k), []
    for a0 in range(0, ma, step):
        a1 = min(a0 + step, ma)
        for b0 in range(a0 if symmetric else 0, mc, step):
            b1 = min(b0 + step, mc)
            mirrored = symmetric and b0 != a0
            if needed[a0:a1, b0:b1].any() or (mirrored and needed[b0:b1, a0:a1].any()):
                same = [(a * k + rows) * ((b1 - b0) * k) + b * k + rows
                        for a in range(a1 - a0) for b in range(b1 - b0)]
                tiles.append((a0, a1, b0, b1, mirrored, np.concatenate(same)))
    gather = (np.arange(ma)[:, None, None] * k + rows[:, None]) * mc + targets[:, None, :]
    return targets, tuple(tiles), gather


def _openblas_thread_calls():
    """The get and set thread-count functions of numpy's bundled OpenBLAS,
    found among the libraries this process has mapped, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and "numpy" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _tile_pool():
    """(width, executor or None): the tile threads, made on first use as wide
    as OpenBLAS's thread count, which is then set to one."""
    global _pool
    with _pool_lock:
        if _pool is None:
            calls = _openblas_thread_calls()
            width = max(1, calls[0]()) if calls else 1
            if calls:
                calls[1](1)
            _pool = (width, ThreadPoolExecutor(width, "polyview-tile") if width > 1 else None)
        return _pool


def _renew_pool_in_child():
    # A forked child has none of its parent's threads: give it its own pool.
    global _pool, _pool_lock
    _pool_lock = threading.Lock()
    if _pool is not None and _pool[1] is not None:
        _pool = (_pool[0], ThreadPoolExecutor(_pool[0], "polyview-tile"))


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_pool_in_child)


def _ordered_map(fn, items, size):
    """Yield fn(item, buffer) for each item, in item order. Several items run
    on the tile pool, each in a copy of the caller's context (numpy's error
    state is in it), with up to twice its width submitted, so that a thread
    the host delays holds up the others less. The calling thread allocates
    one buffer of size floats per pool thread, and a running item takes a
    free one. An item on the pool is a task: a map inside it runs serially
    on the task's thread, with the task's buffer. If items raise, the first
    one's error in item order is raised and the items not yet started are
    cancelled."""
    inside = _task_buffer.get()
    width, pool = _tile_pool() if len(items) > 1 and inside is None else (1, None)
    if pool is None:
        buffer = np.empty(size) if inside is None else inside
        for item in items:
            yield fn(item, buffer)
        return
    free = queue.SimpleQueue()
    for _ in range(width):
        free.put(np.empty(size))

    def run(item):
        buffer = free.get()
        _task_buffer.set(buffer)
        try:
            return fn(item, buffer)
        finally:
            free.put(buffer)

    pending = deque()
    try:
        for item in items:
            if len(pending) == 2 * width:
                yield pending.popleft().result()
            pending.append(pool.submit(contextvars.copy_context().run, run, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _largest_tile(k, m):
    """Floats in the largest tile that _plan gives for K samples and at most
    M views, without stacked batches."""
    return (min(m, max(1, _TILE_ROWS // k)) * k) ** 2


def _map_batches(fn, n, k, m):
    """[fn(i) for i in range(n)]. With several batches and a pool, batch i is
    a task of the ordered map, and its kernel calls, on K samples of at most
    M views, fit in the task's buffer. Else the batches run in order on the
    calling thread, with no buffer of the map's: one held unused through the
    kernel calls would make each call fault its own tiles' pages in anew."""
    if n > 1 and _tile_pool()[1] is not None:
        return list(_ordered_map(lambda i, _: fn(i), range(n), _largest_tile(k, m)))
    return [fn(i) for i in range(n)]


def _exp_tile(a_hat, c_hat, k, tile, shift, fill, buffer):
    """exp of one tile of shifted scores as (va, K, vb, K), every
    same-sample entry zero, written into the front of buffer. shift is None
    under the constant shift; else the per-row, per-view shifts, which fill
    takes from this tile's maxima."""
    a0, a1, b0, b1, _, same = tile
    lead = a_hat.shape[:-2]
    s = buffer[:math.prod(lead) * (a1 - a0) * (b1 - b0) * k * k]
    s = s.reshape(*lead, (a1 - a0) * k, (b1 - b0) * k)
    np.matmul(a_hat[..., a0 * k:a1 * k, :], np.swapaxes(c_hat[..., b0 * k:b1 * k, :], -1, -2),
              out=s)
    e = s.reshape(*lead, a1 - a0, k, b1 - b0, k)
    if shift is None:
        np.exp(s, out=s)
        s.reshape(*lead, -1)[..., same] = 0.0
        return e
    s.reshape(*lead, -1)[..., same] = -np.inf
    block = shift[..., a0:a1, :, b0:b1]
    if fill:
        block[...] = e.max(axis=-1)
    e -= block[..., None]
    return np.exp(e, out=e)


def _candidate_set_loss(anchors, cands, tau, others, log_mean_exp, per_view, want_grad):
    """Per-sample loss and optional gradients of one candidate-set objective.

    anchors (Ma, K, d) and cands (Mc, K, d) are view-major unit rows; pass
    the same array for both when the candidates are the anchor views. A
    loss-only call may stack batches on leading axes of both. The
    positives of anchor (alpha, i) are its own sample's candidates in every
    other view (others) or in view alpha. Its negatives are the candidates
    of every other sample: in the positive's view only (per_view), or in
    every view. Returns (per_sample, grad_anchors, grad_cands); the two
    gradients are one array when anchors is cands.
    """
    *lead, ma, k, d = anchors.shape
    mc = cands.shape[-3]
    rowmax = 2.0 / tau > _SHIFT_LIMIT
    symmetric = cands is anchors and not rowmax
    targets, tiles, gather = _plan(others, per_view, ma, mc, k, symmetric, _TILE_ROWS)
    n_t = targets.shape[1]
    tile_size = math.prod(lead) * k * k * max((t[1] - t[0]) * (t[3] - t[2]) for t in tiles)
    fold = np.append(np.full(d, 1.0 / tau), -1.0 / tau)
    c_hat = np.concatenate((cands.reshape(*lead, -1, d), np.ones((*lead, mc * k, 1))), axis=-1)
    a_hat = c_hat if cands is anchors else np.concatenate(
        (anchors.reshape(*lead, -1, d), np.ones((*lead, ma * k, 1))), axis=-1)
    a_hat = a_hat * fold
    shift = np.zeros((*lead, ma, k, mc)) if rowmax else None

    # Pass 1: the negative sums of each anchor row in each candidate view,
    # under that row's shift for the view. A tile fills its own shifts, a
    # slice of shift that no other tile writes.
    def tile_sums(tile, buffer):
        e = _exp_tile(a_hat, c_hat, k, tile, shift, True, buffer)
        return e.sum(axis=-1), (np.moveaxis(e.sum(axis=-3), -3, -1) if tile[4] else None)

    neg = np.empty((*lead, ma, k, mc))
    for (a0, a1, b0, b1, mirrored, _), (row_sums, col_sums) in zip(
            tiles, _ordered_map(tile_sums, tiles, tile_size)):
        neg[..., a0:a1, :, b0:b1] = row_sums
        if mirrored:
            neg[..., b0:b1, :, a0:a1] = col_sums
    # Positives straight from the shifted scores: (K, Ma, Mc) per-sample GEMMs.
    same = (a_hat.reshape(*lead, ma, k, -1).swapaxes(-3, -2)
            @ np.moveaxis(c_hat.reshape(*lead, mc, k, -1), -3, -1))
    pos = np.take(same.swapaxes(-3, -2).reshape(*lead, -1), gather, -1)
    if per_view:
        neg_t = np.take(neg.reshape(*lead, -1), gather, -1)
        log_neg_t = np.log(neg_t) + (np.take(shift.reshape(*lead, -1), gather, -1) if rowmax else 0.0)
    else:
        top = shift.max(axis=-1, keepdims=True) if rowmax else 0.0
        rel = np.exp(shift - top) if rowmax else 1.0
        neg_t = (neg * rel).sum(axis=-1, keepdims=True)
        log_neg_t = np.log(neg_t) + top
    log_denom = np.logaddexp(pos, log_neg_t)
    log_l = pos - log_denom
    if log_mean_exp:
        top = log_l.max(axis=-1, keepdims=True)
        weights = np.exp(log_l - top)
        total = weights.sum(axis=-1, keepdims=True)
        per_sample = math.log(n_t) - (top + np.log(total)).sum(axis=(-3, -1)) / ma
    else:
        per_sample = log_l.sum(axis=(-3, -1)) / (-ma * n_t)
    if not want_grad:
        return per_sample, None, None

    # d(total)/d(score) is -w (1 - l) at each positive; at a negative of
    # anchor row r in candidate view b it is coeff[r, b] times the tile entry.
    share = np.exp(log_neg_t - log_denom)  # 1 - l, without cancellation
    share *= (weights / total if log_mean_exp else 1.0 / n_t) / (k * ma * tau)
    pos_coeff = np.zeros((ma, k, mc))
    pos_coeff.reshape(-1)[gather] = -share
    if per_view:
        coeff = np.zeros((ma, k, mc))
        coeff.reshape(-1)[gather] = share / neg_t
    else:
        coeff = np.broadcast_to(share.sum(axis=2, keepdims=True) * rel / neg_t, (ma, k, mc))
    grad_a = np.einsum("aib,bid->aid", pos_coeff, cands)
    grad_c = grad_a if cands is anchors else np.zeros_like(cands)
    grad_c += np.einsum("aib,aid->bid", pos_coeff, anchors)

    # Pass 2: recompute each tile. Rows take their anchor role, and in a
    # symmetric tile their candidate role too, from E_ab @ [C_b | g * C_b].
    # A tile returns its increments (gradient, first view, last view + 1,
    # value), which are added in order.
    def tile_increments(tile, buffer):
        a0, a1, b0, b1, mirrored, _ = tile
        e = _exp_tile(a_hat, c_hat, k, tile, shift, False, buffer)
        c_rows, c_cols = coeff[a0:a1, :, b0:b1], coeff[b0:b1, :, a0:a1]
        za, zb = anchors[a0:a1], cands[b0:b1]
        out = e.transpose(0, 2, 1, 3) @ (_stack_rhs(zb, c_cols) if symmetric else zb)
        steps = [(grad_a, a0, a1, np.einsum("aib,abid->aid", c_rows, out[..., :d]))]
        if symmetric:
            steps.append((grad_a, a0, a1, out[..., d:].sum(axis=1)))
        if mirrored:
            out = e.transpose(2, 0, 3, 1) @ _stack_rhs(za, c_rows)
            steps.append((grad_a, b0, b1, np.einsum("bja,bajd->bjd", c_cols, out[..., :d])))
            steps.append((grad_a, b0, b1, out[..., d:].sum(axis=1)))
        elif not symmetric:
            weighted = c_rows.transpose(2, 0, 1)[..., None] * za
            steps.append((grad_c, b0, b1, (e.transpose(2, 0, 3, 1) @ weighted).sum(axis=1)))
        return steps

    for steps in _ordered_map(tile_increments, tiles, tile_size):
        for grad, v0, v1, increment in steps:
            grad[v0:v1] += increment
    return per_sample, grad_a, grad_c


def _stack_rhs(rows, coeff):
    """[rows | coeff * rows] per sub-block: rows (v, K, d), coeff (v, K, u)
    -> (u, v, K, 2d)."""
    v, k, d = rows.shape
    out = np.empty((coeff.shape[2], v, k, 2 * d))
    out[..., :d] = rows
    np.multiply(coeff.transpose(2, 0, 1)[..., None], rows, out=out[..., d:])
    return out


# ---------------------------------------------------------------------------
# Public objectives
# ---------------------------------------------------------------------------


def loss_pair_infonce(z: EmbeddingBatch, alpha: int, beta: int, tau: float) -> LossResult:
    """K-way softmax InfoNCE: anchor view alpha, candidates view beta of
    every sample. Collapsed embeddings give ln K."""
    _check_tau(tau)
    for name, view in (("alpha", alpha), ("beta", beta)):
        if not 0 <= view < z.m:
            raise ValueError(f"{name} must be in [0, {z.m}), got {view}")
    if alpha == beta:
        raise ValueError(f"alpha and beta must differ, both are {alpha}")
    zt = z.z.transpose(1, 0, 2)
    per_sample, _, _ = _candidate_set_loss(
        zt[alpha:alpha + 1], zt[beta:beta + 1], tau, False, False, True, False
    )
    return LossResult.from_per_sample(per_sample)


def compute_loss(method: Method, z: EmbeddingBatch, tau: float) -> LossResult:
    """Dispatch to the objective named by method.

    INFONCE is the symmetric two-view pair loss and requires M = 2; at M = 2
    it coincides with MULTICROP.
    """
    return _loss_and_zgrad(method, z, tau, want_grad=False)[0]


def _loss_and_zgrad(method: Method, z: EmbeddingBatch, tau: float, want_grad: bool = True):
    """Loss plus (optionally) its exact gradient with respect to z."""
    _check_tau(tau)
    if method is Method.INFONCE and z.m != 2:
        raise ValueError(f"infonce requires exactly M = 2 views, got M = {z.m}")
    if not isinstance(method, Method):
        raise ValueError(f"unknown method: {method!r}")
    per_sample, grad = _per_sample_loss(method, z.z.transpose(1, 0, 2).copy(), tau, want_grad)
    result = LossResult.from_per_sample(per_sample)
    return result, (grad.transpose(1, 0, 2).copy() if want_grad else None)


def _per_sample_loss(method: Method, zt: np.ndarray, tau: float, want_grad: bool):
    """Per-sample losses (..., K) of view-major unit rows zt (..., M, K, d),
    and the gradient w.r.t. zt of a single batch (M, K, d) if want_grad."""
    if method is not Method.SUFFSTATS:
        return _candidate_set_loss(zt, zt, tau, True, method is Method.ARITHMETIC_PVC,
                                   method in (Method.INFONCE, Method.MULTICROP), want_grad)[:2]
    # Candidates: rest-set statistics q_v = normalize((sum_b z_b - z_v) / (M-1)).
    m = zt.shape[-3]
    u = (zt.sum(axis=-3, keepdims=True) - zt) / (m - 1)
    u_norms = np.linalg.norm(u, axis=-1, keepdims=True)
    if np.any(u_norms <= NORMALIZE_EPS):
        raise _NumericalError(
            "rest-set mean has near-zero norm (antipodal views); cannot normalize")
    q = u / u_norms
    per_sample, grad, grad_q = _candidate_set_loss(zt, q, tau, False, False, False, want_grad)
    if want_grad:
        grad_u = (grad_q - np.sum(grad_q * q, axis=-1, keepdims=True) * q) / u_norms
        grad += (grad_u.sum(axis=0) - grad_u) / (m - 1)
    return per_sample, grad
