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
statistics), leaves every same-sample candidate out of the negative sums
(its score becomes -inf before exp under either shift rule), takes each
positive straight from its score, and aggregates the per-target
log-likelihoods by their mean or log-mean-exp (one target: the mean of one).
Method.pairwise says which objectives keep negatives in the positive's
view. Every caller, the encoder's step and gradient oracle too, reaches the
kernel through one gate, _view_major, which checks the objective and copies
the rows; _normalize_rows normalizes every row here and in the encoder.

Shift rule: unit rows keep every score in [-1/tau, 1/tau]. Anchors scaled
by 1/tau get a column -1/tau and candidates a column of ones, so the score
GEMM itself subtracts the constant 1/tau. While 2/tau <= 700 no shifted
exp under- or overflows, and with anchors as candidates the exp matrix is
symmetric: each pair of view tiles is computed once for both. Below that
temperature each row takes the max of its non-excluded scores in each
candidate view, and symmetry is not used. A loss-only call runs pass 1 (the
negative sums); gradients add pass 2, which recomputes each tile. All
reductions run in float64 in a fixed order: equal inputs give equal bits.

Tiles and blocks: one constant, _ROW_BLOCK, sizes both. A tile is a group
of whole views holding at most _ROW_BLOCK rows, or a single view. Every
tile of a call runs the same row blocks in row order, rows [i0, i1) of each
anchor view, at most _ROW_BLOCK at a time; so no K x K tile is ever held
whole, and a group of views (K <= _ROW_BLOCK / 2) is one block. A block's
same-sample scores form a diagonal that the mask sets through a view. Row
sums, row maxima and a row's pass-2 product are whole rows in any block. A
mirrored tile's column sums in pass 1 are added down each anchor view's
rows one by one, as one sum over the view's rows adds them: a view split
over blocks carries its running sum in the row in front of each later
block's scores, so pass 1 has the bits of unsplit views. Pass 2 weighs each
block's exp scores E by the gradient's coefficients,
W = E * (c_rows + c_cols^T) (by c_rows alone where the tile is one-sided),
and takes every term from two d-wide products: W @ C for the rows and, in a
mirrored or one-sided tile, W^T @ A_block for the columns. The latter has
the block's rows as its inner dimension, so a split view sums it over its
blocks in block order, which rounds otherwise than one GEMM over all rows
(at K = 1024, by at most 2.5e-16 of the largest entry).

Threads: one ordered map, `_ordered_map`, runs two kinds of work on one
pool of threads: the view tiles of a kernel call (in pass 1 a tile's
blocks of score GEMM, mask, exp and sums, in pass 2 their gradient
products), and whole-batch
tasks, the independent held-out batches of an evaluation row or a study,
each drawn, encoded and scored by one task. The pool is made at the first
map with several items, as wide as OpenBLAS's thread count then; from then
on OpenBLAS runs one thread, so the pool takes over its cores. The calling
thread keeps the serial order: results come back in item order, so it
adds each tile's gradient increments in tile order and reduces the
batches' values in batch order; a pass-1 tile writes its sums and shifts
into slices of the call's arrays that no other tile writes. Each item's
arithmetic is the same whichever thread runs it, and OpenBLAS splits a
GEMM between its threads by blocks of the output, never within a dot
product, so every output bit is the same at any width. Without a handle on
numpy's OpenBLAS the width is 1 and the items run in order on the calling
thread; so do single-item maps.

Two rules hold for the tasks. Nested calls run serially: a kernel call
inside a task runs its tiles one after another on the task's thread, since
a task that waited on its own pool would deadlock once every pool thread
did the same. Memory comes from the calling thread: it allocates one
buffer (a slot) per pool thread, sized for the largest tile of the map, and
a task's kernel calls use its slot (a batch task's slot fits the pass-1
blocks of loss-only calls at the batch's (K, M)); it also allocates each
pass-2 tile's increments as it submits the tile. Memory that threads
allocated themselves would grow one malloc arena per thread and raise the
peak memory: at K = 1024 and M = 10, pass-2 operands and increments made
on two pool threads cost about 10 MiB of peak RSS.

Memory: a kernel call keeps one copy of each array that a pass reads.
Through pass 1 it holds, besides its inputs and slots, the folded rows of
every anchor [z/tau, -1/tau] and candidate [z, 1] (which the tiles and the
positives' GEMMs read), the negative sums, and the row shifts below the
shift limit, which pass 2 reads too. The folded rows die with pass 1, so
the per-target arrays made from its sums reuse their memory, and those die
before pass 2, which holds the negative-score coefficients (Ma, K, Mc),
the gradients and the increments of at most twice the pool's width of
tiles: (va, K, d) for a tile's rows and (vb, K, d) for its columns. A
pass-1 slot holds one block's scores behind one carried row. A pass-2 slot
holds the tile's folded rows, then one block's weighted scores W, the
weights of _WEIGHT_ROWS rows of a symmetric tile, and a later block's
column increments. At K = 1024, M = 10 and 128-row blocks each copy of the
embeddings is 2.5 MiB, a slot 1.0 MiB in pass 1 and 2.0 MiB in pass 2, and
a tile's increments 0.5 MiB.
"""

from __future__ import annotations

import contextvars
import ctypes
import enum
import functools
import math
import os
import queue
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

NORMALIZE_EPS = 1e-30
# Every loss lies in [0, 2/tau + ln(candidates)], and ln(candidates) <= 37
# for any count a double holds exactly (2**53). The studies square sums of
# up to 2**53 losses; at tau >= MIN_TAU such a square stays below the largest
# double, since 2**53 * (2/tau + 37) <= sqrt(max) there.
MIN_TAU = 2.0**54 / (math.sqrt(sys.float_info.max) - 37 * 2.0**53)
# exp(-700) is still a normal double; below tau = 2/700 rows take their own max.
_SHIFT_LIMIT = 700.0
# A tile holds whole views of at most this many rows, or one view that runs
# in blocks of at most this many anchor rows.
_ROW_BLOCK = 128
# Pass 2 weighs a symmetric tile's scores this many rows at a time, so its
# weights take a quarter of a 128-row block's memory, not the whole block's.
_WEIGHT_ROWS = 32
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

    @property
    def pairwise(self) -> bool:
        """K candidates per target, negatives only in the positive's view (else KM - M + 1)."""
        return self in (Method.INFONCE, Method.MULTICROP)

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
    """A copy of v with its rows (last axis) scaled to unit Euclidean norm;
    raises on any row with norm <= NORMALIZE_EPS rather than emitting NaN."""
    v = np.array(v, dtype=np.float64)
    _normalize_rows(v, "cannot normalize a zero or subnormal vector")
    return v


def _normalize_rows(v: np.ndarray, message: str) -> np.ndarray:
    """Divide the rows (last axis) of v by their norms in place, and return
    the norms with a trailing axis of one. Any norm <= NORMALIZE_EPS is
    refused with _NumericalError(message), before v changes."""
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms <= NORMALIZE_EPS):
        raise _NumericalError(message)
    v /= norms
    return norms


def _through_normalize(grad: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The gradient w.r.t. rows v of a loss whose gradient w.r.t. unit = v / |v|
    is grad: (grad - (grad . unit) unit) / |v|, written into grad. norms holds
    |v| and broadcasts against grad."""
    grad -= np.sum(grad * unit, axis=-1, keepdims=True) * unit
    grad /= norms
    return grad


def _check_objective(method: Method, m: int, tau: float) -> None:
    """Refuse a method that is not a Method, infonce at M != 2, and a bad tau."""
    if not isinstance(method, Method):
        raise ValueError(f"unknown method: {method!r}")
    if method is Method.INFONCE and m != 2:
        raise ValueError(f"infonce requires M = 2, got M = {m}")
    if not (isinstance(tau, (int, float)) and MIN_TAU <= tau < math.inf):
        raise ValueError(f"temperature tau must be a finite real >= {MIN_TAU:.3g}, at which "
                         f"squared losses cannot overflow, got {tau}")


# ---------------------------------------------------------------------------
# The candidate-set kernel. Arrays are view-major: (views, K, d), so a tile
# of whole views is a contiguous block of rows.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _plan(others: bool, per_view: bool, ma: int, mc: int, k: int, symmetric: bool,
          row_block: int):
    """Index work shared by every call of one shape: targets (Ma, T), the
    candidate views holding each anchor view's positives; the tiles
    (a0, a1, b0, b1, mirrored), anchor views [a0, a1) against candidate
    views [b0, b1), a mirrored tile also standing for its transpose; the
    flat indices of the targets in a (Ma, K, Mc) array; and the row blocks
    (i0, i1) of at most row_block rows that every tile runs in row order,
    rows [i0, i1) of each of its anchor views. A tile is a group of whole
    views of at most row_block rows, or one view. A group exists only when
    K <= row_block / 2, so it runs as the one block (0, K)."""
    if others:
        targets = np.array([[b for b in range(mc) if b != a] for a in range(ma)])
    else:
        targets = np.arange(ma)[:, None]
    needed = np.full((ma, mc), not per_view)
    needed[np.arange(ma)[:, None], targets] = True
    step, tiles = max(1, row_block // k), []
    for a0 in range(0, ma, step):
        a1 = min(a0 + step, ma)
        for b0 in range(a0 if symmetric else 0, mc, step):
            b1 = min(b0 + step, mc)
            mirrored = symmetric and b0 != a0
            if needed[a0:a1, b0:b1].any() or (mirrored and needed[b0:b1, a0:a1].any()):
                tiles.append((a0, a1, b0, b1, mirrored))
    gather = (np.arange(ma)[:, None, None] * k + np.arange(k)[:, None]) * mc + targets[:, None, :]
    blocks = tuple((i0, min(i0 + row_block, k)) for i0 in range(0, k, row_block))
    return targets, tuple(tiles), gather, blocks


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


def _ordered_map(fn, items, size, prepare=None):
    """Yield fn(prepare(item), buffer) for each item, in item order (prepare
    defaults to the identity). Several items run on the tile pool, each in a
    copy of the caller's context (numpy's error state is in it), with up to
    twice its width submitted, so that a thread the host delays holds up the
    others less. The calling thread allocates one buffer of size floats per
    pool thread, and a running item takes a free one; it also runs prepare,
    as each item is submitted, so memory that prepare allocates for an
    item's results comes from the calling thread too. An item on the pool is
    a task: a map inside it runs serially on the task's thread, with the
    task's buffer. If items raise, the first one's error in item order is
    raised and the items not yet started are cancelled."""
    prepare = prepare or (lambda item: item)
    inside = _task_buffer.get()
    width, pool = _tile_pool() if len(items) > 1 and inside is None else (1, None)
    if pool is None:
        buffer = np.empty(size) if inside is None else inside
        for item in items:
            yield fn(prepare(item), buffer)
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
            pending.append(pool.submit(contextvars.copy_context().run, run, prepare(item)))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _pass_one_slot(tiles, blocks, k):
    """Floats of a pass-1 slot for one batch: the largest block's scores,
    behind one row for a carried column sum. The first block is the largest."""
    i0, i1 = blocks[0]
    return max((1 + (a1 - a0) * (i1 - i0)) * (b1 - b0) * k for a0, a1, b0, b1, _ in tiles)


def _map_batches(fn, n, k, m):
    """[fn(i) for i in range(n)]. With several batches and a pool, batch i is
    a task of the ordered map, and its loss-only kernel calls, on K samples
    of at most M views, fit in the task's buffer. Else the batches run in
    order on the calling thread, with no buffer of the map's: one held unused
    through the kernel calls would make each call fault its own tiles' pages
    in anew."""
    if n > 1 and _tile_pool()[1] is not None:
        _, tiles, _, blocks = _plan(True, False, m, m, k, False, _ROW_BLOCK)
        return list(_ordered_map(lambda i, _: fn(i), range(n), _pass_one_slot(tiles, blocks, k)))
    return [fn(i) for i in range(n)]


def _carve(flat, *shapes):
    """Consecutive arrays of the given shapes from the front of flat."""
    arrays, start = [], 0
    for shape in shapes:
        arrays.append(flat[start:start + math.prod(shape)].reshape(shape))
        start += arrays[-1].size
    return arrays


def _hat(views, inv_tau, out):
    """The rows of views (..., v, K, d) with one column appended, written into
    out (..., v * K, d + 1): [z | 1] for candidates (inv_tau None), or
    [z / tau | -1 / tau] for anchors, whose product with a candidate row is
    its score minus the shift 1 / tau."""
    d = views.shape[-1]
    rows = views.reshape(out.shape[:-1] + (d,))
    if inv_tau is None:
        out[..., :d] = rows
        out[..., d] = 1.0
    else:
        np.multiply(rows, inv_tau, out=out[..., :d])
        out[..., d] = -inv_tau
    return out


def _exp_tile(a_hat, c_hat, k, tile, block, shift, fill, s):
    """exp of one block (i0, i1) of a tile's shifted scores as (va, n, vb, K),
    every same-sample entry zero, written into s (va * n, vb * K). a_hat holds
    the block's folded anchor rows and c_hat the tile's folded candidate rows.
    shift is None under the constant shift; else the per-row, per-view
    shifts, whose rows of this block fill takes from its maxima."""
    a0, a1, b0, b1 = tile[:4]
    i0, i1 = block
    np.matmul(a_hat, np.swapaxes(c_hat, -1, -2), out=s)
    e = s.reshape(*s.shape[:-2], a1 - a0, i1 - i0, b1 - b0, k)
    # Row i0 + r's own sample is column i0 + r of each candidate view, a
    # diagonal set through a view; exp(-inf) is 0, and -inf is no row's max.
    np.einsum("...arbr->...arb", e[..., i0:i1])[...] = -np.inf
    if shift is not None:
        rows = shift[..., a0:a1, i0:i1, b0:b1]
        if fill:
            rows[...] = e.max(axis=-1)
        e -= rows[..., None]
    return np.exp(e, out=e)


def _candidate_set_loss(anchors, cands, tau, log_mean_exp, per_view, want_grad):
    """Per-sample loss and optional gradients of one candidate-set objective.

    anchors (Ma, K, d) and cands (Mc, K, d) are view-major unit rows; pass
    the same array for both when the candidates are the anchor views. A
    loss-only call may stack batches on leading axes of both. The
    positives of anchor (alpha, i) are its own sample's candidates in every
    other view when cands is anchors, else in view alpha. Its negatives are
    the candidates of every other sample: in the positive's view only
    (per_view), or in every view. Returns (per_sample, grad_anchors,
    grad_cands); the two gradients are one array when anchors is cands. What
    a call holds through each pass is set out in the module docstring.
    """
    *lead, ma, k, d = anchors.shape
    rowmax = 2.0 / tau > _SHIFT_LIMIT
    symmetric = cands is anchors and not rowmax
    plan = _plan(cands is anchors, per_view, ma, cands.shape[-3], k, symmetric, _ROW_BLOCK)
    _, tiles, _, blocks = plan
    shift = np.zeros((*lead, ma, k, cands.shape[-3])) if rowmax else None
    per_sample, coeff, grad_a, grad_c = _loss_terms(
        anchors, cands, tau, plan, shift, log_mean_exp, per_view, want_grad)
    if not want_grad:
        return per_sample, None, None

    # Pass 2: recompute each tile, block by block, as one weighted tile
    # W = E * (c_rows + c_cols^T), where c_rows[a, i, b] weighs anchor row
    # (a, i) against candidate view b and c_cols[b, j, a] the mirrored pair; a
    # one-sided tile has no mirrored pair and weighs by c_rows alone. A
    # block's rows take their terms from W @ C_b, whole in any block; a
    # mirrored or one-sided tile's columns take theirs from W^T @ A_block,
    # which a split tile sums over its blocks in block order. A tile folds
    # its candidate and anchor rows into the front of its slot, and each
    # block makes W behind them. A tile writes its increments (gradient,
    # first view, last view + 1, value) into memory that the calling thread
    # takes as it submits the tile, and they are added in tile order.
    def increment_shapes(tile):
        # The rows' increments, and the columns' if any.
        va, vb = tile[1] - tile[0], tile[3] - tile[2]
        return (va, k, d), (vb if tile[4] or not symmetric else 0, k, d)

    def increment_memory(tile):
        return tile, np.empty(sum(map(math.prod, increment_shapes(tile))))

    def block_arrays(tile, n):
        # The tile's folded candidate and anchor rows; behind them an n-row
        # block's weighted scores, the weights of a symmetric tile, and a
        # later block's column increments.
        va, vb = tile[1] - tile[0], tile[3] - tile[2]
        later = increment_shapes(tile)[1] if len(blocks) > 1 else (0,)
        return ((vb * k, d + 1), (va, k, d + 1), (va * n, vb * k),
                (min(n, _WEIGHT_ROWS) * symmetric, vb, k), later)

    def tile_increments(item, buffer):
        tile, memory = item
        a0, a1, b0, b1, _ = tile
        va, vb = a1 - a0, b1 - b0
        inc_a, inc_c = _carve(memory, *increment_shapes(tile))
        zb = cands[b0:b1].reshape(vb * k, d)
        c_cols = coeff[b0:b1, :, a0:a1].transpose(2, 0, 1)
        c_hat, a_hat = _carve(buffer, *block_arrays(tile, 0)[:2])
        _hat(zb, None, c_hat)
        _hat(anchors[a0:a1], 1.0 / tau, a_hat.reshape(-1, d + 1))
        for j, (i0, i1) in enumerate(blocks):
            s, weights, later = _carve(buffer, *block_arrays(tile, i1 - i0))[2:]
            e = _exp_tile(a_hat[:, i0:i1].reshape(-1, d + 1), c_hat, k, tile, (i0, i1), shift,
                          False, s)
            c_rows = coeff[a0:a1, i0:i1, b0:b1, None]
            if not symmetric:
                e *= c_rows
            for a in range(va * symmetric):
                for r0 in range(0, i1 - i0, _WEIGHT_ROWS):
                    rows = e[a, r0:r0 + _WEIGHT_ROWS]
                    rows *= np.add(c_rows[a, r0:r0 + _WEIGHT_ROWS], c_cols[a],
                                   out=weights[:len(rows)])
            np.matmul(s.reshape(va, i1 - i0, vb * k), zb, out=inc_a[:, i0:i1])
            if inc_c.size:
                np.matmul(s.T, anchors[a0:a1, i0:i1].reshape(-1, d),
                          out=(inc_c if j == 0 else later).reshape(vb * k, d))
                if j > 0:
                    inc_c += later
        return [(grad_a, a0, a1, inc_a)] + [(grad_c, b0, b1, inc_c)] * bool(inc_c.size)

    slot = max(sum(map(math.prod, block_arrays(tile, blocks[0][1] - blocks[0][0])))
               for tile in tiles)
    for steps in _ordered_map(tile_increments, tiles, slot, increment_memory):
        for grad, v0, v1, increment in steps:
            grad[v0:v1] += increment
    return per_sample, grad_a, grad_c


def _loss_terms(anchors, cands, tau, plan, shift, log_mean_exp, per_view, want_grad):
    """Everything made from pass 1's sums: the per-sample loss and, if
    want_grad, the negative-score coefficients (Ma, K, Mc) that pass 2 reads
    and the gradients holding the positives' terms. Every per-target array
    dies here, before pass 2."""
    *lead, ma, k, _ = anchors.shape
    mc = cands.shape[-3]
    rowmax = shift is not None
    targets, _, gather, _ = plan
    n_t = targets.shape[1]
    pos, neg = _pass_one(anchors, cands, tau, plan, shift)
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
        return per_sample, None, None, None

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
    return per_sample, coeff, grad_a, grad_c


def _pass_one(anchors, cands, tau, plan, shift):
    """Pass 1: the positives' shifted scores (..., Ma, K, T) and the negative
    sums (..., Ma, K, Mc) of every anchor row. The folded copies of all rows
    live only here, so that the arrays made from these sums reuse their
    memory."""
    *lead, ma, k, d = anchors.shape
    mc = cands.shape[-3]
    _, tiles, gather, blocks = plan
    c_hat = _hat(cands, None, np.empty((*lead, mc * k, d + 1)))
    a_hat = _hat(anchors, 1.0 / tau, np.empty((*lead, ma * k, d + 1))).reshape(*lead, ma, k, -1)
    neg = np.empty((*lead, ma, k, mc))

    # The negative sums of each anchor row in each candidate view, under
    # that row's shift for the view. A tile writes its own slices of neg and
    # fills its own shifts, slices that no other tile writes. A mirrored
    # tile's column sums run down each anchor view's rows in order: a view
    # split over several blocks carries its running sum in the row in front
    # of each later block's scores.
    def tile_sums(tile, buffer):
        a0, a1, b0, b1, mirrored = tile
        va, cols = a1 - a0, (b1 - b0) * k
        for i0, i1 in blocks:
            rows = va * (i1 - i0)
            s = buffer[:math.prod(lead) * (1 + rows) * cols].reshape(*lead, 1 + rows, cols)
            e = _exp_tile(a_hat[..., a0:a1, i0:i1, :].reshape(*lead, rows, d + 1),
                          c_hat[..., b0 * k:b1 * k, :], k, tile, (i0, i1), shift, True,
                          s[..., 1:, :])
            neg[..., a0:a1, i0:i1, b0:b1] = e.sum(axis=-1)
            if mirrored:
                if i0 > 0:
                    s[..., :1, :] = carried
                carried = s[..., int(i0 == 0):, :].reshape(*lead, va, -1, cols).sum(axis=-2)
        if mirrored:
            neg[..., b0:b1, :, a0:a1] = np.moveaxis(carried.reshape(*lead, va, b1 - b0, k), -3, -1)

    for _ in _ordered_map(tile_sums, tiles, math.prod(lead) * _pass_one_slot(tiles, blocks, k)):
        pass
    # Positives straight from the shifted scores: (K, Ma, Mc) per-sample GEMMs.
    same = a_hat.swapaxes(-3, -2) @ np.moveaxis(c_hat.reshape(*lead, mc, k, -1), -3, -1)
    return np.take(same.swapaxes(-3, -2).reshape(*lead, -1), gather, -1), neg


# ---------------------------------------------------------------------------
# Public objectives
# ---------------------------------------------------------------------------


def loss_pair_infonce(z: EmbeddingBatch, alpha: int, beta: int, tau: float) -> LossResult:
    """K-way softmax InfoNCE: anchor view alpha, candidates view beta of
    every sample. Collapsed embeddings give ln K."""
    for name, view in (("alpha", alpha), ("beta", beta)):
        if not 0 <= view < z.m:
            raise ValueError(f"{name} must be in [0, {z.m}), got {view}")
    if alpha == beta:
        raise ValueError(f"alpha and beta must differ, both are {alpha}")
    zt = _view_major(Method.INFONCE, z.z[:, (alpha, beta)], tau)
    return LossResult.from_per_sample(_candidate_set_loss(zt[:1], zt[1:], tau, False, True,
                                                          False)[0])


def compute_loss(method: Method, z: EmbeddingBatch, tau: float) -> LossResult:
    """Dispatch to the objective named by method.

    INFONCE is the symmetric two-view pair loss and requires M = 2; at M = 2
    it coincides with MULTICROP.
    """
    return _loss_and_zgrad(method, z, tau, want_grad=False)[0]


def _loss_and_zgrad(method: Method, z: EmbeddingBatch, tau: float, want_grad: bool = True):
    """Loss plus (optionally) its exact gradient with respect to z."""
    per_sample, grad = _per_sample_loss(method, _view_major(method, z.z, tau), tau, want_grad)
    result = LossResult.from_per_sample(per_sample)
    return result, (grad.transpose(1, 0, 2).copy() if want_grad else None)


def _view_major(method: Method, z: np.ndarray, tau: float) -> np.ndarray:
    """The view-major copy (..., M, K, d) of unit rows z (..., K, M, d), any
    leading axes holding parameter sets, that the kernel scores, once
    _check_objective accepts method, M and tau."""
    _check_objective(method, z.shape[-2], tau)
    return np.swapaxes(z, -3, -2).copy()


def _per_sample_loss(method: Method, zt: np.ndarray, tau: float, want_grad: bool):
    """Per-sample losses (..., K) of view-major unit rows zt (..., M, K, d),
    and the gradient w.r.t. zt of a single batch (M, K, d) if want_grad."""
    if method is not Method.SUFFSTATS:
        return _candidate_set_loss(zt, zt, tau, method is Method.ARITHMETIC_PVC,
                                   method.pairwise, want_grad)[:2]
    # Candidates: rest-set statistics q_v = normalize((sum_b z_b - z_v) / (M-1)).
    m = zt.shape[-3]
    q = zt.sum(axis=-3, keepdims=True) - zt
    q /= m - 1
    u_norms = _normalize_rows(
        q, "rest-set mean has near-zero norm (antipodal views); cannot normalize")
    per_sample, grad, grad_q = _candidate_set_loss(zt, q, tau, False, False, want_grad)
    if want_grad:
        grad_u = _through_normalize(grad_q, q, u_norms)
        grad += (grad_u.sum(axis=0) - grad_u) / (m - 1)
    return per_sample, grad
