"""Hand-rolled 1 -> 32 -> 32 GeLU encoder with analytic gradients and AdamW.

The encoder maps each scalar view through two affine layers with an exact
erf-form GeLU between them, then l2-normalizes each 32-dim output. The erf
is cephes's algorithm (the one scipy.special.erf runs) ported to numpy, so
importing the package loads no scipy: its bits are scipy's on |x| <= 1 and
follow numpy's exp beyond. All gradients (through normalization, scoring,
and each contrastive loss) are derived by hand and checked against the
central finite-difference oracle in this module; no autodiff anywhere. The
oracle scores only the perturbed parameter sets, through the same encoder,
gate (losses._view_major) and kernel, 128 sets per pass on a leading set
axis, serially in the calling thread. Every pass that perturbs only w2 or b2
shares the one unperturbed first layer; a pass that perturbs w1 or b1 runs
the first layer on its weight stacks. A pass frees its weight stacks and
embeddings before its kernel pass, and the forward pass works in place where
the bits cannot change, so the wide passes stay small.

The first layer runs in row chunks of at most _ERF_BLOCK entries across
any parameter-set axis, written into one array, so the erf's temporaries
stay small; no other routine splits the work. A training step (loss_and_grads)
holds, through both kernel passes, the first layer's inputs x, the norms of
h2, and one copy of the embeddings: the view-major one that the kernel
scores. The activations a1 die once h2 is formed, and the sample-major z
once copied. The embedding gradient becomes dh2 in its own memory, row by
row and still view-major, and is transposed to sample-major once, for the
sums over rows, whose order fixes their bits. The backward pass then forms
da1 = dh2 w2 and runs the first layer again, chunk by chunk: gelu(h1, da1)
gives a chunk of a1 and, from the same erf, turns da1 into dh1 in place.

Everything is float64 and functional: forward, loss_and_grads and adamw_step
take and return immutable dataclasses, so equal inputs give bit-equal outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .losses import (
    EmbeddingBatch,
    LossResult,
    Method,
    _normalize_rows,
    _NumericalError,
    _per_sample_loss,
    _through_normalize,
    _view_major,
    compute_loss,  # unused here; perfbench/ patches and calls tinynn.compute_loss
)

D_IN = 1
D_HIDDEN = 32
D_OUT = 32

_PARAM_SHAPES = {"w1": (D_HIDDEN, D_IN), "b1": (D_HIDDEN,), "w2": (D_OUT, D_HIDDEN), "b2": (D_OUT,)}
_PARAM_FIELDS = tuple(_PARAM_SHAPES)
# Perturbed parameter sets per oracle pass. Each pass pays a fixed Python
# cost, and memory grows with the width. Best of 9 on a 2-core host, ms per
# (4, 3) batch: 34.4 at 32 sets, 32.5 at 96, 29.5 at 128, 29.8 at 192, 35.1
# at 384; the tracemalloc peak of a (3, 4) suffstats call is 2.2 MiB at 96
# or 128 sets, 3.3 at 160 and 3.9 at 192. At 12 views a set holds about
# 15 KiB in the forward pass, 8 KiB of it its w2 stack. At 128 no pass
# stacks both layers: the first perturbs w1 and b1, the rest w2 or b2.
_FD_CHUNK = 128
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes ndtr.c's erf coefficients, highest power first: erf(x) =
# x T(x^2) / U(x^2) for |x| <= 1, else 1 - exp(-x^2) P(|x|) / Q(|x|).
# U and Q are monic and keep their leading 1: x * 1.0 is exact, so _polevl
# rounds them as cephes's p1evl does.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERF_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
          9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
# erf rounds to 1 from here on: 1 - erfc(6) is 1 - 2.2e-17.
_ERF_ONE = 6.0
# Entries per first-layer chunk. Best of 30 erfs on an encoder's 327,680
# first-layer values (M = 10, K = 1024), 2-core host with 2 MiB of L2: 9.7 ms
# in one block, 6.5 ms in blocks of 4,096, 4.0 at 16,384 and 3.5 at 32,768.
_ERF_BLOCK = 32768


@dataclass(frozen=True)
class MlpParams:
    """Weights of the two-layer encoder; shapes fixed by the architecture."""

    w1: np.ndarray  # (32, 1)
    b1: np.ndarray  # (32,)
    w2: np.ndarray  # (32, 32)
    b2: np.ndarray  # (32,)

    def __post_init__(self) -> None:
        for name, want in _PARAM_SHAPES.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise _NumericalError(f"{name} contains non-finite values")

    @classmethod
    def zeros(cls) -> "MlpParams":
        return cls(**{name: np.zeros(shape) for name, shape in _PARAM_SHAPES.items()})

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_FIELDS}


@dataclass(frozen=True)
class AdamWState:
    """First/second-moment accumulators (shaped like the params) and step count."""

    m: MlpParams
    v: MlpParams
    step: int

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        for name in _PARAM_FIELDS:
            if np.any(getattr(self.v, name) < 0):
                raise ValueError(f"second moment {name} has negative entries")

    @classmethod
    def initial(cls) -> "AdamWState":
        return cls(m=MlpParams.zeros(), v=MlpParams.zeros(), step=0)


def _check_types(config) -> None:
    """Refuse a bool in any field of dataclass config but a bool one, and a
    value that is not an integer (numpy's included) in an int field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) and f.type != "bool" or (
                f.type == "int" and not isinstance(value, (int, np.integer))):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings; defaults match the desk experiment
    (constant learning rate, one fresh batch per epoch, 200 epochs)."""

    learning_rate: float = 5e-4
    weight_decay: float = 5e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 200
    fixed_dataset: bool = False  # reuse the first batch every epoch (ablation)

    def __post_init__(self) -> None:
        _check_types(self)
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        for name in ("beta1", "beta2"):
            val = getattr(self, name)
            if not 0 <= val < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {val}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def init_params(rng: np.random.Generator) -> MlpParams:
    """Uniform fan-in initialization: every tensor of a layer is drawn from
    U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    s1 = 1.0 / math.sqrt(D_IN)
    s2 = 1.0 / math.sqrt(D_HIDDEN)
    return MlpParams(
        w1=rng.uniform(-s1, s1, size=(D_HIDDEN, D_IN)),
        b1=rng.uniform(-s1, s1, size=D_HIDDEN),
        w2=rng.uniform(-s2, s2, size=(D_OUT, D_HIDDEN)),
        b2=rng.uniform(-s2, s2, size=D_OUT),
    )


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule in cephes polevl's order of operations."""
    ans = x * coef[0]
    for c in coef[1:-1]:
        ans += c
        ans *= x
    ans += coef[-1]
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function by cephes's algorithm, scipy.special.erf's own.

    On |x| <= 1 the bits are scipy's. Beyond, exp comes from numpy, whose
    rounding differs from the C library's on a few inputs, so a value may
    differ by 1 ulp. Both branches run on |x|, clipped where erf rounds to
    1, and the sign goes back last: every product and quotient is odd in x,
    as in cephes's erf(-x) = -erf(x). Every step is elementwise, so the bits
    depend on neither x's shape nor its layout; callers bound the size of x
    (_first_layer's chunks), which bounds the dozen temporaries.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    a = np.abs(flat)
    np.minimum(a, _ERF_ONE, out=a)
    z = a * a
    out = _polevl(z, _ERF_T)
    out *= a
    out /= _polevl(z, _ERF_U)
    outer = np.flatnonzero(a > 1.0)
    if outer.size:
        ao = a[outer]
        tail = np.exp(-z[outer])
        tail *= _polevl(ao, _ERF_P)
        tail /= _polevl(ao, _ERF_Q)
        out[outer] = 1.0 - tail
    np.copysign(out, flat, out=out)
    return out.reshape(x.shape)


def gelu(x: np.ndarray, dx: np.ndarray | None = None) -> np.ndarray:
    """Exact GeLU x * Phi(x) via the error function (no tanh approximation,
    so finite differences have a single ground truth). Given dx, it also
    multiplies dx in place by the derivative Phi(x) + x phi(x), taken from
    the same erf."""
    x = np.asarray(x, dtype=np.float64)
    out = _erf(x * _INV_SQRT2)
    out += 1.0
    if dx is not None:
        grad = 0.5 * out
        grad += x * (_INV_SQRT2PI * np.exp(-0.5 * x * x))
        dx *= grad
    out *= 0.5 * x
    return out


def _first_layer(x: np.ndarray, w1, b1, dh1: np.ndarray | None = None) -> np.ndarray:
    """a1 = gelu(x w1^T + b1), in row chunks of at most _ERF_BLOCK entries
    across any leading parameter-set axis of the weights (1,024 rows without
    one, 8 at 128 sets), written into one array; every step is elementwise
    or one product per entry, so the bits are those of one pass. Given the
    gradient w.r.t. a1, dh1 (without a set axis), each chunk's gelu turns it
    in place into the gradient w.r.t. h1."""
    sets = np.broadcast_shapes(w1.shape[:-2], b1.shape[:-2])
    a1 = np.empty(sets + (len(x), D_HIDDEN))
    rows = max(1, _ERF_BLOCK // (math.prod(sets) * D_HIDDEN))
    for lo in range(0, len(x), rows):
        a1[..., lo:lo + rows, :] = gelu(_hidden(x[lo:lo + rows], w1, b1),
                                        None if dh1 is None else dh1[lo:lo + rows])
    return a1


def _forward_trace(views: np.ndarray, w1, b1, w2, b2):
    """Forward pass keeping what the backward pass needs: x, the norms of h2
    and z = h2 / norms, which takes h2's memory. The first layer's
    activations die once h2 is formed."""
    views = _checked_views(views)
    x = views.reshape(-1, D_IN)
    return (x, *_second_layer(_first_layer(x, w1, b1), w2, b2, views.shape))


def _checked_views(views) -> np.ndarray:
    """views as a float64 (K, M) array; refused unless finite with K, M >= 2."""
    views = np.asarray(views, dtype=np.float64)
    if views.ndim != 2 or min(views.shape) < 2:
        raise ValueError(f"views must be (K, M) with K, M >= 2, got shape {views.shape}")
    if not np.isfinite(views).all():
        raise _NumericalError("views contain non-finite values")
    return views


def _second_layer(a1: np.ndarray, w2, b2, shape: tuple) -> tuple:
    """The norms of h2 = a1 w2^T + b2 and z = h2 / norms, in h2's memory and
    shaped (..., K, M, d) for views of the given (K, M) shape.

    a1 and the weights may carry a leading parameter-set axis (a bias then
    has shape (S, 1, n)); the outputs broadcast over it.
    """
    h2 = _add_bias(a1 @ np.swapaxes(w2, -1, -2), b2)
    norms = _normalize_rows(h2, "encoder produced a zero pre-normalization vector")
    return norms, h2.reshape(*h2.shape[:-2], *shape, D_OUT)


def _hidden(x: np.ndarray, w1, b1) -> np.ndarray:
    """The first layer's pre-activation h1 = x w1^T + b1: one product per
    entry, so the backward pass recomputes it rather than hold it."""
    return _add_bias(x @ np.swapaxes(w1, -1, -2), b1)


def _add_bias(product: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """product + bias, in product's memory when the sum has its shape; the
    sum's bits are the same either way."""
    if np.broadcast_shapes(product.shape, bias.shape) != product.shape:
        return product + bias
    product += bias
    return product


def forward(params: MlpParams, views: np.ndarray) -> EmbeddingBatch:
    """Encode a K x M batch of scalar views into unit-norm 32-dim embeddings."""
    return EmbeddingBatch(z=_forward_trace(views, **params.as_dict())[-1])


def loss_and_grads(
    params: MlpParams, views: np.ndarray, method: Method, tau: float
) -> tuple[LossResult, MlpParams]:
    """One fused pass: compute_loss(method, forward(params, views), tau) plus
    its exact gradient with respect to every parameter, in MlpParams shape."""
    x, norms, z = _forward_trace(views, **params.as_dict())
    # The kernel scores the view-major copy; z dies before it runs.
    zt = _view_major(method, EmbeddingBatch(z=z).z, tau)
    del z
    per_sample, dz = _per_sample_loss(method, zt, tau, True)

    # Through z = h2 / |h2|, row by row in dz's memory, still view-major.
    _through_normalize(dz, zt, norms.reshape(views.shape).T[..., None])
    # The sums over rows below run in sample-major order. zt and dz die
    # before the first layer's backward pass allocates arrays of their size.
    dh2 = dz.transpose(1, 0, 2).reshape(-1, D_OUT)
    del zt, dz

    # The first layer runs again, chunk by chunk, for a1 and for its
    # derivative, which turns da1 into dh1 in place.
    dh1 = dh2 @ params.w2
    a1 = _first_layer(x, params.w1, params.b1, dh1)
    dw2 = dh2.T @ a1
    db2 = dh2.sum(axis=0)
    dw1 = dh1.T @ x
    db1 = dh1.sum(axis=0)
    return LossResult.from_per_sample(per_sample), MlpParams(w1=dw1, b1=db1, w2=dw2, b2=db2)


def finite_difference_grads(
    params: MlpParams,
    views: np.ndarray,
    method: Method,
    tau: float,
    h: float = 1e-6,
) -> MlpParams:
    """Central-difference gradient oracle: perturbs every parameter entry by
    +/- h and differences the scalar loss, (L(+h) - L(-h)) / 2h.

    Each of the 2 * #params perturbed sets is scored as
    compute_loss(method, forward(set, views), tau).total would score it, with
    the same checks on each set and the same bits at any width, but
    _FD_CHUNK sets at a time: each group takes one stacked encoder pass and
    one loss-kernel pass, and a group that perturbs only the second layer
    shares one first layer. No unperturbed set is scored: the first group
    refuses what a loop's first evaluation would. Meant for small batches.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    losses = _perturbed_losses(params.as_dict(), views, method, tau, h)
    grads, out = (losses[0::2] - losses[1::2]) / (2.0 * h), {}
    for name, arr in params.as_dict().items():
        out[name], grads = grads[:arr.size].reshape(arr.shape), grads[arr.size:]
    return MlpParams(**out)


def _perturbed_losses(base: dict, views, method: Method, tau: float, h: float) -> np.ndarray:
    """Losses of the parameter sets that perturb flat entry j (w1, b1, w2, b2
    in order) by +h (set 2j) and -h (set 2j + 1), _FD_CHUNK sets per pass.

    The unperturbed first layer is computed once and shared by every pass
    that stacks neither w1 nor b1; the others run it on their own stacks.
    """
    offsets = np.cumsum([0] + [base[name].size for name in _PARAM_FIELDS])
    n_sets = 2 * int(offsets[-1])
    views = _checked_views(views)
    x = views.reshape(-1, D_IN)
    a1 = _first_layer(x, base["w1"], base["b1"])
    losses = np.empty(n_sets)
    for first in range(0, n_sets, _FD_CHUNK):
        sets = np.arange(first, min(first + _FD_CHUNK, n_sets))
        entry, step = sets // 2, np.where(sets % 2 == 0, h, -h)
        w = _perturbed(base, offsets, entry, step)
        moved = w["w1"] is not base["w1"] or w["b1"] is not base["b1"]
        z = _second_layer(_first_layer(x, w["w1"], w["b1"]) if moved else a1,
                          w["w2"], w["b2"], views.shape)[1]
        # The stacks die here, and z once zt holds its copy: the kernel pass
        # holds neither.
        del w
        # EmbeddingBatch checks each row, so one batch of every set's samples
        # checks the whole pass.
        EmbeddingBatch(z=z.reshape(-1, *z.shape[-2:]))
        zt = _view_major(method, z, tau)
        del z
        losses[sets] = _per_sample_loss(method, zt, tau, False)[0].mean(axis=-1)
    return losses


def _perturbed(base: dict, offsets: np.ndarray, entry: np.ndarray, step: np.ndarray) -> dict:
    """w1, b1, w2 and b2 of the sets that move flat entry entry[s] by
    step[s]: a tensor that some set moves as a stack on a leading set axis
    (a bias as (S, 1, n)), else base's own array."""
    weights = {}
    for name, lo, hi in zip(_PARAM_FIELDS, offsets[:-1], offsets[1:]):
        hit = np.flatnonzero((entry >= lo) & (entry < hi))
        if hit.size == 0:
            weights[name] = base[name]
            continue
        stack = np.repeat(base[name][None], entry.size, axis=0)
        stack.reshape(entry.size, -1)[hit, entry[hit] - lo] += step[hit]
        weights[name] = stack if stack.ndim == 3 else stack[:, None, :]
    return weights


def max_relative_grad_error(analytic: MlpParams, numeric: MlpParams) -> float:
    """max |a - n| / max(1, |a|, |n|) over every parameter entry."""
    worst = 0.0
    for name in _PARAM_FIELDS:
        a = getattr(analytic, name)
        n = getattr(numeric, name)
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def adamw_step(
    params: MlpParams, grads: MlpParams, state: AdamWState, cfg: TrainConfig
) -> tuple[MlpParams, AdamWState]:
    """Bias-corrected Adam update plus decoupled weight decay.

    Decay is applied directly to the weight matrices (not biases), scaled by
    the learning rate: w <- w - lr*wd*w - lr * mhat / (sqrt(vhat) + eps).
    """
    t = state.step + 1
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    new_p, new_m, new_v = {}, {}, {}
    for name in _PARAM_FIELDS:
        p = getattr(params, name)
        g = getattr(grads, name)
        if p.shape != g.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = cfg.beta1 * getattr(state.m, name) + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * getattr(state.v, name) + (1.0 - cfg.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
        decay = cfg.weight_decay if name in ("w1", "w2") else 0.0
        new_p[name] = p - cfg.learning_rate * (update + decay * p)
        new_m[name] = m
        new_v[name] = v
    return (
        MlpParams(**new_p),
        AdamWState(m=MlpParams(**new_m), v=MlpParams(**new_v), step=t),
    )
