"""Hand-rolled 1 -> 32 -> 32 GeLU encoder with analytic gradients and AdamW.

The encoder maps each scalar view through two affine layers with an exact
erf-form GeLU between them, then l2-normalizes each 32-dim output. All
gradients (through normalization, scoring, and each contrastive loss) are
derived by hand and checked against the central finite-difference oracle in
this module; no autodiff anywhere. The oracle scores every perturbed
parameter set through the same encoder and loss kernel, a chunk of sets at
a time on a leading set axis.

Everything is float64 and functional: forward, loss_and_grads and adamw_step
take and return immutable dataclasses, so equal inputs give bit-equal outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .losses import (
    EmbeddingBatch,
    LossResult,
    Method,
    _loss_and_zgrad,
    _NumericalError,
    _per_sample_loss,
    compute_loss,
)

D_IN = 1
D_HIDDEN = 32
D_OUT = 32

_PARAM_FIELDS = ("w1", "b1", "w2", "b2")
# Perturbed parameter sets per oracle pass. Speed is flat from 32 to 256 sets;
# memory is not: a set's stacked weights and scores take about 30 KiB.
_FD_CHUNK = 32
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class MlpParams:
    """Weights of the two-layer encoder; shapes fixed by the architecture."""

    w1: np.ndarray  # (32, 1)
    b1: np.ndarray  # (32,)
    w2: np.ndarray  # (32, 32)
    b2: np.ndarray  # (32,)

    def __post_init__(self) -> None:
        shapes = {
            "w1": (D_HIDDEN, D_IN),
            "b1": (D_HIDDEN,),
            "w2": (D_OUT, D_HIDDEN),
            "b2": (D_OUT,),
        }
        for name, want in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise _NumericalError(f"{name} contains non-finite values")

    @classmethod
    def zeros(cls) -> "MlpParams":
        return cls(
            w1=np.zeros((D_HIDDEN, D_IN)),
            b1=np.zeros(D_HIDDEN),
            w2=np.zeros((D_OUT, D_HIDDEN)),
            b2=np.zeros(D_OUT),
        )

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


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GeLU x * Phi(x) via the error function (no tanh approximation,
    so finite differences have a single ground truth)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of exact GeLU: Phi(x) + x * phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    phi = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * phi


def _forward_trace(views: np.ndarray, w1, b1, w2, b2):
    """Forward pass keeping the intermediates the backward pass needs.

    The weights may carry a leading parameter-set axis (a bias then has
    shape (S, 1, n)); the outputs broadcast over it, so a first layer whose
    weights carry no set axis is computed once for every set.
    """
    views = np.asarray(views, dtype=np.float64)
    if views.ndim != 2:
        raise ValueError(f"views must be (K, M), got shape {views.shape}")
    if not np.isfinite(views).all():
        raise _NumericalError("views contain non-finite values")
    k, m = views.shape
    x = views.reshape(k * m, D_IN)
    h1 = x @ np.swapaxes(w1, -1, -2) + b1
    a1 = gelu(h1)
    h2 = a1 @ np.swapaxes(w2, -1, -2) + b2
    norms = np.linalg.norm(h2, axis=-1, keepdims=True)
    if np.any(norms <= 1e-30):
        raise _NumericalError("encoder produced a zero pre-normalization vector")
    z = h2 / norms
    return x, h1, a1, h2, norms, z.reshape(*z.shape[:-2], k, m, D_OUT)


def forward(params: MlpParams, views: np.ndarray) -> EmbeddingBatch:
    """Encode a K x M batch of scalar views into unit-norm 32-dim embeddings."""
    return EmbeddingBatch(z=_forward_trace(views, **params.as_dict())[-1])


def loss_and_grads(
    params: MlpParams, views: np.ndarray, method: Method, tau: float
) -> tuple[LossResult, MlpParams]:
    """One fused pass: compute_loss(method, forward(params, views), tau) plus
    its exact gradient with respect to every parameter, in MlpParams shape."""
    x, h1, a1, h2, norms, z = _forward_trace(views, **params.as_dict())
    result, dz = _loss_and_zgrad(method, EmbeddingBatch(z=z), tau, want_grad=True)
    dz_flat = dz.reshape(-1, D_OUT)

    # Through z = h2 / |h2|: dh2 = (dz - (dz . z) z) / |h2|.
    z_flat = h2 / norms
    inner = np.sum(dz_flat * z_flat, axis=1, keepdims=True)
    dh2 = (dz_flat - inner * z_flat) / norms

    dw2 = dh2.T @ a1
    db2 = dh2.sum(axis=0)
    da1 = dh2 @ params.w2
    dh1 = da1 * gelu_grad(h1)
    dw1 = dh1.T @ x
    db1 = dh1.sum(axis=0)
    return result, MlpParams(w1=dw1, b1=db1, w2=dw2, b2=db2)


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
    the same checks on each set, but _FD_CHUNK sets at a time: one stacked
    encoder pass and one loss-kernel pass per chunk, and a chunk that
    perturbs only the second layer shares one first layer. Meant for small
    batches only.
    """
    # One unperturbed evaluation checks the views, method and tau as the
    # first evaluation of a per-entry loop would.
    compute_loss(method, forward(params, views), tau)
    losses = _perturbed_losses(params.as_dict(), views, method, tau, h)
    grads = (losses[0::2] - losses[1::2]) / (2.0 * h)
    out, start = {}, 0
    for name in _PARAM_FIELDS:
        arr = getattr(params, name)
        out[name] = grads[start:start + arr.size].reshape(arr.shape)
        start += arr.size
    return MlpParams(**out)


def _perturbed_losses(base: dict, views, method: Method, tau: float, h: float) -> np.ndarray:
    """Losses of the parameter sets that perturb flat entry j (w1, b1, w2, b2
    in order) by +h (set 2j) and -h (set 2j + 1), _FD_CHUNK sets per pass."""
    offsets = np.cumsum([0] + [base[name].size for name in _PARAM_FIELDS])
    n_sets = 2 * int(offsets[-1])
    losses = np.empty(n_sets)
    for first in range(0, n_sets, _FD_CHUNK):
        sets = np.arange(first, min(first + _FD_CHUNK, n_sets))
        entry, step = sets // 2, np.where(sets % 2 == 0, h, -h)
        weights = {}
        for name, lo, hi in zip(_PARAM_FIELDS, offsets[:-1], offsets[1:]):
            hit = np.flatnonzero((entry >= lo) & (entry < hi))
            if hit.size == 0:
                weights[name] = base[name]
                continue
            stack = np.repeat(base[name][None], sets.size, axis=0)
            stack.reshape(sets.size, -1)[hit, entry[hit] - lo] += step[hit]
            weights[name] = stack if stack.ndim == 3 else stack[:, None, :]
        z = _forward_trace(views, **weights)[-1]
        # EmbeddingBatch checks each row, so one batch of every set's samples
        # checks the whole chunk.
        EmbeddingBatch(z=z.reshape(-1, *z.shape[-2:]))
        zt = np.ascontiguousarray(np.swapaxes(z, -3, -2))
        losses[sets] = _per_sample_loss(method, zt, tau, False)[0].mean(axis=-1)
    return losses


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
