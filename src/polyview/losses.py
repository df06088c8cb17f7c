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

Masked candidates are excluded from the softmax normalization outright
(their exponentials never enter the sum); no large-negative-constant
masking. All reductions run in float64 with a fixed order, so equal inputs
give bit-equal results.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

NORMALIZE_EPS = 1e-30


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
            raise ValueError("embeddings contain non-finite values")
        norms = np.linalg.norm(z, axis=-1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > 1e-12:
            raise ValueError(f"rows must be unit norm within 1e-12, worst error {worst:.3e}")

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
        per_sample = np.asarray(per_sample, dtype=np.float64)
        return cls(total=float(per_sample.mean()), per_sample=per_sample)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale rows (last axis) to unit Euclidean norm.

    Raises on any row with norm <= 1e-30 rather than emitting NaN.
    """
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms <= NORMALIZE_EPS):
        raise ValueError("cannot normalize a zero or subnormal vector")
    return v / norms


def _check_tau(tau: float) -> None:
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0):
        raise ValueError(f"temperature tau must be a positive finite real, got {tau}")


def _anchor_view(z: np.ndarray, alpha: int) -> np.ndarray:
    return np.ascontiguousarray(z[:, alpha, :])


# ---------------------------------------------------------------------------
# Block kernels. One anchor view at a time against all B columns, so peak
# memory is K x B per block instead of (K*M)^2 for the full tensor.
# ---------------------------------------------------------------------------


def _poly_view_block(
    z: np.ndarray,
    flat_t: np.ndarray,
    alpha: int,
    tau: float,
    same_idx: np.ndarray,
):
    """Shifted candidate exponentials for anchor view alpha.

    Returns (E, same, neg_sum, row_shift) where E is the K x B matrix of
    exp(score - row max) with every same-sample column zeroed (exclusion
    masking), same holds the K x M zeroed-out values, and neg_sum the row
    sums of E, i.e. the exact negative mass.
    """
    scores = _anchor_view(z, alpha) @ flat_t
    scores /= tau
    row_shift = scores.max(axis=1)
    scores -= row_shift[:, None]
    np.exp(scores, out=scores)
    e = scores
    rows = np.arange(z.shape[0])[:, None]
    same = e[rows, same_idx].copy()
    e[rows, same_idx] = 0.0
    neg_sum = e.sum(axis=1)
    return e, same, neg_sum, row_shift


def _pvc_core(z: np.ndarray, tau: float, arithmetic: bool, want_grad: bool):
    """Loss and optional embedding gradient for the poly-view objectives."""
    k, m, d = z.shape
    flat = z.reshape(k * m, d)
    flat_t = np.ascontiguousarray(flat.T)
    same_idx = np.arange(k)[:, None] * m + np.arange(m)[None, :]
    rows = np.arange(k)[:, None]
    rest_cols = np.array([[b for b in range(m) if b != a] for a in range(m)])

    per_sample = np.zeros(k)
    grad = np.zeros_like(z) if want_grad else None
    grad_flat = grad.reshape(k * m, d) if want_grad else None
    scale = 1.0 / (k * m * tau)

    for alpha in range(m):
        e, same, neg_sum, _ = _poly_view_block(z, flat_t, alpha, tau, same_idx)
        pos = same[:, rest_cols[alpha]]                      # (K, M-1)
        denom = pos + neg_sum[:, None]
        log_l = np.log(pos) - np.log(denom)

        if arithmetic:
            # -log mean_beta l via logsumexp, shift-stable.
            top = log_l.max(axis=1)
            sum_exp = np.exp(log_l - top[:, None]).sum(axis=1)
            term = -(top + np.log(sum_exp) - math.log(m - 1))
        else:
            term = -log_l.mean(axis=1)
        per_sample += term / m

        if not want_grad:
            continue
        if arithmetic:
            weights = np.exp(log_l - log_l.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
        else:
            weights = np.full((k, m - 1), 1.0 / (m - 1))
        likelihood = np.exp(log_l)
        neg_coeff = scale * (weights / denom).sum(axis=1)
        e *= neg_coeff[:, None]
        pos_coeff = np.zeros((k, m))
        pos_coeff[:, rest_cols[alpha]] = scale * weights * (likelihood - 1.0)
        e[rows, same_idx] = pos_coeff
        anchor = _anchor_view(z, alpha)
        grad[:, alpha, :] += e @ flat
        grad_flat += e.T @ anchor

    result = LossResult.from_per_sample(per_sample)
    return (result, grad) if want_grad else (result, None)


def _rest_set_raw(z: np.ndarray) -> np.ndarray:
    """Unnormalized rest-set means for every view: zero the view, rescale by
    M/(M-1), average over views."""
    k, m, d = z.shape
    rep = np.broadcast_to(z[:, :, None, :], (k, m, m, d)).copy()
    diag = np.arange(m)
    rep[:, diag, diag, :] = 0.0
    rep *= m / (m - 1)
    return rep.mean(axis=1)


def _suffstats_core(z: np.ndarray, tau: float, want_grad: bool):
    """Loss and optional embedding gradient for the rest-set statistic objective."""
    k, m, d = z.shape
    u = _rest_set_raw(z)
    u_norms = np.linalg.norm(u, axis=-1, keepdims=True)
    if np.any(u_norms <= NORMALIZE_EPS):
        raise ValueError(
            "rest-set mean has near-zero norm (antipodal views); cannot normalize"
        )
    q = u / u_norms
    q_flat = q.reshape(k * m, d)
    q_flat_t = np.ascontiguousarray(q_flat.T)
    same_idx = np.arange(k)[:, None] * m + np.arange(m)[None, :]
    rows = np.arange(k)[:, None]

    per_sample = np.zeros(k)
    grad_q_flat = np.zeros((k * m, d)) if want_grad else None
    grad = np.zeros_like(z) if want_grad else None
    scale = 1.0 / (k * m * tau)

    for alpha in range(m):
        e, same, neg_sum, _ = _poly_view_block(z, q_flat_t, alpha, tau, same_idx)
        pos = same[:, alpha]
        denom = pos + neg_sum
        per_sample += (np.log(denom) - np.log(pos)) / m

        if not want_grad:
            continue
        e *= (scale / denom)[:, None]
        pos_coeff = np.zeros((k, m))
        pos_coeff[:, alpha] = scale * (pos / denom - 1.0)
        e[rows, same_idx] = pos_coeff
        anchor = _anchor_view(z, alpha)
        grad[:, alpha, :] += e @ q_flat
        grad_q_flat += e.T @ anchor

    result = LossResult.from_per_sample(per_sample)
    if not want_grad:
        return result, None

    # Chain through q = u / |u| and u_{j,v} = (sum_b z_{j,b} - z_{j,v}) / (M-1).
    grad_q = grad_q_flat.reshape(k, m, d)
    inner = np.sum(grad_q * q, axis=-1, keepdims=True)
    grad_u = (grad_q - inner * q) / u_norms
    total = grad_u.sum(axis=1, keepdims=True)
    grad += (total - grad_u) / (m - 1)
    return result, grad


def _pair_core(z: np.ndarray, alpha: int, beta: int, tau: float, want_grad: bool,
               pair_weight: float, grad: np.ndarray | None):
    """Per-sample pair InfoNCE for one ordered (alpha, beta); optionally
    accumulates the embedding gradient scaled by pair_weight."""
    k = z.shape[0]
    anchor = _anchor_view(z, alpha)
    target = _anchor_view(z, beta)
    scores = anchor @ target.T
    scores /= tau
    row_shift = scores.max(axis=1)
    scores -= row_shift[:, None]
    np.exp(scores, out=scores)
    e = scores
    row_sum = e.sum(axis=1)
    diag = np.arange(k)
    per_sample = np.log(row_sum) - np.log(e[diag, diag])

    if want_grad:
        e *= (pair_weight / tau / row_sum)[:, None]
        e[diag, diag] -= pair_weight / tau
        grad[:, alpha, :] += e @ target
        grad[:, beta, :] += e.T @ anchor
    return per_sample


# ---------------------------------------------------------------------------
# Public objectives
# ---------------------------------------------------------------------------


def loss_pair_infonce(z: EmbeddingBatch, alpha: int, beta: int, tau: float) -> LossResult:
    """K-way softmax InfoNCE: anchor view alpha, candidates view beta of
    every sample. Collapsed embeddings give ln K."""
    _check_tau(tau)
    _check_view(z, alpha, "alpha")
    _check_view(z, beta, "beta")
    if alpha == beta:
        raise ValueError(f"alpha and beta must differ, both are {alpha}")
    per_sample = _pair_core(z.z, alpha, beta, tau, False, 0.0, None)
    return LossResult.from_per_sample(per_sample)


def loss_multicrop(z: EmbeddingBatch, tau: float) -> LossResult:
    """Mean of pair InfoNCE over all M(M-1) ordered view pairs."""
    _check_tau(tau)
    result, _ = _multicrop_core(z.z, tau, want_grad=False)
    return result


def _multicrop_core(z: np.ndarray, tau: float, want_grad: bool):
    k, m, _ = z.shape
    per_sample = np.zeros(k)
    grad = np.zeros_like(z) if want_grad else None
    n_pairs = m * (m - 1)
    pair_weight = 1.0 / (k * n_pairs)
    for alpha in range(m):
        for beta in range(m):
            if beta == alpha:
                continue
            per_sample += _pair_core(z, alpha, beta, tau, want_grad, pair_weight, grad)
    per_sample /= n_pairs
    return LossResult.from_per_sample(per_sample), grad


def loss_arithmetic_pvc(z: EmbeddingBatch, tau: float) -> LossResult:
    """Per sample and anchor view: -log of the arithmetic mean over target
    views of l_{i,alpha,beta}, averaged over anchor views and samples."""
    _check_tau(tau)
    result, _ = _pvc_core(z.z, tau, arithmetic=True, want_grad=False)
    return result


def loss_geometric_pvc(z: EmbeddingBatch, tau: float) -> LossResult:
    """Per sample and anchor view: mean over target views of
    -log l_{i,alpha,beta} (the -log of the geometric mean), averaged over
    anchor views and samples. Always >= the arithmetic variant."""
    _check_tau(tau)
    result, _ = _pvc_core(z.z, tau, arithmetic=False, want_grad=False)
    return result


def loss_suffstats(z: EmbeddingBatch, tau: float) -> LossResult:
    """Each view scores against rest-set statistics: the positive is its own
    sample's statistic, negatives are every statistic of other samples;
    same-sample statistics for other anchor views are excluded."""
    _check_tau(tau)
    result, _ = _suffstats_core(z.z, tau, want_grad=False)
    return result


def _check_view(z: EmbeddingBatch, view: int, name: str) -> None:
    if not 0 <= view < z.m:
        raise ValueError(f"{name} must be in [0, {z.m}), got {view}")


def compute_loss(method: Method, z: EmbeddingBatch, tau: float) -> LossResult:
    """Dispatch to the objective named by method.

    INFONCE is the symmetric two-view pair loss and requires M = 2; at M = 2
    it coincides with MULTICROP.
    """
    result, _ = _loss_and_zgrad(method, z, tau, want_grad=False)
    return result


def _loss_and_zgrad(
    method: Method, z: EmbeddingBatch, tau: float, want_grad: bool = True
):
    """Loss plus (optionally) its exact gradient with respect to z."""
    _check_tau(tau)
    if method is Method.INFONCE:
        if z.m != 2:
            raise ValueError(f"infonce requires exactly M = 2 views, got M = {z.m}")
        return _multicrop_core(z.z, tau, want_grad)
    if method is Method.MULTICROP:
        return _multicrop_core(z.z, tau, want_grad)
    if method is Method.ARITHMETIC_PVC:
        return _pvc_core(z.z, tau, arithmetic=True, want_grad=want_grad)
    if method is Method.GEOMETRIC_PVC:
        return _pvc_core(z.z, tau, arithmetic=False, want_grad=want_grad)
    if method is Method.SUFFSTATS:
        return _suffstats_core(z.z, tau, want_grad)
    raise ValueError(f"unknown method: {method!r}")
