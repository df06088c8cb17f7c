"""Reference computations for the benchmark's output checks.

Written from the documented definitions in the program's docstrings, in
plain numpy with log-sum-exp, and sharing no code with the program:

  * the counter-based stream key (seed, purpose, a, b) -> Philox key
    [seed, purpose << 48 | a << 16 | b] (``polyview.streams``);
  * a Gaussian-world batch: K latents ~ N(0, sigma0_sq), then a K x M noise
    block ~ N(0, sigma_sq), views = latent + noise (``gaussian_world``);
  * the 1 -> 32 -> 32 encoder: affine, exact erf GeLU, affine, l2 normalize;
    initial weights w1, b1, w2, b2 drawn in that order from
    U(-1/sqrt(fan_in), 1/sqrt(fan_in)) (``tinynn``);
  * the five objectives (``losses``), one anchor view at a time so that at
    M = 10, K = 1024 no block is larger than K x KM;
  * the one-vs-rest MI of the M-view Gaussian from log-determinants;
  * a central difference of the loss along a direction, against which a
    training step's gradient is checked.
"""

from __future__ import annotations

import math

import numpy as np

INIT, TRAIN_BATCH, EVAL_BATCH = 0, 1, 2  # stream purposes (polyview.streams)
D_HIDDEN = 32
# Step of the directional difference. At the workloads' shapes it differs
# from the exact projection by at most 9e-11; at 1e-4 the truncation error
# reached 6e-9.
FD_STEP = 1e-5

_erf = np.frompyfunc(math.erf, 1, 1)


def rng(seed: int, purpose: int, a: int = 0, b: int = 0) -> np.random.Generator:
    key = np.array([seed, (purpose << 48) | (a << 16) | b], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def views(seed: int, purpose: int, a: int, b: int, k: int, m: int,
          sigma0_sq: float, sigma_sq: float) -> np.ndarray:
    g = rng(seed, purpose, a, b)
    latents = g.normal(0.0, math.sqrt(sigma0_sq), size=k)
    noise = g.normal(0.0, math.sqrt(sigma_sq), size=(k, m))
    return latents[:, None] + noise


def init_params(g: np.random.Generator) -> dict[str, np.ndarray]:
    s2 = 1.0 / math.sqrt(D_HIDDEN)
    return {
        "w1": g.uniform(-1.0, 1.0, size=(D_HIDDEN, 1)),
        "b1": g.uniform(-1.0, 1.0, size=D_HIDDEN),
        "w2": g.uniform(-s2, s2, size=(D_HIDDEN, D_HIDDEN)),
        "b2": g.uniform(-s2, s2, size=D_HIDDEN),
    }


def encode(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """K x M scalar views -> K x M x 32 unit-norm embeddings."""
    k, m = x.shape
    h1 = x.reshape(-1, 1) @ params["w1"].T + params["b1"]
    a1 = 0.5 * h1 * (1.0 + _erf(h1 / math.sqrt(2.0)).astype(np.float64))
    h2 = a1 @ params["w2"].T + params["b2"]
    h2 /= np.sqrt((h2 * h2).sum(axis=1, keepdims=True))
    return h2.reshape(k, m, -1)


def _lse(s: np.ndarray, axis: int = -1) -> np.ndarray:
    """log-sum-exp along axis; overwrites s with exp(s - max)."""
    top = np.max(s, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    s -= top
    np.exp(s, out=s)
    return np.squeeze(top, axis) + np.log(np.sum(s, axis=axis))


def _scores(anchor: np.ndarray, z: np.ndarray, tau: float) -> np.ndarray:
    """K x M x K scores: [i, v, j] = <anchor_i, z_jv> / tau."""
    k, m, d = z.shape
    return ((anchor / tau) @ z.transpose(1, 0, 2).reshape(m * k, d).T).reshape(k, m, k)


def _multicrop(z: np.ndarray, tau: float) -> np.ndarray:
    """Mean over ordered view pairs (alpha, beta) of -log softmax over view
    beta of every sample, at the positive."""
    k, m, _ = z.shape
    rows = np.arange(k)
    per_sample = np.zeros(k)
    for alpha in range(m):
        s = _scores(z[:, alpha], z, tau)
        pos = s[rows, :, rows]  # K x M
        lse = _lse(s)
        per_sample += sum(lse[:, b] - pos[:, b] for b in range(m) if b != alpha)
    return per_sample / (m * (m - 1))


def _other_sample_lse(anchor: np.ndarray, cands: np.ndarray, tau: float) -> np.ndarray:
    """Per anchor row i: log-sum-exp of its scores against every candidate
    row (j, v) with j != i. cands is K x M x d."""
    k = cands.shape[0]
    s = _scores(anchor, cands, tau)
    s[np.arange(k), :, np.arange(k)] = -np.inf
    return _lse(s.reshape(k, -1))


def _poly_view(z: np.ndarray, tau: float, arithmetic: bool) -> np.ndarray:
    k, m, _ = z.shape
    per_sample = np.zeros(k)
    for alpha in range(m):
        neg = _other_sample_lse(z[:, alpha], z, tau)
        rest = [b for b in range(m) if b != alpha]
        pos = np.stack([np.sum(z[:, alpha] * z[:, b], axis=1) / tau for b in rest], axis=1)
        log_l = pos - np.logaddexp(pos, neg[:, None])
        if arithmetic:
            per_sample += -(_lse(log_l) - math.log(m - 1))
        else:
            per_sample += -log_l.mean(axis=1)
    return per_sample / m


def _suffstats(z: np.ndarray, tau: float) -> np.ndarray:
    k, m, _ = z.shape
    q = np.stack([z[:, [b for b in range(m) if b != v]].mean(axis=1) for v in range(m)], axis=1)
    q /= np.sqrt((q * q).sum(axis=-1, keepdims=True))
    per_sample = np.zeros(k)
    for alpha in range(m):
        neg = _other_sample_lse(z[:, alpha], q, tau)
        pos = np.sum(z[:, alpha] * q[:, alpha], axis=1) / tau
        per_sample += np.logaddexp(pos, neg) - pos
    return per_sample / m


def loss(method: str, z: np.ndarray, tau: float) -> float:
    """Mean over samples of the per-sample objective named by its CLI token."""
    if method in ("infonce", "multicrop"):
        per_sample = _multicrop(z, tau)
    elif method in ("arithmetic", "geometric"):
        per_sample = _poly_view(z, tau, arithmetic=method == "arithmetic")
    elif method == "suffstats":
        per_sample = _suffstats(z, tau)
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(per_sample.mean())


def epoch0_eval_loss(method: str, m: int, k: int, seed: int, eval_batches: int,
                     sigma0_sq: float, sigma_sq: float, tau: float) -> float:
    """The eval_loss a run must record at epoch 0: the initial encoder's loss
    averaged over eval_batches fresh batches keyed (seed, EVAL_BATCH, 0, j)."""
    params = init_params(rng(seed, INIT))
    values = [
        loss(method, encode(params, views(seed, EVAL_BATCH, 0, j, k, m, sigma0_sq, sigma_sq)), tau)
        for j in range(eval_batches)
    ]
    return float(np.mean(values))


def first_step_inputs(seed: int, k: int, m: int, sigma0_sq: float,
                      sigma_sq: float) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The initial parameters and the epoch-1 training batch, keyed
    (seed, INIT) and (seed, TRAIN_BATCH, 1): the inputs of a run's first
    training step."""
    params = init_params(rng(seed, INIT))
    return params, views(seed, TRAIN_BATCH, 1, 0, k, m, sigma0_sq, sigma_sq)


def probe_direction(grads: dict[str, np.ndarray], seed: int) -> dict[str, np.ndarray]:
    """A unit direction along which to difference the loss: the normalized
    gradient under test plus an independent standard-normal unit vector.
    The first part makes a wrong scale or sign of the whole gradient show in
    full; the random part makes a wrong or missing entry show."""
    g = np.random.default_rng(seed)
    noise = {name: g.standard_normal(a.shape) for name, a in grads.items()}
    grad_norm, noise_norm = _norm(grads), _norm(noise)
    d = {name: a / grad_norm + noise[name] / noise_norm for name, a in grads.items()}
    d_norm = _norm(d)
    return {name: v / d_norm for name, v in d.items()}


def _norm(arrays: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float((a * a).sum()) for a in arrays.values()))


def directional_derivative(method: str, params: dict[str, np.ndarray], x: np.ndarray,
                           direction: dict[str, np.ndarray], tau: float) -> float:
    """Central difference of the loss along direction, step FD_STEP."""
    def at(step: float) -> float:
        moved = {name: p + step * direction[name] for name, p in params.items()}
        return loss(method, encode(moved, x), tau)

    return (at(FD_STEP) - at(-FD_STEP)) / (2.0 * FD_STEP)


def one_vs_rest_mi(sigma0_sq: float, sigma_sq: float, m: int) -> float:
    """I(x_1; x_2..x_M) = 0.5 ln(det S_1 det S_{M-1} / det S_M) with
    S_n = sigma_sq I_n + sigma0_sq 1 1^T, the covariance of n views."""

    def logdet(n: int) -> float:
        sign, value = np.linalg.slogdet(sigma_sq * np.eye(n) + sigma0_sq * np.ones((n, n)))
        if sign <= 0:
            raise ValueError("covariance is not positive definite")
        return float(value)

    return 0.5 * (logdet(1) + logdet(m - 1) - logdet(m))


def offset(method: str, k: int, m: int) -> float:
    """Candidate-count offset: ln K for the pair objectives, ln(KM - M + 1)
    for the poly-view and rest-set objectives."""
    return math.log(k) if method in ("infonce", "multicrop") else math.log(k * m - m + 1)
