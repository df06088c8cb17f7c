"""Synthetic 1D Gaussian world with closed-form One-vs-Rest mutual information.

Generative process: a latent c_i ~ N(0, sigma0_sq) per sample, observed
through M conditionally independent views x_{i,a} = c_i + noise with noise
~ N(0, sigma_sq). The mutual information between one view and the remaining
M-1 views has two independent closed forms implemented here:

  * ``true_one_vs_rest_mi``: a direct scalar formula,
  * ``mi_via_gaussian_kl``: the KL divergence between the joint M-view
    Gaussian and the product of the single-view and rest-set marginals,
    computed from explicit covariance matrices.

Their agreement to 1e-9 over a parameter grid is the oracle that anchors
every MI-related number downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams

# mi_via_gaussian_kl builds M x M matrices; beyond this cap the closed form
# true_one_vs_rest_mi is the only supported route.
MATRIX_ORACLE_MAX_M = 64


@dataclass(frozen=True)
class GaussianConfig:
    """Parameters of the generative process.

    sigma0_sq is the latent variance, sigma_sq the per-view noise variance,
    k the number of samples per batch, m the view multiplicity. Both
    variances must be positive and finite.
    """

    sigma0_sq: float
    sigma_sq: float
    k: int
    m: int
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma0_sq) and self.sigma0_sq > 0.0):
            raise ValueError(f"sigma0_sq must be positive, got {self.sigma0_sq}")
        if not (math.isfinite(self.sigma_sq) and self.sigma_sq > 0.0):
            raise ValueError(f"sigma_sq must be positive, got {self.sigma_sq}")
        if self.m < 2:
            raise ValueError(f"multiplicity m must be >= 2, got {self.m}")
        if self.k < 1:
            raise ValueError(f"sample count k must be >= 1, got {self.k}")
        if not 0 <= self.seed <= (1 << 64) - 1:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class ViewBatch:
    """One sampled batch: views[i, a] is view a of sample i.

    latents holds the generating c_i and exists for diagnostics only; no loss
    computation may consume it.
    """

    views: np.ndarray  # (k, m) float64
    latents: np.ndarray  # (k,) float64

    def __post_init__(self) -> None:
        if self.views.ndim != 2 or self.latents.ndim != 1:
            raise ValueError("views must be (k, m) and latents (k,)")
        if self.views.shape[0] != self.latents.shape[0]:
            raise ValueError("views and latents disagree on sample count")


def sample_batch(cfg: GaussianConfig, rng: np.random.Generator | None = None) -> ViewBatch:
    """Draw one batch. With rng omitted, the draw is keyed by cfg.seed.

    Latents are drawn first, then the k x m noise block, so a given stream
    always yields the same batch.
    """
    if rng is None:
        rng = streams.stream(cfg.seed, streams.TRAIN_BATCH)
    latents = rng.normal(0.0, math.sqrt(cfg.sigma0_sq), size=cfg.k)
    noise = rng.normal(0.0, math.sqrt(cfg.sigma_sq), size=(cfg.k, cfg.m))
    return ViewBatch(views=latents[:, None] + noise, latents=latents)


def _check_variances(sigma0_sq: float, sigma_sq: float) -> None:
    if sigma0_sq < 0.0 or not math.isfinite(sigma0_sq):
        raise ValueError(f"sigma0_sq must be >= 0, got {sigma0_sq}")
    if sigma_sq <= 0.0 or not math.isfinite(sigma_sq):
        raise ValueError(f"sigma_sq must be > 0, got {sigma_sq}")


def true_one_vs_rest_mi(sigma0_sq: float, sigma_sq: float, m: int) -> float:
    """I(x_a ; rest of the M views) in nats, direct closed form.

    Equals 0.5 * ln[(1 + sigma0_sq/sigma_sq) * (1 - sigma0_sq/(sigma_sq + M*sigma0_sq))].
    Strictly increasing in M when sigma0_sq > 0.
    """
    _check_variances(sigma0_sq, sigma_sq)
    if m < 2:
        raise ValueError(f"multiplicity m must be >= 2, got {m}")
    ratio = sigma0_sq / sigma_sq
    shrink = 1.0 - sigma0_sq / (sigma_sq + m * sigma0_sq)
    return 0.5 * math.log((1.0 + ratio) * shrink)


def mi_infomax_limit(sigma0_sq: float, sigma_sq: float) -> float:
    """I(x_a ; c) = 0.5 * ln(1 + sigma0_sq/sigma_sq), the M -> infinity limit."""
    _check_variances(sigma0_sq, sigma_sq)
    return 0.5 * math.log1p(sigma0_sq / sigma_sq)


def mi_via_gaussian_kl(sigma0_sq: float, sigma_sq: float, m: int) -> float:
    """One-vs-Rest MI as a KL divergence between explicit Gaussians.

    Builds the joint M-view covariance (sigma_sq + sigma0_sq on the diagonal,
    sigma0_sq off it) and the block-diagonal covariance of the factored
    distribution (one view independent of the other M-1), then evaluates

        KL(N(0, S) || N(0, S~)) = 0.5 * (tr(S~^{-1} S) - M + ln det S~ - ln det S)

    with Cholesky factors, S~ = L~ L~^T and S = L L^T, from which
    tr(S~^{-1} S) = ||L~^{-1} L||_F^2. Independent of true_one_vs_rest_mi;
    serves as its oracle. M is capped at MATRIX_ORACLE_MAX_M.
    """
    _check_variances(sigma0_sq, sigma_sq)
    if m < 2:
        raise ValueError(f"multiplicity m must be >= 2, got {m}")
    if m > MATRIX_ORACLE_MAX_M:
        raise ValueError(f"matrix oracle supports m <= {MATRIX_ORACLE_MAX_M}, got {m}")

    def latent_plus_noise_cov(n: int) -> np.ndarray:
        return sigma_sq * np.eye(n) + sigma0_sq * np.ones((n, n))

    joint = latent_plus_noise_cov(m)
    factored = np.zeros((m, m))
    factored[0, 0] = sigma_sq + sigma0_sq
    factored[1:, 1:] = latent_plus_noise_cov(m - 1)

    try:
        chol_factored = np.linalg.cholesky(factored)
        chol_joint = np.linalg.cholesky(joint)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"covariance is numerically singular: {exc}") from exc
    trace_term = float(np.sum(np.linalg.solve(chol_factored, chol_joint) ** 2))
    logdet_factored = 2.0 * float(np.sum(np.log(np.diag(chol_factored))))
    logdet_joint = 2.0 * float(np.sum(np.log(np.diag(chol_joint))))
    return 0.5 * float(trace_term - m + logdet_factored - logdet_joint)


def conditional_convergence_probe(
    cfg: GaussianConfig, m_values: list[int]
) -> dict[int, float]:
    """Monte-Carlo check that the scaled rest-set sum converges to the latent.

    For each M, estimates E[(w(M) * sum of M-1 views - c)^2] with
    w(M) = sigma0_sq / (sigma_sq + (M-1) * sigma0_sq), the exact Gaussian
    conditional-mean weight. The exact value is
    sigma_sq * sigma0_sq / (sigma_sq + (M-1) * sigma0_sq), non-increasing in M
    and tending to 0.
    """
    if not m_values:
        raise ValueError("m_values must be non-empty")
    if any(m < 2 for m in m_values):
        raise ValueError(f"every multiplicity must be >= 2, got {m_values}")
    gaps: dict[int, float] = {}
    for m in m_values:
        rng = streams.stream(cfg.seed, streams.PROBE, a=m)
        latents = rng.normal(0.0, math.sqrt(cfg.sigma0_sq), size=cfg.k)
        rest = latents[:, None] + rng.normal(
            0.0, math.sqrt(cfg.sigma_sq), size=(cfg.k, m - 1)
        )
        weight = cfg.sigma0_sq / (cfg.sigma_sq + (m - 1) * cfg.sigma0_sq)
        residual = weight * rest.sum(axis=1) - latents
        gaps[m] = float(np.mean(residual**2))
    return gaps
