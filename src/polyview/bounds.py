"""Mutual-information accounting for the contrastive objectives.

Each objective's minimum achievable loss sits an additive constant above
the negative of a one-vs-rest MI lower bound, so `offset - loss` turns a
measured loss into a bound estimate in nats. The poly-view and rest-set
objectives contrast against B - M + 1 candidates (offset ln(KM - M + 1));
the pairwise objectives contrast against K (offset ln K).

Also houses the closed-form side quantities: the variance ratio bound for
the multi-crop estimator and the compute-optimal view multiplicity.
"""

from __future__ import annotations

import math

from .losses import Method


def offset_c(k: int, m: int) -> float:
    """ln(K*M - M + 1): candidate-count offset for the poly-view and
    rest-set objectives (one positive plus all views of other samples)."""
    if k < 1 or m < 2:
        raise ValueError(f"need K >= 1 and M >= 2, got K={k}, M={m}")
    return math.log(k * m - m + 1)


def bound_from_loss(method: Method, loss: float, k: int, m: int) -> float:
    """MI lower-bound estimate: ln K if method.pairwise, else offset_c(k, m), minus the loss.

    Collapsed embeddings drive each loss to exactly its offset, so a
    collapsed run reports bound 0.
    """
    if not isinstance(method, Method):
        raise ValueError(f"unknown method: {method!r}")
    if not method.pairwise:
        return offset_c(k, m) - loss
    if k < 1:
        raise ValueError(f"need K >= 1, got {k}")
    return math.log(k) - loss


def variance_bound_factor(m: int) -> float:
    """2(2M-1)/(3M(M-1)): bound on Var[multi-crop loss] / Var[pair loss]
    over view draws at fixed latents.

    It is the variance of the mean of the M(M-1) directed pair losses,
    relative to one pair's, when the two directions of a pair are fully
    correlated, pairs sharing one view have correlation 1/3, and pairs on
    disjoint views are uncorrelated. Views are conditionally independent
    given the latent, so the last assumption holds only with the latents
    held fixed. The total variance across fresh batches also contains
    Var[E(loss | latents)], which every pair of a sample shares and no
    averaging over views removes, so the factor does not bound that ratio.

    Equals 1 at M = 2 and decreases strictly in M.
    """
    if m < 2:
        raise ValueError(f"need M >= 2, got {m}")
    return 2.0 * (2 * m - 1) / (3.0 * m * (m - 1))


def optimal_multiplicity(b: int, p_star: float, variant: str) -> float:
    """Compute-optimal view multiplicity at fixed view budget B.

    p_star is the assumed converged likelihood of the positive under the
    contrastive softmax; it is an input, never inferred from runs. The two
    variants come from the two linear-growth approximations:

      linear-1: sqrt(2 (B + 1) (1 - p*))
      linear-2: 1 + sqrt(B (1 - p*))
    """
    if b < 2:
        raise ValueError(f"need B >= 2, got {b}")
    if not 0.0 < p_star < 1.0:
        raise ValueError(f"p_star must lie in (0, 1), got {p_star}")
    if variant == "linear-1":
        return math.sqrt(2.0 * (b + 1) * (1.0 - p_star))
    if variant == "linear-2":
        return 1.0 + math.sqrt(b * (1.0 - p_star))
    raise ValueError(f"variant must be 'linear-1' or 'linear-2', got {variant!r}")
