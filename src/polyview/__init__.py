"""Numerical laboratory for poly-view contrastive learning.

A 1D Gaussian world with closed-form mutual-information oracles, five
temperature-scaled contrastive objectives over M views with hand-derived
gradients, MI lower-bound accounting, a tiny hand-rolled GeLU encoder with
AdamW, and a deterministic experiment harness with a CLI.
"""

from .bounds import bound_from_loss
from .gaussian_world import (
    GaussianConfig,
    conditional_convergence_probe,
    mi_infomax_limit,
    mi_via_gaussian_kl,
    sample_batch,
    true_one_vs_rest_mi,
)
from .harness import (
    RunSpec,
    SweepSpec,
    aggregate,
    run_sweep,
    run_training,
    validity_study,
    variance_study,
)
from .losses import EmbeddingBatch, Method, compute_loss, loss_pair_infonce
from .tinynn import TrainConfig, forward, init_params

# Exactly the names that the README and demos/ import.
__all__ = [
    "EmbeddingBatch",
    "GaussianConfig",
    "Method",
    "RunSpec",
    "SweepSpec",
    "TrainConfig",
    "aggregate",
    "bound_from_loss",
    "compute_loss",
    "conditional_convergence_probe",
    "forward",
    "init_params",
    "loss_pair_infonce",
    "mi_infomax_limit",
    "mi_via_gaussian_kl",
    "run_sweep",
    "run_training",
    "sample_batch",
    "true_one_vs_rest_mi",
    "validity_study",
    "variance_study",
]

__version__ = "0.1.0"
