"""Tests for the synthetic Gaussian world and its mutual-information oracles.

The scalar closed form and the covariance/KL route are implemented
independently; their agreement is the anchor for every MI value downstream.
Frozen literals below were derived by hand: at sigma0_sq=1, sigma_sq=1/4,
M=2 the closed form reduces to ln(5/3) and M=10 to ln(185/41)/2.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyview import streams
from polyview.gaussian_world import (
    MATRIX_ORACLE_MAX_M,
    GaussianConfig,
    ViewBatch,
    conditional_convergence_probe,
    mi_infomax_limit,
    mi_via_gaussian_kl,
    sample_batch,
    true_one_vs_rest_mi,
)

VARIANCE_GRID = [0.25, 0.5, 1.0, 2.0, 4.0]


# Hand-derived rational forms at the default world (sigma0_sq=1, sigma_sq=1/4):
# I(M) = 0.5*ln[(1+4) * (1 - 1/(1/4 + M))]; M=2 gives 0.5*ln(25/9) = ln(5/3).
FROZEN_DEFAULT_WORLD = {
    2: math.log(5.0 / 3.0),            # 5 * (5/9) = 25/9, half-log
    4: 0.5 * math.log(65.0 / 17.0),    # 5 * (13/17)
    10: 0.5 * math.log(185.0 / 41.0),  # 5 * (37/41)
}


@pytest.mark.parametrize("m,expected", sorted(FROZEN_DEFAULT_WORLD.items()))
def test_closed_form_matches_hand_derivation(m, expected):
    assert true_one_vs_rest_mi(1.0, 0.25, m) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("m,expected", sorted(FROZEN_DEFAULT_WORLD.items()))
def test_matrix_oracle_matches_hand_derivation(m, expected):
    assert mi_via_gaussian_kl(1.0, 0.25, m) == pytest.approx(expected, abs=1e-9)


def test_frozen_decimal_values():
    assert true_one_vs_rest_mi(1.0, 0.25, 2) == pytest.approx(0.5108256237659906, abs=1e-12)
    assert true_one_vs_rest_mi(1.0, 0.25, 10) == pytest.approx(0.7533918791870086, abs=1e-12)
    assert mi_infomax_limit(1.0, 0.25) == pytest.approx(0.8047189562170501, abs=1e-12)


def test_oracle_agreement_on_grid():
    for sigma0_sq in VARIANCE_GRID:
        for sigma_sq in VARIANCE_GRID:
            for m in range(2, 17):
                direct = true_one_vs_rest_mi(sigma0_sq, sigma_sq, m)
                via_kl = mi_via_gaussian_kl(sigma0_sq, sigma_sq, m)
                assert abs(direct - via_kl) < 1e-9, (sigma0_sq, sigma_sq, m)


@given(
    sigma0_sq=st.floats(0.05, 8.0),
    sigma_sq=st.floats(0.05, 8.0),
    m=st.integers(2, 63),
)
@settings(deadline=None)
def test_mi_increasing_in_m_and_below_limit(sigma0_sq, sigma_sq, m):
    lo = true_one_vs_rest_mi(sigma0_sq, sigma_sq, m)
    hi = true_one_vs_rest_mi(sigma0_sq, sigma_sq, m + 1)
    limit = mi_infomax_limit(sigma0_sq, sigma_sq)
    assert lo < hi < limit
    assert lo > 0.0


@given(sigma0_sq=st.floats(0.05, 8.0), sigma_sq=st.floats(0.05, 8.0))
@settings(deadline=None)
def test_mi_approaches_infomax_limit(sigma0_sq, sigma_sq):
    limit = mi_infomax_limit(sigma0_sq, sigma_sq)
    far = true_one_vs_rest_mi(sigma0_sq, sigma_sq, 10**9)
    assert limit - far == pytest.approx(0.0, abs=1e-6)


def test_degenerate_latent_gives_zero_mi():
    assert true_one_vs_rest_mi(0.0, 1.0, 5) == 0.0
    assert mi_via_gaussian_kl(0.0, 1.0, 5) == pytest.approx(0.0, abs=1e-12)


def test_zero_noise_rejected():
    with pytest.raises(ValueError):
        true_one_vs_rest_mi(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        mi_infomax_limit(1.0, -1.0)


def test_matrix_oracle_cap():
    mi_via_gaussian_kl(1.0, 0.25, MATRIX_ORACLE_MAX_M)
    with pytest.raises(ValueError):
        mi_via_gaussian_kl(1.0, 0.25, MATRIX_ORACLE_MAX_M + 1)


@pytest.mark.parametrize("m", [1, 0, -3])
def test_small_multiplicity_rejected(m):
    with pytest.raises(ValueError):
        true_one_vs_rest_mi(1.0, 0.25, m)


class TestSampling:
    def cfg(self, **kw):
        base = dict(sigma0_sq=1.0, sigma_sq=0.25, k=4096, m=4, seed=42)
        base.update(kw)
        return GaussianConfig(**base)

    def test_batch_is_deterministic(self):
        a = sample_batch(self.cfg())
        b = sample_batch(self.cfg())
        np.testing.assert_array_equal(a.views, b.views)
        np.testing.assert_array_equal(a.latents, b.latents)

    def test_explicit_rng_overrides_seed(self):
        rng = streams.stream(9, streams.TEST, a=1)
        a = sample_batch(self.cfg(), rng)
        b = sample_batch(self.cfg())
        assert not np.array_equal(a.views, b.views)

    def test_moments_match_generative_process(self):
        cfg = self.cfg(k=200_000, m=3)
        batch = sample_batch(cfg)
        v = batch.views
        total_var = cfg.sigma0_sq + cfg.sigma_sq
        # Standard errors: var of a sample variance is ~2 var^2 / k.
        se_var = total_var * math.sqrt(2.0 / cfg.k)
        assert np.var(v[:, 0]) == pytest.approx(total_var, abs=5 * se_var)
        cross = np.mean(v[:, 0] * v[:, 1])
        se_cross = math.sqrt((total_var**2 + cfg.sigma0_sq**2) / cfg.k)
        assert cross == pytest.approx(cfg.sigma0_sq, abs=5 * se_cross)

    def test_views_center_on_latents(self):
        batch = sample_batch(self.cfg(k=100_000, m=8))
        residual = batch.views.mean(axis=1) - batch.latents
        assert np.mean(residual**2) == pytest.approx(0.25 / 8, rel=0.1)

    def test_invalid_config_rejected(self):
        for kw in (dict(m=1), dict(k=0), dict(seed=-1), dict(sigma_sq=-0.5),
                   dict(sigma0_sq=float("nan")), dict(sigma0_sq=0.0)):
            with pytest.raises(ValueError):
                self.cfg(**kw)

    def test_view_batch_shape_validation(self):
        with pytest.raises(ValueError):
            ViewBatch(views=np.zeros((3, 2)), latents=np.zeros(4))
        with pytest.raises(ValueError):
            ViewBatch(views=np.zeros(3), latents=np.zeros(3))


class TestConvergenceProbe:
    def test_matches_exact_residual_variance(self):
        cfg = GaussianConfig(sigma0_sq=1.0, sigma_sq=0.25, k=200_000, m=2, seed=0)
        gaps = conditional_convergence_probe(cfg, [2, 4, 16])
        # Exact: sigma_sq*sigma0_sq / (sigma_sq + (m-1)*sigma0_sq); hand-reduced.
        exact = {2: 1.0 / 5.0, 4: 1.0 / 13.0, 16: 1.0 / 61.0}
        for m, expected in exact.items():
            # Residual is Gaussian with variance == expected, so the mean of
            # k squared residuals has standard error expected*sqrt(2/k).
            se = expected * math.sqrt(2.0 / cfg.k)
            assert gaps[m] == pytest.approx(expected, abs=5 * se)

    def test_gaps_decrease_toward_zero(self):
        cfg = GaussianConfig(sigma0_sq=1.0, sigma_sq=0.25, k=50_000, m=2, seed=1)
        gaps = conditional_convergence_probe(cfg, [2, 3, 5, 9, 17, 33])
        values = [gaps[m] for m in (2, 3, 5, 9, 17, 33)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.04

    def test_bad_inputs_rejected(self):
        cfg = GaussianConfig(sigma0_sq=1.0, sigma_sq=0.25, k=10, m=2, seed=0)
        with pytest.raises(ValueError):
            conditional_convergence_probe(cfg, [])
        with pytest.raises(ValueError):
            conditional_convergence_probe(cfg, [2, 1])
