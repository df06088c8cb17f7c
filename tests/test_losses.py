"""Tests for the contrastive objectives.

Every objective is checked against a brute-force oracle written as plain
loops over candidate sets, sharing no code with the vectorized kernels.
Frozen literals were produced by the oracles on a pinned batch and protect
against the library and oracle drifting together.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    at_width,
    fresh_python,
    identical_embedding_batch,
    random_embedding_batch,
    unit_rows,
)
from polyview import losses, streams, tinynn
from polyview.gaussian_world import GaussianConfig, sample_batch
from polyview.losses import (
    EmbeddingBatch,
    LossResult,
    Method,
    _loss_and_zgrad,
    _per_sample_loss,
    _view_major,
    compute_loss,
    l2_normalize,
    loss_pair_infonce,
)
from polyview.tinynn import finite_difference_grads, forward, init_params
from reference import reference

TAU = 0.5


# ---------------------------------------------------------------------------
# Brute-force oracles: plain loops, no shared code with the library kernels.
# ---------------------------------------------------------------------------


def oracle_pair_infonce(z: np.ndarray, alpha: int, beta: int, tau: float) -> np.ndarray:
    k = z.shape[0]
    out = np.zeros(k)
    for i in range(k):
        scores = [float(np.dot(z[i, alpha], z[j, beta])) / tau for j in range(k)]
        out[i] = log_sum_exp(scores) - scores[i]
    return out


def oracle_multicrop(z: np.ndarray, tau: float) -> np.ndarray:
    k, m, _ = z.shape
    out = np.zeros(k)
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    for a, b in pairs:
        out += oracle_pair_infonce(z, a, b, tau)
    return out / len(pairs)


def log_sum_exp(values: list[float]) -> float:
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def oracle_log_likelihood(z: np.ndarray, tau: float, i: int, alpha: int, beta: int) -> float:
    k, m, _ = z.shape
    candidates = [(i, beta)] + [(j, v) for j in range(k) if j != i for v in range(m)]
    scores = [float(np.dot(z[i, alpha], z[j, v])) / tau for j, v in candidates]
    return scores[0] - log_sum_exp(scores)


def oracle_pvc(z: np.ndarray, tau: float, arithmetic: bool) -> np.ndarray:
    k, m, _ = z.shape
    out = np.zeros(k)
    for i in range(k):
        acc = 0.0
        for alpha in range(m):
            log_ls = [
                oracle_log_likelihood(z, tau, i, alpha, beta)
                for beta in range(m)
                if beta != alpha
            ]
            if arithmetic:
                acc += math.log(m - 1) - log_sum_exp(log_ls)
            else:
                acc += -sum(log_ls) / (m - 1)
        out[i] = acc / m
    return out


def oracle_rest_stat(z: np.ndarray, i: int, alpha: int) -> np.ndarray:
    m = z.shape[1]
    mean = sum(z[i, b] for b in range(m) if b != alpha) / (m - 1)
    return mean / np.linalg.norm(mean)


def oracle_suffstats(z: np.ndarray, tau: float) -> np.ndarray:
    k, m, _ = z.shape
    q = np.zeros_like(z)
    for i in range(k):
        for v in range(m):
            q[i, v] = oracle_rest_stat(z, i, v)
    out = np.zeros(k)
    for i in range(k):
        acc = 0.0
        for alpha in range(m):
            candidates = [(i, alpha)] + [
                (j, v) for j in range(k) if j != i for v in range(m)
            ]
            scores = [float(np.dot(z[i, alpha], q[j, v])) / tau for j, v in candidates]
            acc += log_sum_exp(scores) - scores[0]
        out[i] = acc / m
    return out


ORACLES = {
    Method.MULTICROP: oracle_multicrop,
    Method.ARITHMETIC_PVC: lambda z, tau: oracle_pvc(z, tau, True),
    Method.GEOMETRIC_PVC: lambda z, tau: oracle_pvc(z, tau, False),
    Method.SUFFSTATS: oracle_suffstats,
}


# Oracle outputs on random_embedding_batch(3, 3, 2, case=1), frozen.
FROZEN_BATCH = (3, 3, 2, 1)
FROZEN_TOTALS = {
    Method.MULTICROP: 1.3424620500745126,
    Method.ARITHMETIC_PVC: 2.149476403639073,
    Method.GEOMETRIC_PVC: 2.274930508167777,
    Method.SUFFSTATS: 2.4375048757846445,
}


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class TestNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)

    def test_idempotent(self):
        v = unit_rows(np.array([[1.3, -0.4, 0.2]]))
        np.testing.assert_allclose(l2_normalize(v), v, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            l2_normalize(np.zeros(3))

    def test_subnormal_vector_rejected(self):
        with pytest.raises(ValueError):
            l2_normalize(np.full(3, 1e-300))

    @pytest.mark.parametrize("caller,message", [
        ("l2_normalize", "cannot normalize a zero or subnormal vector"),
        ("suffstats", "rest-set mean has near-zero norm (antipodal views); cannot normalize"),
        ("encoder", "encoder produced a zero pre-normalization vector"),
    ])
    def test_norm_at_the_floor_refused(self, caller, message):
        # Each caller of the one row normalization refuses a row of norm
        # exactly NORMALIZE_EPS with its own message, and takes twice that.
        def run(norm):
            row = np.zeros(tinynn.D_OUT)
            row[0] = norm
            assert np.linalg.norm(row) == norm
            if caller == "l2_normalize":
                return l2_normalize(np.stack([row, unit_rows(np.ones(tinynn.D_OUT))]))
            if caller == "suffstats":  # q[1, 0], view 1's rest mean, is zt[0, 0]
                zt = np.zeros((2, 2, tinynn.D_OUT))
                zt[..., 1] = 1.0
                zt[0, 0] = row
                return _per_sample_loss(Method.SUFFSTATS, zt, TAU, False)
            return tinynn._second_layer(np.zeros((1, tinynn.D_HIDDEN)),
                                        np.zeros((tinynn.D_OUT, tinynn.D_HIDDEN)), row, (1, 1))

        with pytest.raises(losses._NumericalError, match=f"^{re.escape(message)}$"):
            run(losses.NORMALIZE_EPS)
        run(2 * losses.NORMALIZE_EPS)


class TestEmbeddingBatch:
    def test_accepts_unit_rows(self):
        random_embedding_batch(2, 2, 3, case=0)

    def test_rejects_non_unit_rows(self):
        z = np.full((2, 2, 2), 0.5)
        z[0, 0] *= 1.001
        with pytest.raises(ValueError):
            EmbeddingBatch(z=z)

    def test_rejects_nan(self):
        z = np.full((2, 2, 4), 0.5)
        z[1, 1, 0] = float("nan")
        with pytest.raises(ValueError):
            EmbeddingBatch(z=z)

    def test_rejects_wrong_rank_and_tiny_shapes(self):
        with pytest.raises(ValueError):
            EmbeddingBatch(z=np.ones((2, 2)))
        with pytest.raises(ValueError):
            EmbeddingBatch(z=np.ones((1, 2, 1)))
        with pytest.raises(ValueError):
            EmbeddingBatch(z=np.ones((2, 1, 1)))

    def test_loss_result_total_is_mean(self):
        res = LossResult.from_per_sample(np.array([1.0, 3.0]))
        assert res.total == 2.0


# ---------------------------------------------------------------------------
# Objectives against oracles
# ---------------------------------------------------------------------------


SHAPES = [(2, 2, 3), (2, 3, 4), (3, 2, 2), (4, 4, 3), (5, 3, 8)]


class TestAgainstOracles:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("method", list(ORACLES))
    def test_per_sample_losses_match(self, shape, method):
        k, m, d = shape
        for case in range(3):
            batch = random_embedding_batch(k, m, d, case=10 + case)
            got = compute_loss(method, batch, TAU)
            want = ORACLES[method](batch.z, TAU)
            np.testing.assert_allclose(got.per_sample, want, atol=1e-12)
            assert got.total == pytest.approx(float(want.mean()), abs=1e-12)

    def test_frozen_totals(self):
        batch = random_embedding_batch(*FROZEN_BATCH)
        for method, expected in FROZEN_TOTALS.items():
            assert compute_loss(method, batch, TAU).total == pytest.approx(
                expected, abs=1e-12
            ), method
            assert float(ORACLES[method](batch.z, TAU).mean()) == pytest.approx(
                expected, abs=1e-12
            ), method

    @pytest.mark.parametrize("alpha,beta", [(0, 1), (1, 0), (2, 1)])
    def test_pair_infonce_matches_oracle(self, alpha, beta):
        batch = random_embedding_batch(3, 3, 4, case=20)
        got = loss_pair_infonce(batch, alpha, beta, TAU)
        want = oracle_pair_infonce(batch.z, alpha, beta, TAU)
        np.testing.assert_allclose(got.per_sample, want, atol=1e-12)

    def test_antipodal_rest_set_rejected(self):
        # View 0's rest set is {v, -v}, whose mean is exactly zero.
        a = unit_rows(np.array([1.0, 0.0]))
        v = unit_rows(np.array([0.6, 0.8]))
        z = np.stack([np.stack([a, v, -v]), np.stack([v, a, -a])])
        batch = EmbeddingBatch(z=z)
        with pytest.raises(ValueError):
            compute_loss(Method.SUFFSTATS, batch, TAU)


# ---------------------------------------------------------------------------
# Exact identities, sentinels, orderings
# ---------------------------------------------------------------------------


class TestIdentities:
    def test_arithmetic_equals_geometric_at_m2(self):
        for case in range(5):
            batch = random_embedding_batch(4, 2, 3, case=30 + case)
            a = compute_loss(Method.ARITHMETIC_PVC, batch, TAU)
            g = compute_loss(Method.GEOMETRIC_PVC, batch, TAU)
            np.testing.assert_allclose(a.per_sample, g.per_sample, atol=1e-12)

    def test_suffstats_equals_poly_view_at_m2(self):
        # At M=2 the rest-set statistic of each view IS the other view, so
        # the candidate sets coincide with the poly-view ones exactly.
        for case in range(5):
            batch = random_embedding_batch(4, 2, 3, case=35 + case)
            s = compute_loss(Method.SUFFSTATS, batch, TAU)
            a = compute_loss(Method.ARITHMETIC_PVC, batch, TAU)
            np.testing.assert_allclose(s.per_sample, a.per_sample, atol=1e-12)

    def test_suffstats_m2_does_not_equal_multicrop_m2(self):
        # The two contrast against different candidate counts (2K-1 vs K);
        # their collapse values ln(2K-1) and ln K already differ.
        batch = random_embedding_batch(4, 2, 3, case=40)
        s = compute_loss(Method.SUFFSTATS, batch, TAU).total
        p = compute_loss(Method.MULTICROP, batch, TAU).total
        assert abs(s - p) > 0.1

    def test_multicrop_m2_is_mean_of_directed_pairs(self):
        batch = random_embedding_batch(5, 2, 4, case=41)
        want = 0.5 * (
            oracle_pair_infonce(batch.z, 0, 1, TAU)
            + oracle_pair_infonce(batch.z, 1, 0, TAU)
        )
        np.testing.assert_allclose(
            compute_loss(Method.MULTICROP, batch, TAU).per_sample, want, atol=1e-12
        )

    def test_infonce_dispatch(self):
        batch = random_embedding_batch(4, 2, 3, case=42)
        a = compute_loss(Method.INFONCE, batch, TAU)
        b = compute_loss(Method.MULTICROP, batch, TAU)
        assert a.total == b.total

    @pytest.mark.parametrize("tau", [0.0, -0.5, math.inf, math.nan, 1e-310, 1e-160,
                                     np.nextafter(losses.MIN_TAU, 0.0), True])
    def test_rejects_bad_temperature(self, tau):
        # 1e-310 is positive and finite, but its reciprocal overflows to inf;
        # below MIN_TAU a squared loss can overflow; True used to score at 1.
        batch = random_embedding_batch(3, 2, 2, case=44)
        with pytest.raises(ValueError, match="temperature tau"):
            compute_loss(Method.GEOMETRIC_PVC, batch, tau)
        with pytest.raises(ValueError, match="temperature tau"):
            loss_pair_infonce(batch, 0, 1, tau)

    def test_infonce_requires_two_views(self):
        batch = random_embedding_batch(3, 3, 2, case=43)
        with pytest.raises(ValueError):
            compute_loss(Method.INFONCE, batch, TAU)

    def test_method_tokens_round_trip(self):
        for method in Method:
            assert Method.from_token(method.value) is method
        with pytest.raises(ValueError):
            Method.from_token("simclr")

    def test_pairwise_family(self):
        # K candidates per target, negatives only in the positive's view.
        assert [method for method in Method if method.pairwise] == [Method.INFONCE,
                                                                    Method.MULTICROP]

    def test_every_route_refuses_through_one_check(self):
        # _view_major is the gate: each route to the kernel refuses a bad
        # objective with _check_objective's one message.
        batch = random_embedding_batch(3, 3, 2, case=43)
        routes = (lambda method, tau: compute_loss(method, batch, tau),
                  lambda method, tau: _loss_and_zgrad(method, batch, tau),
                  lambda method, tau: _view_major(method, np.stack([batch.z] * 2), tau))
        for route in routes:
            for method, tau, message in (
                    (Method.INFONCE, TAU, "infonce requires M = 2, got M = 3"),
                    ("geometric", TAU, "unknown method: 'geometric'"),
                    (Method.GEOMETRIC_PVC, 0.0, "temperature tau must be a finite real")):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                    route(method, tau)

    def test_view_major_keeps_leading_set_axes(self):
        batches = [random_embedding_batch(4, 3, 2, case=45 + j) for j in range(3)]
        zt = _view_major(Method.GEOMETRIC_PVC, np.stack([b.z for b in batches]), TAU)
        assert zt.shape == (3, 3, 4, 2) and zt.flags.c_contiguous
        for batch, one in zip(batches, zt):
            assert np.array_equal(one, batch.z.transpose(1, 0, 2))


class TestCollapseSentinels:
    @pytest.mark.parametrize("k,m", [(8, 2), (6, 4)])
    def test_poly_view_and_suffstats_collapse(self, k, m):
        batch = identical_embedding_batch(k, m, 3)
        expected = math.log(k * m - m + 1)
        for method in (Method.ARITHMETIC_PVC, Method.GEOMETRIC_PVC, Method.SUFFSTATS):
            loss = compute_loss(method, batch, TAU).total
            assert loss == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k,m", [(8, 2), (6, 4), (5, 3)])
    def test_pairwise_collapse(self, k, m):
        batch = identical_embedding_batch(k, m, 3)
        loss = compute_loss(Method.MULTICROP, batch, TAU).total
        assert loss == pytest.approx(math.log(k), abs=1e-12)

    def test_pair_infonce_collapse_is_ln2(self):
        batch = identical_embedding_batch(2, 2, 3)
        assert loss_pair_infonce(batch, 0, 1, TAU).total == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_pair_infonce_saturates_to_zero(self):
        # Distinct samples with coincident views: positive score dominates
        # as tau -> 0, so the softmax saturates and the loss vanishes.
        directions = unit_rows(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        z = np.stack([np.stack([v, v]) for v in directions])
        batch = EmbeddingBatch(z=z)
        assert loss_pair_infonce(batch, 0, 1, 0.01).total == pytest.approx(0.0, abs=1e-12)


class TestJensenOrdering:
    def test_arithmetic_never_exceeds_geometric(self):
        strict = 0
        n = 200
        for case in range(n):
            batch = random_embedding_batch(3, 3, 2, case=100 + case)
            a = compute_loss(Method.ARITHMETIC_PVC, batch, TAU).total
            g = compute_loss(Method.GEOMETRIC_PVC, batch, TAU).total
            assert a <= g + 1e-12
            if g - a > 1e-9:
                strict += 1
        assert strict > 0.99 * n


# ---------------------------------------------------------------------------
# Invariances
# ---------------------------------------------------------------------------


ALL_LOSSES = [
    Method.MULTICROP,
    Method.ARITHMETIC_PVC,
    Method.GEOMETRIC_PVC,
    Method.SUFFSTATS,
]


def householder(d: int, case: int) -> np.ndarray:
    v = unit_rows(streams.stream(13, streams.TEST, a=case).standard_normal(d))
    return np.eye(d) - 2.0 * np.outer(v, v)


class TestInvariances:
    def test_common_view_permutation(self):
        perm = np.array([2, 0, 1])
        for method in ALL_LOSSES:
            for case in range(3):
                batch = random_embedding_batch(4, 3, 3, case=200 + case)
                base = compute_loss(method, batch, TAU).total
                permuted = EmbeddingBatch(z=batch.z[:, perm, :])
                assert compute_loss(method, permuted, TAU).total == pytest.approx(
                    base, abs=1e-12
                ), method

    def test_independent_permutations_preserve_closed_candidate_sets(self):
        # Poly-view and rest-set candidate sets are closed over each sample's
        # views, so per-sample reshuffles only relabel terms.
        perms = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]])
        rows = np.arange(4)[:, None]
        for method in (Method.ARITHMETIC_PVC, Method.GEOMETRIC_PVC, Method.SUFFSTATS):
            for case in range(3):
                batch = random_embedding_batch(4, 3, 3, case=210 + case)
                base = compute_loss(method, batch, TAU).total
                shuffled = EmbeddingBatch(z=batch.z[rows, perms, :])
                assert compute_loss(method, shuffled, TAU).total == pytest.approx(
                    base, abs=1e-12
                ), method

    def test_independent_permutations_change_multicrop(self):
        # Documented asymmetry: pair terms draw their negatives from a fixed
        # view slot per sample, so per-sample reshuffles change the sum.
        perms = np.array([[1, 0], [0, 1], [0, 1]])
        rows = np.arange(3)[:, None]
        batch = random_embedding_batch(3, 2, 2, case=220)
        base = compute_loss(Method.MULTICROP, batch, TAU).total
        shuffled = EmbeddingBatch(z=batch.z[rows, perms, :])
        assert abs(compute_loss(Method.MULTICROP, shuffled, TAU).total - base) > 1e-9

    def test_orthogonal_map_invariance(self):
        for case in range(3):
            batch = random_embedding_batch(4, 3, 4, case=230 + case)
            refl = householder(4, case)
            mapped = EmbeddingBatch(z=batch.z @ refl.T)
            for method in ALL_LOSSES:
                base = compute_loss(method, batch, TAU).total
                got = compute_loss(method, mapped, TAU).total
                assert got == pytest.approx(base, abs=1e-12), method


# ---------------------------------------------------------------------------
# Gradients of the raw kernels (embedding space)
# ---------------------------------------------------------------------------


def off_sphere(raw: np.ndarray) -> SimpleNamespace:
    """A batch without EmbeddingBatch's unit-norm check: central differences
    step off the sphere, and the kernel's gradient is taken with respect to
    the raw rows."""
    return SimpleNamespace(z=raw, m=raw.shape[1])


def central_differences(loss, z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    z = z.copy()
    flat = z.reshape(-1)
    numeric = np.zeros_like(flat)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        hi = loss(z)
        flat[idx] = orig - h
        lo = loss(z)
        flat[idx] = orig
        numeric[idx] = (hi - lo) / (2 * h)
    return numeric.reshape(z.shape)


def max_relative_error(got: np.ndarray, want: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    return float(np.max(np.abs(got - want) / denom))


class TestEmbeddingGradients:
    @pytest.mark.parametrize("method", ALL_LOSSES + [Method.INFONCE])
    def test_analytic_matches_central_differences(self, method):
        m = 2 if method is Method.INFONCE else 3
        batch = random_embedding_batch(3, m, 2, case=300)
        _, grad = _loss_and_zgrad(method, batch, TAU)
        numeric = central_differences(
            lambda raw: _loss_and_zgrad(method, off_sphere(raw), TAU, False)[0].total, batch.z
        )
        worst = max_relative_error(grad, numeric)
        assert worst < 1e-5, f"{method}: max relative gradient error {worst:.3e}"


# ---------------------------------------------------------------------------
# Small temperatures and tiling
# ---------------------------------------------------------------------------

SMALL_TAU = 1e-3  # 2/tau > 700: every row takes its own max as the shift
ALL_ORACLES = {Method.INFONCE: oracle_multicrop, **ORACLES}


def for_method(method: Method, batch: EmbeddingBatch) -> EmbeddingBatch:
    """infonce needs M = 2: it gets the first two views."""
    return EmbeddingBatch(z=batch.z[:, :2]) if method is Method.INFONCE else batch


def small_tau_batch() -> EmbeddingBatch:
    """Unit-norm 16 x 4 x 8: at tau = 1e-3 the positives' exponentials
    underflow under a per-row shift taken over every column."""
    raw = streams.stream(0, streams.TEST, a=1).standard_normal((16, 4, 8))
    return EmbeddingBatch(z=unit_rows(raw))


def near_orthogonal_batch() -> EmbeddingBatch:
    """4 x 3 x 16, each view close to its own basis vector: every cosine
    between two views is below 0.1, so at tau = 1e-3 every score sits more
    than 900 below the constant shift 1/tau and every row would underflow."""
    noise = streams.stream(1, streams.TEST, a=2).standard_normal((4, 3, 16))
    return EmbeddingBatch(z=unit_rows(np.eye(16)[:12].reshape(4, 3, 16) + 0.02 * noise))


class TestSmallTemperature:
    def test_near_orthogonal_rows_underflow_the_constant_shift(self):
        flat = near_orthogonal_batch().z.reshape(12, 16)
        cosines = (flat @ flat.T)[~np.eye(12, dtype=bool)]
        assert np.all(np.exp((cosines - 1.0) / SMALL_TAU) == 0.0)

    @pytest.mark.parametrize("make", [small_tau_batch, near_orthogonal_batch])
    @pytest.mark.parametrize("method", list(ALL_ORACLES))
    def test_finite_and_matches_log_space_oracle(self, method, make):
        batch = for_method(method, make())
        result, grad = _loss_and_zgrad(method, batch, SMALL_TAU)
        assert math.isfinite(result.total)
        assert np.isfinite(grad).all()
        want = ALL_ORACLES[method](batch.z, SMALL_TAU)
        np.testing.assert_allclose(result.per_sample, want, rtol=0, atol=1e-12)


REFEREE_GRID = [
    *((64, m, tau) for m in (2, 4, 10) for tau in (0.5, 1e-2, 3e-3, 2.8e-3, 1e-3)),
    (256, 4, 0.5), (256, 4, 1e-3),
]


@functools.lru_cache(maxsize=None)
def referee_case(k, m, tau):
    """The seed-0 initial encoder's embeddings of a Gaussian batch, and their
    long-double losses and gradients, computed once for both halves."""
    views = sample_batch(GaussianConfig(1.0, 0.25, k, m, 0)).views
    z = forward(init_params(streams.stream(0, streams.INIT)), views)
    return z, reference(z.z, tau)


class TestLongDoubleReferee:
    """Every objective's per-sample losses and mean-loss z-gradients against
    tests/reference.py, which computes them in long double from the same
    float64 embeddings: those of the seed-0 initial encoder on a Gaussian
    batch. The kernel may err by the rounding of its scores, which grows as
    1/tau, so each budget is C * u * (1 + 1/tau), u = 2**-53: relative per
    sample for the losses, and relative to the largest entry for the
    gradients.
    - Losses: the measured worst is C = 1.26 (K = 64, M = 2, tau = 2.8e-3,
      infonce and multicrop); below it lie 1.02 at K = 256, M = 4,
      tau = 0.5 and 0.99 at K = 64, M = 10, tau = 0.5. C = 4 leaves a
      factor of three.
    - Gradients: the measured worst is C = 4.14 (K = 64, M = 4, tau = 0.5,
      arithmetic), then 4.02 at K = 256, M = 4 (arithmetic) and 2.83 at
      M = 2 (arithmetic and geometric), all at tau = 0.5; every
      tau <= 1e-2 reads C <= 0.88. C = 12 leaves a factor of three."""

    C = 4.0
    C_GRAD = 12.0

    @pytest.mark.parametrize("k,m,tau", REFEREE_GRID)
    def test_losses_within_budget(self, k, m, tau):
        z, want = referee_case(k, m, tau)
        budget = self.C * 2.0**-53 * (1.0 + 1.0 / tau)
        for token, (losses_want, _) in want.items():
            got = compute_loss(Method.from_token(token), z, tau).per_sample
            worst = float(np.max(np.abs(got - losses_want) / np.abs(losses_want)))
            assert worst <= budget, f"{token}: {worst:.3e} relative, budget {budget:.3e}"

    @pytest.mark.parametrize("k,m,tau", REFEREE_GRID)
    def test_gradients_within_budget(self, k, m, tau):
        z, want = referee_case(k, m, tau)
        budget = self.C_GRAD * 2.0**-53 * (1.0 + 1.0 / tau)
        for token, (_, grad_want) in want.items():
            got = _loss_and_zgrad(Method.from_token(token), z, tau)[1]
            worst = float(np.max(np.abs(got - grad_want)) / np.max(np.abs(grad_want)))
            assert worst <= budget, f"{token}: {worst:.3e} of the largest entry, budget {budget:.3e}"


class TestTiling:
    @pytest.mark.parametrize("row_block", [losses._ROW_BLOCK, 1, 3, 4, 8])
    @pytest.mark.parametrize("stack", [1, 8])
    @pytest.mark.parametrize("tau", [TAU, SMALL_TAU])
    @pytest.mark.parametrize("method", list(ALL_ORACLES))
    def test_multi_tile_matches_oracles(self, monkeypatch, method, tau, stack, row_block):
        # K = 4, M = 3: at 128 rows one tile of every view; at 8, tiles of two
        # views and a ragged one of one view; at 4, one view a tile; at 3 and
        # 1, one view in blocks of 3 + 1 or of 1 row, which carry the column
        # sums of mirrored tiles. The loss-only pass also scores stack batches
        # on a leading axis, as the gradient oracle does, each with the bits
        # of its own call.
        monkeypatch.setattr(losses, "_ROW_BLOCK", row_block)
        batches = [for_method(method, random_embedding_batch(4, 3, 3, case=400 + j))
                   for j in range(stack)]
        oracle = ALL_ORACLES[method]
        stacked = _per_sample_loss(method, np.stack([b.z.transpose(1, 0, 2) for b in batches]),
                                   tau, False)[0]
        for batch, per_sample in zip(batches, stacked):
            np.testing.assert_allclose(per_sample, oracle(batch.z, tau), rtol=0, atol=1e-12)
            assert per_sample.tobytes() == compute_loss(method, batch, tau).per_sample.tobytes()
        batch = batches[0]
        result, grad = _loss_and_zgrad(method, batch, tau)
        np.testing.assert_allclose(result.per_sample, oracle(batch.z, tau), rtol=0, atol=1e-12)
        numeric = central_differences(lambda raw: float(oracle(raw, tau).mean()), batch.z)
        err = max_relative_error(grad, numeric)
        assert err < 1e-5, f"{method}: max relative gradient error {err:.3e}"

    @pytest.mark.parametrize("method, m", [
        pytest.param(method, m, id=f"{method.value}-m{m}")
        for m in (2, 10) for method in Method if method is not Method.INFONCE or m == 2])
    def test_row_blocks_keep_loss_bits_at_fig3_size(self, monkeypatch, method, m):
        # At K = 1024 a block's score GEMM gives each row the bits of the
        # whole tile's GEMM, and pass 1 adds a mirrored tile's column sums
        # row by row either way. Other K need not keep them.
        batch = random_embedding_batch(1024, m, 32, case=420)
        assert losses._ROW_BLOCK < 1024
        blocked = compute_loss(method, batch, TAU).per_sample
        monkeypatch.setattr(losses, "_ROW_BLOCK", 1024)
        whole = compute_loss(method, batch, TAU).per_sample
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("row_block", [1, 3, 8, 32])
    @pytest.mark.parametrize("tau", [TAU, SMALL_TAU])
    @pytest.mark.parametrize("method, m", [
        pytest.param(method, m, id=f"{method.value}-m{m}")
        for method in Method for m in ((2,) if method is Method.INFONCE else (3, 4))])
    def test_pass_two_tile_kinds_agree(self, monkeypatch, method, m, tau, row_block):
        # K = 16. In one block the batch is one diagonal tile, whose rows take
        # every term. Blocks of 8, 3 (ragged) or 1 rows make one view a tile,
        # so the gradient also comes from mirrored split tiles' columns and
        # diagonal split tiles; 32 rows make tiles of two views. suffstats
        # and tau = 1e-3 give one-sided tiles, the latter with row maxima.
        batch = random_embedding_batch(16, m, 8, case=430)
        monkeypatch.setattr(losses, "_ROW_BLOCK", 1024)
        _, whole = _loss_and_zgrad(method, batch, tau)
        monkeypatch.setattr(losses, "_ROW_BLOCK", row_block)
        _, blocked = _loss_and_zgrad(method, batch, tau)
        worst = np.abs(blocked - whole).max() / np.abs(whole).max()
        assert worst <= 1e-13, f"{worst:.3e} of the largest entry"


def kernel_outputs(method, batch, tau):
    result, grad = _loss_and_zgrad(method, batch, tau)
    loss_only = compute_loss(method, batch, tau)
    return [result.per_sample, grad, loss_only.per_sample,
            np.array([result.total, loss_only.total])]


class TestTileThreads:
    """The tile pool's width changes no bit of any output."""

    @pytest.mark.parametrize("row_block", [losses._ROW_BLOCK, 1, 3])
    @pytest.mark.parametrize("width", [2, 4])
    @pytest.mark.parametrize("tau", [TAU, SMALL_TAU])
    @pytest.mark.parametrize("method", list(ALL_ORACLES))
    def test_width_changes_no_bit(self, monkeypatch, method, tau, width, row_block):
        # At 128 rows a block, K = 32 makes tiles of four views with a ragged
        # one of one view at M = 5, and K = 128 one view a tile for infonce's
        # two views, so every case has several tiles; blocks of 1 or 3 rows
        # split each view. Width 4 with a short switch interval interleaves
        # the tile threads as much as it can.
        monkeypatch.setattr(losses, "_ROW_BLOCK", row_block)
        k = 128 if method is Method.INFONCE else 32
        batch = for_method(method, random_embedding_batch(k, 5, 4, case=410))
        serial, _ = at_width(monkeypatch, 1, lambda: kernel_outputs(method, batch, tau))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded, ran = at_width(monkeypatch, width,
                                     lambda: kernel_outputs(method, batch, tau))
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, threaded):
            assert got.tobytes() == want.tobytes()
        # Pair InfoNCE at the constant shift needs one mirrored tile only.
        assert ran > 0 or (method is Method.INFONCE and tau == TAU)

    @pytest.mark.parametrize("method", [Method.GEOMETRIC_PVC, Method.SUFFSTATS])
    def test_stacked_sets_width_changes_no_bit(self, monkeypatch, method):
        # The oracle's chunks of parameter sets stack on a leading axis.
        monkeypatch.setattr(losses, "_ROW_BLOCK", 8)
        params = init_params(streams.stream(0, streams.TEST, a=2))
        views = streams.stream(0, streams.TEST, a=3).standard_normal((4, 3))
        (serial, _), (threaded, ran) = [
            at_width(monkeypatch, width,
                     lambda: finite_difference_grads(params, views, method, TAU))
            for width in (1, 2)]
        assert ran > 0
        for name, want in serial.as_dict().items():
            assert threaded.as_dict()[name].tobytes() == want.tobytes()

    def test_training_steps_as_pool_tasks_keep_serial_bits(self, monkeypatch):
        # Each step is a task, so its kernel calls run their tiles serially on
        # the task's thread; pass 2's tiles make their own arrays there too.
        params = init_params(streams.stream(0, streams.TEST, a=4))
        batches = [streams.stream(0, streams.TEST, a=5, b=b).standard_normal((64, 4))
                   for b in range(2)]

        def steps():
            return list(losses._ordered_map(
                lambda views: tinynn.loss_and_grads(params, views, Method.GEOMETRIC_PVC, TAU),
                batches))

        (serial, _), (threaded, ran) = [at_width(monkeypatch, width, steps) for width in (1, 2)]
        assert ran == 2
        for (want, want_grads), (got, got_grads) in zip(serial, threaded):
            assert got.per_sample.tobytes() == want.per_sample.tobytes()
            for name, grad in want_grads.as_dict().items():
                assert got_grads.as_dict()[name].tobytes() == grad.tobytes()


SIDE_EFFECTS = """
import ctypes, json, threading
import numpy as np

def blas_threads():
    np.ones(2) @ np.ones(2)
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh
                 if "openblas" in line.lower() and "numpy" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None

before = (threading.active_count(), blas_threads())
import polyview
from polyview import losses
after_import = (threading.active_count(), blas_threads())
losses._ROW_BLOCK = 4
raw = np.random.default_rng(0).normal(size=(4, 3, 2))
batch = losses.EmbeddingBatch(z=losses.l2_normalize(raw))
losses.compute_loss(losses.Method.GEOMETRIC_PVC, batch, 0.5)
print(json.dumps({"before": before, "after_import": after_import,
                  "width": losses._pool[0], "after_call": blas_threads()}))
"""


def test_import_starts_no_thread_and_pool_takes_blas_width():
    proc = fresh_python("-c", SIDE_EFFECTS, OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["after_import"] == seen["before"]
    blas = seen["before"][1]
    assert seen["width"] == (blas or 1)
    if blas is not None:
        assert seen["after_call"] == 1


FORKED_CHILD = """
import os, sys, time
import numpy as np
from polyview import harness, losses, streams, tinynn

losses._ROW_BLOCK = 4
raw = np.random.default_rng(0).normal(size=(4, 3, 2))
batch = losses.EmbeddingBatch(z=losses.l2_normalize(raw))
spec = harness.RunSpec(method=losses.Method.GEOMETRIC_PVC, m=3, k=4, eval_batches=6)
params = tinynn.init_params(streams.stream(0, streams.INIT))

def outputs():
    return (losses.compute_loss(losses.Method.GEOMETRIC_PVC, batch, 0.5).total,
            harness._eval_row(spec, params, 0, None))

want = outputs()
pid = os.fork()
if pid == 0:
    os._exit(0 if outputs() == want else 1)
deadline = time.monotonic() + 20
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, 9)
os.waitpid(pid, 0)
sys.exit(3)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_runs_multi_tile_calls():
    # Exit 3: the child hung on its parent's pool, whose threads it lacks.
    proc = fresh_python("-c", FORKED_CHILD, OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr


NESTED_CALLS = """
from concurrent.futures import ThreadPoolExecutor
from polyview import harness, losses, streams, tinynn

# Every thread of a width-2 pool runs a batch task whose kernel calls have
# six view tiles each, with two more tasks queued behind them.
losses._ROW_BLOCK = 4
losses._pool = (2, ThreadPoolExecutor(2))
spec = harness.RunSpec(method=losses.Method.GEOMETRIC_PVC, m=3, k=4, eval_batches=8)
params = tinynn.init_params(streams.stream(0, streams.INIT))
print(harness._eval_row(spec, params, 0, None).eval_loss)
"""


def test_kernel_calls_inside_batch_tasks_cannot_deadlock():
    # A task whose kernel call queued its tiles on the task's own pool would
    # wait for threads that all wait the same way.
    proc = fresh_python("-c", NESTED_CALLS, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert math.isfinite(float(proc.stdout))


ONE_ARENA = """
import ctypes, json, os, tempfile
from polyview import harness, losses, streams, tinynn

spec = harness.RunSpec(method=losses.Method.GEOMETRIC_PVC, m=3, k=64, eval_batches=8)
params = tinynn.init_params(streams.stream(0, streams.INIT))
harness._eval_row(spec, params, 0, None)
libc = ctypes.CDLL(None)
heaps = None
if hasattr(libc, "malloc_info"):
    libc.fopen.argtypes, libc.fopen.restype = [ctypes.c_char_p, ctypes.c_char_p], ctypes.c_void_p
    libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
    libc.fclose.argtypes = [ctypes.c_void_p]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "malloc.xml")
        stream = libc.fopen(path.encode(), b"w")
        libc.malloc_info(0, stream)
        libc.fclose(stream)
        with open(path) as fh:
            heaps = fh.read().count("<heap nr=")
print(json.dumps({"width": losses._pool[0], "heaps": heaps}))
"""


def test_pool_threads_allocate_from_one_malloc_arena():
    # Batch tasks draw, encode and score on pool threads; with an arena per
    # thread, each would keep a heap of its own beside the main one.
    proc = fresh_python("-c", ONE_ARENA, OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    if seen["heaps"] is None or seen["width"] == 1:
        pytest.skip("no glibc malloc_info, or no tile pool")
    assert seen["heaps"] == 1


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------


@given(
    k=st.integers(2, 5),
    m=st.integers(2, 4),
    # d >= 2: at d=1 embeddings are +-1 and antipodal rest sets (a designed
    # error case, tested separately) arise with high probability.
    d=st.integers(2, 6),
    case=st.integers(0, 100),
)
@settings(deadline=None, max_examples=40)
def test_losses_positive_and_ordered(k, m, d, case):
    batch = random_embedding_batch(k, m, d, case=case)
    a = compute_loss(Method.ARITHMETIC_PVC, batch, TAU)
    g = compute_loss(Method.GEOMETRIC_PVC, batch, TAU)
    s = compute_loss(Method.SUFFSTATS, batch, TAU)
    p = compute_loss(Method.MULTICROP, batch, TAU)
    assert a.total <= g.total + 1e-12
    for res in (a, g, s, p):
        assert np.all(res.per_sample > 0.0)
