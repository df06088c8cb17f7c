"""Tests for the hand-rolled encoder, its analytic gradients, and AdamW.

The gradient ground truth is central finite differences through the full
pipeline (encoder, normalization, loss). The forward pass is additionally
pinned by a hand-worked micro-network: weights chosen so only two hidden
units are active, making the algebra short enough to do on paper.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import unit_rows
from polyview import losses, streams
from polyview.losses import Method, compute_loss
from polyview.tinynn import (
    D_HIDDEN,
    D_IN,
    D_OUT,
    AdamWState,
    MlpParams,
    TrainConfig,
    adamw_step,
    finite_difference_grads,
    forward,
    gelu,
    gelu_grad,
    init_params,
    loss_and_grads,
    max_relative_grad_error,
)

ALL_METHODS = [
    Method.INFONCE,
    Method.MULTICROP,
    Method.ARITHMETIC_PVC,
    Method.GEOMETRIC_PVC,
    Method.SUFFSTATS,
]


def rng_for(case: int) -> np.random.Generator:
    return streams.stream(21, streams.TEST, a=case)


def random_views(k: int, m: int, case: int) -> np.ndarray:
    return rng_for(1000 + case).normal(0.0, 1.0, size=(k, m))


class TestGelu:
    def test_zero(self):
        assert gelu(np.array(0.0)) == 0.0

    def test_saturation(self):
        assert gelu(np.array(10.0)) == pytest.approx(10.0, abs=1e-9)
        assert gelu(np.array(-10.0)) == pytest.approx(0.0, abs=1e-9)

    def test_known_point(self):
        # gelu(1) = 0.5*(1 + erf(1/sqrt(2))) by definition.
        assert gelu(np.array(1.0)) == pytest.approx(
            0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))), abs=1e-15
        )

    def test_grad_matches_central_difference(self):
        xs = np.linspace(-4.0, 4.0, 41)
        h = 1e-6
        numeric = (gelu(xs + h) - gelu(xs - h)) / (2.0 * h)
        analytic = gelu_grad(xs)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        assert float(rel.max()) < 1e-7


class TestInit:
    def test_deterministic(self):
        a = init_params(rng_for(0))
        b = init_params(rng_for(0))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_two_seeds_differ(self):
        a = init_params(rng_for(0))
        b = init_params(rng_for(1))
        assert not np.array_equal(a.w1, b.w1)

    def test_fan_in_bounds(self):
        p = init_params(rng_for(2))
        assert np.abs(p.w1).max() <= 1.0 / math.sqrt(D_IN)
        assert np.abs(p.b1).max() <= 1.0 / math.sqrt(D_IN)
        assert np.abs(p.w2).max() <= 1.0 / math.sqrt(D_HIDDEN)
        assert np.abs(p.b2).max() <= 1.0 / math.sqrt(D_HIDDEN)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MlpParams(
                w1=np.zeros((D_HIDDEN, 2)),
                b1=np.zeros(D_HIDDEN),
                w2=np.zeros((D_OUT, D_HIDDEN)),
                b2=np.zeros(D_OUT),
            )
        bad = np.zeros((D_HIDDEN, D_IN))
        bad[0, 0] = float("inf")
        with pytest.raises(ValueError):
            MlpParams(w1=bad, b1=np.zeros(D_HIDDEN),
                      w2=np.zeros((D_OUT, D_HIDDEN)), b2=np.zeros(D_OUT))


class TestForward:
    def test_input_independent_head(self):
        # Zero w2 and nonzero b2: every embedding is l2_normalize(b2).
        b2 = rng_for(3).normal(size=D_OUT)
        params = MlpParams(
            w1=init_params(rng_for(3)).w1,
            b1=np.zeros(D_HIDDEN),
            w2=np.zeros((D_OUT, D_HIDDEN)),
            b2=b2,
        )
        batch = forward(params, random_views(3, 2, case=0))
        expected = b2 / np.linalg.norm(b2)
        for i in range(3):
            for a in range(2):
                np.testing.assert_allclose(batch.z[i, a], expected, atol=1e-15)

    def test_identical_inputs_identical_embeddings(self):
        params = init_params(rng_for(4))
        views = np.full((4, 3), 0.37)
        batch = forward(params, views)
        np.testing.assert_array_equal(batch.z, np.broadcast_to(batch.z[0, 0], batch.z.shape))

    def test_forward_determinism_bitwise(self):
        params = init_params(rng_for(5))
        views = random_views(4, 3, case=1)
        a = forward(params, views).z
        b = forward(params, views).z
        np.testing.assert_array_equal(a, b)

    def test_hand_worked_micro_network(self):
        # Only hidden units 0 and 1 are active: h1 = (x, -x, 0, ...),
        # h2 = (gelu(x), gelu(-x), 0, ...), then z = h2/|h2|. For x=1:
        #   gelu(1)  = 0.5*(1 + erf(1/sqrt 2))  =  0.8413447460685429
        #   gelu(-1) = -0.5*(1 - erf(1/sqrt 2)) = -0.15865525393145707
        w1 = np.zeros((D_HIDDEN, D_IN))
        w1[0, 0] = 1.0
        w1[1, 0] = -1.0
        w2 = np.zeros((D_OUT, D_HIDDEN))
        w2[0, 0] = 1.0
        w2[1, 1] = 1.0
        params = MlpParams(w1=w1, b1=np.zeros(D_HIDDEN), w2=w2, b2=np.zeros(D_OUT))

        views = np.array([[1.0, 2.0], [-1.0, 0.5]])
        batch = forward(params, views)

        def manual(x: float) -> np.ndarray:
            phi = math.erf(x / math.sqrt(2.0))
            g_pos = 0.5 * x * (1.0 + phi)
            g_neg = 0.5 * (-x) * (1.0 - phi)
            vec = np.zeros(D_OUT)
            vec[0] = g_pos
            vec[1] = g_neg
            return vec / math.hypot(g_pos, g_neg)

        for i in range(2):
            for a in range(2):
                np.testing.assert_allclose(
                    batch.z[i, a], manual(views[i, a]), atol=1e-12
                )
        # Frozen decimals for x = 1.
        np.testing.assert_allclose(
            batch.z[0, 0, :2], [0.9826805958097052, -0.185307438110516], atol=1e-12
        )

    def test_zero_prenorm_vector_rejected(self):
        params = MlpParams.zeros()
        with pytest.raises(ValueError):
            forward(params, random_views(2, 2, case=2))

    def test_bad_views_rejected(self):
        params = init_params(rng_for(6))
        with pytest.raises(ValueError):
            forward(params, np.zeros(4))
        views = np.zeros((2, 2))
        views[0, 0] = float("nan")
        with pytest.raises(ValueError):
            forward(params, views)


class TestGradients:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_all_methods_match_finite_differences(self, method):
        m = 2 if method is Method.INFONCE else 3
        params = init_params(rng_for(7))
        views = random_views(4, m, case=3)
        analytic = loss_and_grads(params, views, method, 0.5)[1]
        numeric = finite_difference_grads(params, views, method, 0.5)
        err = max_relative_grad_error(analytic, numeric)
        assert err < 1e-5, f"{method}: {err:.3e}"

    def test_collapsed_embeddings_are_a_valid_check_point(self):
        # Constant encoder output: w1 = 0 so every view maps to the same
        # embedding. The loss sits at its collapse value; gradients there
        # must still match finite differences.
        base = init_params(rng_for(8))
        params = MlpParams(
            w1=np.zeros((D_HIDDEN, D_IN)), b1=base.b1, w2=base.w2, b2=base.b2
        )
        views = random_views(3, 2, case=4)
        for method in (Method.GEOMETRIC_PVC, Method.MULTICROP):
            analytic = loss_and_grads(params, views, method, 0.5)[1]
            numeric = finite_difference_grads(params, views, method, 0.5)
            assert max_relative_grad_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("tau", [0.3, 0.7])
    def test_temperature_consistency(self, tau):
        params = init_params(rng_for(9))
        views = random_views(3, 3, case=5)
        analytic = loss_and_grads(params, views, Method.ARITHMETIC_PVC, tau)[1]
        numeric = finite_difference_grads(params, views, Method.ARITHMETIC_PVC, tau)
        assert max_relative_grad_error(analytic, numeric) < 1e-5

    def test_loss_and_grads_returns_matching_loss(self):
        params = init_params(rng_for(10))
        views = random_views(4, 2, case=6)
        result, _ = loss_and_grads(params, views, Method.MULTICROP, 0.5)
        direct = compute_loss(Method.MULTICROP, forward(params, views), 0.5)
        assert result.total == pytest.approx(direct.total, abs=1e-15)

    @pytest.mark.parametrize("tile_rows", [16, 1024])
    @pytest.mark.parametrize("tau", [0.5, 1e-3])
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_step_loss_equals_compute_loss_bitwise(self, monkeypatch, method, tau, tile_rows):
        # K = 16: one view per tile, or the whole batch in one tile.
        monkeypatch.setattr(losses, "_TILE_ROWS", tile_rows)
        m = 2 if method is Method.INFONCE else 4
        params = init_params(rng_for(11))
        views = random_views(16, m, case=7)
        result, _ = loss_and_grads(params, views, method, tau)
        assert result.total == compute_loss(method, forward(params, views), tau).total


class TestAdamW:
    def cfg(self, **kw) -> TrainConfig:
        base = dict(learning_rate=5e-4, weight_decay=5e-3)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_gradient_pure_decay(self):
        params = init_params(rng_for(11))
        cfg = self.cfg()
        new_p, new_s = adamw_step(params, MlpParams.zeros(), AdamWState.initial(), cfg)
        shrink = 1.0 - cfg.learning_rate * cfg.weight_decay
        np.testing.assert_allclose(new_p.w1, params.w1 * shrink, rtol=1e-15)
        np.testing.assert_allclose(new_p.w2, params.w2 * shrink, rtol=1e-15)
        # Biases are not decayed.
        np.testing.assert_array_equal(new_p.b1, params.b1)
        np.testing.assert_array_equal(new_p.b2, params.b2)
        assert new_s.step == 1

    def test_single_step_hand_algebra(self):
        # From zero state with wd=0: mhat = g, vhat = g^2, so the update is
        # exactly -lr * g / (|g| + eps) elementwise.
        params = init_params(rng_for(12))
        grads = init_params(rng_for(13))
        cfg = self.cfg(weight_decay=0.0)
        new_p, _ = adamw_step(params, grads, AdamWState.initial(), cfg)
        for name in ("w1", "b1", "w2", "b2"):
            p = getattr(params, name)
            g = getattr(grads, name)
            want = p - cfg.learning_rate * g / (np.abs(g) + cfg.epsilon)
            np.testing.assert_allclose(getattr(new_p, name), want, atol=1e-15)

    def test_constant_gradient_unit_step_limit(self):
        # With a constant gradient and wd=0, Adam's step size tends to lr.
        params = MlpParams.zeros()
        grads = init_params(rng_for(14))
        cfg = self.cfg(weight_decay=0.0)
        state = AdamWState.initial()
        prev = params
        for _ in range(500):
            prev = params
            params, state = adamw_step(params, grads, state, cfg)
        step = np.abs(params.w2 - prev.w2)
        mask = np.abs(grads.w2) > 1e-3  # entries with a well-defined sign
        assert np.all(step[mask] > 0.95 * cfg.learning_rate)
        assert np.all(step[mask] < 1.0001 * cfg.learning_rate)

    def test_moments_accumulate(self):
        grads = init_params(rng_for(15))
        cfg = self.cfg()
        _, state = adamw_step(init_params(rng_for(16)), grads, AdamWState.initial(), cfg)
        np.testing.assert_allclose(state.m.w1, (1 - cfg.beta1) * grads.w1, rtol=1e-15)
        np.testing.assert_allclose(state.v.w1, (1 - cfg.beta2) * grads.w1**2, rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        params = init_params(rng_for(17))
        grads = MlpParams.zeros()
        object.__setattr__(grads, "w1", np.zeros((D_HIDDEN, D_IN + 1)))
        with pytest.raises(ValueError):
            adamw_step(params, grads, AdamWState.initial(), self.cfg())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1e-3)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        TrainConfig(epochs=0)  # untrained-evaluation runs are legal

    def test_state_validation(self):
        bad_v = MlpParams.zeros()
        object.__setattr__(bad_v, "w1", np.full((D_HIDDEN, D_IN), -1.0))
        with pytest.raises(ValueError):
            AdamWState(m=MlpParams.zeros(), v=bad_v, step=0)
        with pytest.raises(ValueError):
            AdamWState(m=MlpParams.zeros(), v=MlpParams.zeros(), step=-1)
