"""Tests for the hand-rolled encoder, its analytic gradients, and AdamW.

The gradient ground truth is central finite differences through the full
pipeline (encoder, normalization, loss). The forward pass is additionally
pinned by a hand-worked micro-network: weights chosen so only two hidden
units are active, making the algebra short enough to do on paper.
"""

from __future__ import annotations

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import at_width, unit_rows
from polyview import losses, streams, tinynn
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
    init_params,
    loss_and_grads,
    max_relative_grad_error,
)

PARAM_NAMES = ("w1", "b1", "w2", "b2")

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


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of exact GeLU: Phi(x) + x * phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    phi = tinynn._INV_SQRT2PI * np.exp(-0.5 * x * x)
    return 0.5 * (1.0 + tinynn._erf(x * tinynn._INV_SQRT2)) + x * phi


def loop_finite_difference_grads(params, views, method, tau, h=1e-6, set_losses=None):
    """The per-entry loop that the batched oracle replaced: one
    compute_loss(forward(...)) per perturbed parameter set. If set_losses is
    a list, each set's loss is appended to it in the batched oracle's set
    order: +h then -h for each flat entry of w1, b1, w2, b2 in turn."""

    def loss_at(p: MlpParams) -> float:
        return compute_loss(method, forward(p, views), tau).total

    # Contiguous copies so the in-place perturbations below are views.
    work = MlpParams(**{name: getattr(params, name).copy() for name in PARAM_NAMES})
    out = {}
    for name in PARAM_NAMES:
        base = getattr(work, name)
        grad = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_at(work)
            flat[idx] = orig - h
            down = loss_at(work)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
            if set_losses is not None:
                set_losses += [up, down]
        out[name] = grad
    return MlpParams(**out)


def collapsed_params() -> MlpParams:
    """w1 = 0: every view maps to the same embedding."""
    base = init_params(rng_for(8))
    return MlpParams(w1=np.zeros((D_HIDDEN, D_IN)), b1=base.b1, w2=base.w2, b2=base.b2)


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

    def test_one_erf_gives_both_bitwise(self):
        # Both sides of |x| = 1, where erf changes branch, and beyond six; a
        # 0-d array, a strided view and an odd length.
        x = np.concatenate([rng_for(35).normal(0.0, 3.0, 50_001), [0.0, -0.0, 1.0, -7.5]])
        for arg in (x, x[::3], np.array(x[7]), x.reshape(5, -1)[:, 1::2]):
            da = rng_for(38).normal(size=arg.shape)
            for dx, want in ((np.ones(arg.shape), gelu_grad(arg)),
                             (da.copy(), da * gelu_grad(arg))):
                value = gelu(arg, dx)
                assert np.array_equal(bits(value), bits(gelu(arg)))
                assert value.shape == arg.shape
                assert np.array_equal(bits(dx), bits(want))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_chunked_first_layer_keeps_the_bits(self, stacked):
        # Without a set axis, 3,000 rows: two whole chunks of 1,024 rows and
        # a ragged one. With an oracle pass's 128 sets, K * M = 1,000 rows
        # in chunks of 8.
        params = init_params(rng_for(36))
        w1, b1 = params.w1, params.b1
        k, sets = (250, 128) if stacked else (1000, 1)
        if stacked:
            w1 = w1[None] + np.linspace(0.0, 3.0, sets)[:, None, None]
            b1 = b1[None, None] - np.linspace(0.0, 3.0, sets)[:, None, None]
        x = random_views(k, 4 if stacked else 3, case=16).reshape(-1, D_IN)
        chunk = tinynn._ERF_BLOCK // (sets * D_HIDDEN)
        assert chunk == (8 if stacked else 1024) and x.shape[0] > chunk
        h1 = tinynn._hidden(x, w1, b1)
        # One unchunked pass over all rows, set by set.
        want = np.stack([gelu(h) for h in h1.reshape(-1, *h1.shape[-2:])]).reshape(h1.shape)
        assert np.array_equal(bits(tinynn._first_layer(x, w1, b1)), bits(want))
        if stacked:
            return
        da1 = rng_for(37).normal(size=h1.shape)
        dh1 = da1.copy()
        a1 = tinynn._first_layer(x, w1, b1, dh1)
        assert np.array_equal(bits(a1), bits(want))
        assert np.array_equal(bits(dh1), bits(da1 * gelu_grad(h1)))


def bits(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


def scipy_erf(x: np.ndarray) -> np.ndarray:
    """scipy.special.erf, the reference; the test skips without scipy, which
    only the test extra installs."""
    return pytest.importorskip("scipy.special").erf(x)


class TestErf:
    """tinynn._erf runs cephes's algorithm, which scipy.special.erf runs;
    only its exp, taken from numpy for |x| > 1, may round otherwise."""

    def test_bit_equal_to_scipy_on_the_unit_interval(self):
        edges = np.array([1.0, np.nextafter(1.0, 0.0), 5e-324, 1e-300, 1e-8, 0.5])
        for x in (np.linspace(-1.0, 1.0, 200_001), rng_for(30).uniform(-1.0, 1.0, 100_000),
                  np.concatenate([edges, -edges])):
            assert np.array_equal(bits(tinynn._erf(x)), bits(scipy_erf(x)))

    def test_within_one_ulp_up_to_six(self):
        x = np.concatenate([np.linspace(np.nextafter(1.0, 2.0), 6.0, 100_001),
                            rng_for(31).uniform(1.0, 6.0, 100_000)])
        for signed in (x, -x):
            got, want = tinynn._erf(signed), scipy_erf(signed)
            assert np.all(np.sign(got) == np.sign(signed))
            assert np.abs(bits(got) - bits(want)).max() <= 1

    def test_one_beyond_six(self):
        x = np.concatenate([np.nextafter(6.0, 7.0) + rng_for(32).exponential(10.0, 10_000),
                            [8.0, 30.0, 1e300, np.finfo(float).max]])
        for signed in (x, -x):
            assert np.array_equal(tinynn._erf(signed), np.sign(signed))
        for signed in (x, -x):
            assert np.array_equal(scipy_erf(signed), np.sign(signed))

    def test_special_values(self):
        got = tinynn._erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert np.array_equal(bits(got[:4]), bits([0.0, -0.0, 1.0, -1.0]))
        assert np.isnan(got[4])

    def test_odd_bitwise(self):
        x = np.concatenate([rng_for(33).normal(0.0, 3.0, 100_000), [1.0, 6.0, 7.0, np.inf]])
        assert np.array_equal(bits(tinynn._erf(-x)), bits(-tinynn._erf(x)))

    def test_any_shape_and_layout(self):
        # Elementwise: a strided view, a 0-d array and a scalar give the
        # bits of the same values in one contiguous row.
        x = rng_for(34).normal(0.0, 2.0, (40, 30))
        flat = tinynn._erf(x.reshape(-1)).reshape(x.shape)
        assert np.array_equal(bits(tinynn._erf(x.T)), bits(flat.T))
        assert np.array_equal(bits(tinynn._erf(x[::3, 1::2])), bits(flat[::3, 1::2]))
        assert tinynn._erf(np.array(x[2, 3])).shape == ()
        assert bits(tinynn._erf(float(x[2, 3]))) == bits(flat[2, 3])


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
        params = collapsed_params()
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

    @pytest.mark.parametrize("row_block", [16, 1024])
    @pytest.mark.parametrize("tau", [0.5, 1e-3])
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_step_loss_equals_compute_loss_bitwise(self, monkeypatch, method, tau, row_block):
        # K = 16: one view per tile, or the whole batch in one tile.
        monkeypatch.setattr(losses, "_ROW_BLOCK", row_block)
        m = 2 if method is Method.INFONCE else 4
        params = init_params(rng_for(11))
        views = random_views(16, m, case=7)
        result, _ = loss_and_grads(params, views, method, tau)
        assert result.total == compute_loss(method, forward(params, views), tau).total


    @pytest.mark.parametrize("method, call, m, width, limit", [
        pytest.param(method, "step", 2 if method is Method.INFONCE else 4, 1,
                     5.5 if method is Method.INFONCE else 8.0, id=f"{method.value}-step-width1")
        for method in ALL_METHODS] + [
        pytest.param(method, call, 10, width, limit, id=f"{method.value}-{call}-m10-width{width}")
        for method in ALL_METHODS if method is not Method.INFONCE
        for call, width, limit in (("step", 2, 18.0), ("loss", 2, 10.0), ("step", 1, 17.0))])
    def test_peak_memory_of_one_step(self, monkeypatch, method, call, m, width, limit):
        # tracemalloc sees numpy's buffers. At K = 1024 with 128-row blocks,
        # pass 2 as one weighted tile and each tile folding only the rows it
        # scores, steps at width 1 peaked at 5.0-6.7 MiB at M = 4 (3.5 for
        # infonce at M = 2) and 10.2-12.9 MiB at M = 10, M = 10 steps at
        # width 2 at 11.0-16.0 MiB (suffstats' pass 2 the highest), and
        # width-2 loss-only calls at 6.0-8.5 MiB. With whole-call folded
        # copies in pass 1 they peaked at 5.2-6.9 (3.7), 12.3-14.9,
        # 12.3-16.4 and 10.7-13.1 MiB. With 2d-wide pass-2 operands and a1
        # held through the kernel, steps peaked at 8.3-8.5 MiB (5.8 for
        # infonce at M = 2), 18.4 and 19.1-19.8 MiB; with whole K x K tiles
        # at 14.2-15.2 (11.7), 30.8-33.4 and 24.5-27.1 MiB.
        params = init_params(rng_for(25))
        views = random_views(1024, m, case=15)
        if call == "step":
            compute = lambda: loss_and_grads(params, views, method, 0.5)
        else:
            z = forward(params, views)
            compute = lambda: compute_loss(method, z, 0.5)

        def peak():
            compute()  # fills the plan cache
            tracemalloc.start()
            try:
                compute()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        losses._tile_pool()  # OpenBLAS runs one thread beside the pool, as in a run
        got, _ = at_width(monkeypatch, width, peak)
        assert got < limit * 2**20, f"{got / 2**20:.2f} MiB"


def set_losses_case(method: Method) -> tuple[MlpParams, np.ndarray]:
    """The parameters and views of TestBatchedOracle's set-loss comparison."""
    return init_params(rng_for(18)), random_views(4, 2 if method is Method.INFONCE else 3, case=8)


@functools.lru_cache(maxsize=None)
def loop_set_losses(method: Method, tau: float) -> np.ndarray:
    """The loop oracle's 2,240 set losses on set_losses_case(method), read-only.
    Its bits are the same at 8, 128 and 1024 rows a block (every method, tau
    0.5 and 1e-3), so it runs once per (method, tau), at the default."""
    want = []
    loop_finite_difference_grads(*set_losses_case(method), method, tau, set_losses=want)
    want = np.array(want)
    want.flags.writeable = False
    return want


class TestBatchedOracle:
    """finite_difference_grads scores its perturbed parameter sets in chunks
    on a leading set axis; the per-entry loop above is its reference."""

    @pytest.mark.parametrize("row_block, chunk", [(1024, tinynn._FD_CHUNK), (8, 96)])
    @pytest.mark.parametrize("tau", [0.5, 1e-3])
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_set_losses_equal_compute_loss(self, monkeypatch, method, tau, row_block, chunk):
        # K = 4: one tile, or tiles of two views with a mirrored, ragged one
        # at M = 3. 96 sets per chunk do not divide the 2,240 sets, and one
        # chunk holds both first- and second-layer perturbations.
        want = loop_set_losses(method, tau)  # before the tile sizes are patched
        monkeypatch.setattr(losses, "_ROW_BLOCK", row_block)
        monkeypatch.setattr(tinynn, "_FD_CHUNK", chunk)
        params, views = set_losses_case(method)
        got = tinynn._perturbed_losses(params.as_dict(), views, method, tau, 1e-6)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("tau", [0.5, 1e-3])
    @pytest.mark.parametrize("method, shape", [
        pytest.param(method, shape, id=f"{method.value}-{shape[0]}x{shape[1]}")
        for shape in ((2, 2), (4, 3)) for method in ALL_METHODS
        if method is not Method.INFONCE or shape[1] == 2])
    def test_set_losses_do_not_depend_on_pass_width(self, monkeypatch, method, shape, tau):
        # At 8 rows a block a K = 4 kernel call has tiles of two views, one
        # of them ragged at M = 3. The tiles run in order on this thread, as a
        # small batch's single tile does: the pool's bits are tested in
        # test_losses.py, and 2,240 one-set passes through it take twice as long.
        monkeypatch.setattr(losses, "_ROW_BLOCK", 8)
        params = init_params(rng_for(23))
        views = random_views(*shape, case=13)
        got = {}
        for chunk in (1, 32, tinynn._FD_CHUNK):
            monkeypatch.setattr(tinynn, "_FD_CHUNK", chunk)
            got[chunk] = at_width(monkeypatch, 1, lambda: tinynn._perturbed_losses(
                params.as_dict(), views, method, tau, 1e-6))[0]
        for chunk, set_losses in got.items():
            assert np.array_equal(set_losses, got[1]), chunk

    @pytest.mark.parametrize("h", [1e-6, 0.25])
    def test_perturbed_stacks_only_what_a_pass_moves(self, h):
        # A tensor that some set of a pass moves comes back as one perturbed
        # copy per set on a leading axis (a bias as (S, 1, n)); any other is
        # base's own array, so a pass that moves neither w1 nor b1 shares a1.
        base = init_params(rng_for(25)).as_dict()
        offsets = np.cumsum([0] + [base[name].size for name in PARAM_NAMES])
        sets = np.arange(2 * offsets[-1])
        entry, step = sets // 2, np.where(sets % 2 == 0, h, -h)
        # w1 and b1; b1 and w2; w2 alone; w2 and b2.
        for lo, hi in ((0, 128), (120, 136), (128, 256), (2170, 2240)):
            got = tinynn._perturbed(base, offsets, entry[lo:hi], step[lo:hi])
            for name, first, last in zip(PARAM_NAMES, offsets[:-1], offsets[1:]):
                moved = (entry[lo:hi] >= first) & (entry[lo:hi] < last)
                if not moved.any():
                    assert got[name] is base[name], (lo, name)
                    continue
                want = np.repeat(base[name][None], hi - lo, axis=0)
                for s in np.flatnonzero(moved):
                    want[s].reshape(-1)[entry[lo + s] - first] += step[lo + s]
                want = want.reshape(hi - lo, -1, base[name].shape[-1])
                assert np.array_equal(bits(got[name]), bits(want)), (lo, name)

    @pytest.mark.parametrize("h", [0.0, -1e-6, float("nan"), float("inf")])
    def test_step_must_be_positive_and_finite(self, monkeypatch, h):
        # Refused before the oracle evaluates anything.
        def no_evaluation(*args):
            raise AssertionError("evaluated before checking h")

        monkeypatch.setattr(tinynn, "_perturbed_losses", no_evaluation)
        with pytest.raises(ValueError, match=r"^h must be positive and finite, got"):
            finite_difference_grads(init_params(rng_for(21)), random_views(3, 2, case=11),
                                    Method.MULTICROP, 0.5, h=h)

    def test_peak_memory_of_one_call(self):
        # tracemalloc sees numpy's buffers. This call peaked at 2.18 MiB with
        # 128 sets per pass, and at 3.76 MiB when each pass still held its
        # weight stacks and z through the kernel and the forward pass and the
        # rest-set mean had no in-place steps.
        params = init_params(rng_for(24))
        views = random_views(3, 4, case=14)
        finite_difference_grads(params, views, Method.SUFFSTATS, 0.5)  # fills the plan cache
        tracemalloc.start()
        try:
            finite_difference_grads(params, views, Method.SUFFSTATS, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20, f"{peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("case", ["batch_4x3", "collapsed", "small_tau"])
    def test_matches_loop_oracle(self, case):
        params, views, method, tau = {
            "batch_4x3": (init_params(rng_for(19)), random_views(4, 3, case=9),
                          Method.SUFFSTATS, 0.5),
            "collapsed": (collapsed_params(), random_views(3, 2, case=4),
                          Method.GEOMETRIC_PVC, 0.5),
            "small_tau": (init_params(rng_for(20)), random_views(4, 3, case=10),
                          Method.ARITHMETIC_PVC, 1e-3),
        }[case]
        want = loop_finite_difference_grads(params, views, method, tau)
        got = finite_difference_grads(params, views, method, tau)
        for name in PARAM_NAMES:
            g, w = getattr(got, name), getattr(want, name)
            assert np.all(np.abs(g - w) <= 1e-8 * np.maximum(1.0, np.abs(w))), name

    def test_leaves_params_unmodified(self):
        params = init_params(rng_for(21))
        before = {name: getattr(params, name).copy() for name in PARAM_NAMES}
        finite_difference_grads(params, random_views(3, 3, case=11), Method.MULTICROP, 0.5)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(params, name), before[name])

    def test_scores_only_the_perturbed_sets(self, monkeypatch):
        # No unperturbed evaluation: the oracle calls neither name, and its
        # bits are those of an unpatched call.
        params = init_params(rng_for(26))
        views = random_views(4, 3, case=15)
        want = finite_difference_grads(params, views, Method.SUFFSTATS, 0.5)

        def refuse(*args):
            raise AssertionError("the oracle evaluated an unperturbed set")

        monkeypatch.setattr(tinynn, "forward", refuse)
        monkeypatch.setattr(tinynn, "compute_loss", refuse)
        got = finite_difference_grads(params, views, Method.SUFFSTATS, 0.5)
        for name in PARAM_NAMES:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_first_pass_refuses_as_the_loop_does(self):
        # The first pass refuses, with the loop's message, what the loop's
        # first evaluation refuses: views of one sample, and through the
        # gate, an unknown method, infonce at M = 3 and a bad tau.
        params = init_params(rng_for(27))
        for views, method, tau, message in (
                (random_views(1, 3, case=16), Method.GEOMETRIC_PVC, 0.5,
                 "views must be (K, M) with K, M >= 2, got shape (1, 3)"),
                (random_views(3, 2, case=16), "geometric", 0.5, "unknown method: 'geometric'"),
                (random_views(3, 3, case=16), Method.INFONCE, 0.5,
                 "infonce requires M = 2, got M = 3"),
                (random_views(3, 2, case=16), Method.MULTICROP, 1e-310,
                 "temperature tau must be a finite real")):
            for oracle in (loop_finite_difference_grads, finite_difference_grads):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                    oracle(params, views, method, tau)

    def test_same_errors_as_loop(self):
        params = init_params(rng_for(22))
        views = random_views(3, 2, case=12)
        views[1, 0] = float("nan")
        # b1 = 0 and b2 = 0 with w1 = 0: every unperturbed hidden unit and
        # output is exactly zero.
        dead = MlpParams(w1=np.zeros((D_HIDDEN, D_IN)), b1=np.zeros(D_HIDDEN),
                         w2=params.w2, b2=np.zeros(D_OUT))
        for p, v, text in ((params, views, "non-finite"),
                           (dead, random_views(3, 2, case=12), "zero pre-normalization")):
            messages = []
            for oracle in (loop_finite_difference_grads, finite_difference_grads):
                with pytest.raises(ValueError, match=text) as excinfo:
                    oracle(p, v, Method.MULTICROP, 0.5)
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1]


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

    @pytest.mark.parametrize("kw, message", [
        (dict(epochs=2.0), "epochs must be int, got 2.0"),
        (dict(epochs=True), "epochs must be int, got True"),
        (dict(learning_rate=True), "learning_rate must be float, got True"),
        (dict(beta1=False), "beta1 must be float, got False"),
    ], ids=["epochs-float", "epochs-bool", "learning_rate-bool", "beta1-bool"])
    def test_config_number_types(self, kw, message):
        # A bool is no number here, and an int field takes integers only.
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**kw)
        assert TrainConfig(epochs=np.int64(3), fixed_dataset=True).epochs == 3

    def test_state_validation(self):
        bad_v = MlpParams.zeros()
        object.__setattr__(bad_v, "w1", np.full((D_HIDDEN, D_IN), -1.0))
        with pytest.raises(ValueError):
            AdamWState(m=MlpParams.zeros(), v=bad_v, step=0)
        with pytest.raises(ValueError):
            AdamWState(m=MlpParams.zeros(), v=MlpParams.zeros(), step=-1)
