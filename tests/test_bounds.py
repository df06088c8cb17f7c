"""Tests for the loss-to-MI-bound accounting and closed-form side quantities."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyview.bounds import (
    bound_from_loss,
    mi_gap,
    offset_c,
    optimal_multiplicity,
    variance_bound_factor,
)
from polyview.losses import Method

POLY_METHODS = (Method.ARITHMETIC_PVC, Method.GEOMETRIC_PVC, Method.SUFFSTATS)
PAIR_METHODS = (Method.INFONCE, Method.MULTICROP)


class TestOffset:
    def test_single_sample_is_zero(self):
        for m in (2, 3, 17):
            assert offset_c(1, m) == 0.0

    def test_frozen_values(self):
        assert offset_c(4, 2) == pytest.approx(math.log(7), abs=1e-15)
        assert offset_c(4, 2) == pytest.approx(1.945910, abs=1e-6)
        # 1024*8 - 8 + 1 = 8185; ln(8185) = 9.0100585 (to six figures).
        assert offset_c(1024, 8) == pytest.approx(math.log(8185), abs=1e-15)
        assert offset_c(1024, 8) == pytest.approx(9.010058, abs=1e-6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            offset_c(0, 2)
        with pytest.raises(ValueError):
            offset_c(4, 1)

    @given(k=st.integers(1, 10_000), m=st.integers(2, 128))
    def test_counts_candidates(self, k, m):
        # One positive plus all M views of the K-1 other samples.
        assert offset_c(k, m) == pytest.approx(math.log(1 + (k - 1) * m), abs=1e-12)


class TestBoundFromLoss:
    def test_collapse_gives_zero_bound(self):
        assert bound_from_loss(Method.GEOMETRIC_PVC, offset_c(16, 4), 16, 4) == 0.0
        assert bound_from_loss(Method.MULTICROP, math.log(16), 16, 4) == 0.0

    def test_offset_choice_per_method(self):
        loss = 1.25
        for method in POLY_METHODS:
            assert bound_from_loss(method, loss, 64, 4) == pytest.approx(
                math.log(64 * 4 - 4 + 1) - loss, abs=1e-15
            )
        for method in PAIR_METHODS:
            assert bound_from_loss(method, loss, 64, 4) == pytest.approx(
                math.log(64) - loss, abs=1e-15
            )

    @given(loss=st.floats(0.0, 50.0), k=st.integers(2, 4096), m=st.integers(2, 32))
    @settings(deadline=None)
    def test_nonnegative_loss_caps_bound(self, loss, k, m):
        for method in POLY_METHODS:
            assert bound_from_loss(method, loss, k, m) <= offset_c(k, m)
        for method in PAIR_METHODS:
            assert bound_from_loss(method, loss, k, m) <= math.log(k)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            bound_from_loss(Method.MULTICROP, 1.0, 0, 2)


class TestMiGap:
    def test_equal_inputs_give_zero(self):
        assert mi_gap(0.7, 0.7) == 0.0

    def test_collapsed_bound_gives_full_mi(self):
        assert mi_gap(0.51, 0.0) == 0.51

    def test_signed_never_clamped(self):
        assert mi_gap(0.5, 0.6) == pytest.approx(-0.1, abs=1e-15)


class TestVarianceFactor:
    def test_frozen_values(self):
        assert variance_bound_factor(2) == 1.0
        assert variance_bound_factor(3) == pytest.approx(5.0 / 9.0, abs=1e-15)
        assert variance_bound_factor(8) == pytest.approx(30.0 / 168.0, abs=1e-15)
        assert variance_bound_factor(8) == pytest.approx(0.178571, abs=1e-6)

    def test_strictly_decreasing_below_one(self):
        values = [variance_bound_factor(m) for m in range(2, 65)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values[1:])

    def test_precondition(self):
        with pytest.raises(ValueError):
            variance_bound_factor(1)


class TestOptimalMultiplicity:
    def test_frozen_values(self):
        assert optimal_multiplicity(4096, 0.5, "linear-1") == pytest.approx(
            math.sqrt(4097), abs=1e-12
        )
        assert optimal_multiplicity(4096, 0.5, "linear-1") == pytest.approx(64.0078, abs=1e-4)
        assert optimal_multiplicity(4096, 0.5, "linear-2") == pytest.approx(
            1.0 + math.sqrt(2048), abs=1e-12
        )
        assert optimal_multiplicity(4096, 0.5, "linear-2") == pytest.approx(46.2548, abs=1e-4)

    def test_perfect_likelihood_limits(self):
        p = 1.0 - 1e-12
        assert optimal_multiplicity(512, p, "linear-1") == pytest.approx(0.0, abs=1e-4)
        assert optimal_multiplicity(512, p, "linear-2") == pytest.approx(1.0, abs=1e-4)

    def test_bad_inputs(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                optimal_multiplicity(512, p, "linear-1")
        with pytest.raises(ValueError):
            optimal_multiplicity(1, 0.5, "linear-1")
        with pytest.raises(ValueError):
            optimal_multiplicity(512, 0.5, "cubic")

    @given(b=st.integers(2, 100_000), p=st.floats(1e-6, 1.0 - 1e-6))
    @settings(deadline=None)
    def test_harder_task_wants_more_views(self, b, p):
        # Lower converged likelihood -> larger optimal multiplicity.
        easier = optimal_multiplicity(b, min(p + 1e-6, 1.0 - 1e-9), "linear-2")
        harder = optimal_multiplicity(b, p, "linear-2")
        assert harder >= easier
