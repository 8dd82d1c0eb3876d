"""Tests for the per-symbol property evaluators and exact values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propest.properties import (
    PropertySpec,
    distance_to_uniformity,
    entropy,
    eval_fx,
    eval_fx_many,
    exact_value,
    kl_divergence,
    l1_distance,
    lipschitz,
    power_sum,
    support_coverage,
    support_size,
)


def _all_specs():
    q = np.full(8, 1.0 / 8)
    return [
        entropy(),
        support_size(10),
        support_coverage(100.0),
        power_sum(2.0),
        distance_to_uniformity(10),
        l1_distance(q),
        kl_divergence(q),
    ]


class TestEvalFx:
    def test_zero_maps_to_zero_everywhere(self):
        for spec in _all_specs():
            assert eval_fx(spec, 0, 0.0) == 0.0

    def test_entropy_quarter(self):
        assert eval_fx(entropy(), 0, 0.25) == pytest.approx(0.25 * math.log(4), rel=1e-12)

    def test_uniformity_offset_form(self):
        spec = distance_to_uniformity(10)
        assert eval_fx(spec, 3, 0.1) == pytest.approx(-0.1, abs=1e-15)

    def test_clamp_above_one(self):
        # count ratios can exceed 1; the evaluator uses the value at 1
        assert eval_fx(entropy(), 0, 2.0) == 0.0
        assert eval_fx(power_sum(2.0), 0, 1.7) == 1.0
        spec = support_coverage(5.0)
        assert eval_fx(spec, 0, 3.0) == eval_fx(spec, 0, 1.0)

    def test_support_size_indicator(self):
        spec = support_size(10)
        assert eval_fx(spec, 0, 1e-9) == pytest.approx(0.1)
        assert eval_fx(spec, 0, 0.0) == 0.0

    def test_kl_rejects_zero_reference(self):
        q = np.array([0.0, 1.0])
        spec = PropertySpec("kl_divergence", q=q)
        with pytest.raises(ValueError):
            eval_fx(spec, 0, 0.5)
        # fine when the unknown mass there is 0
        assert eval_fx(spec, 0, 0.0) == 0.0

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            eval_fx(entropy(), 0, -0.1)

    def test_many_matches_scalar(self):
        q = np.array([0.2, 0.3, 0.5])
        for spec in (entropy(), l1_distance(q), kl_divergence(q)):
            symbols = np.array([0, 1, 2])
            ps = np.array([0.1, 0.2, 0.7])
            many = eval_fx_many(spec, symbols, ps)
            scalars = [eval_fx(spec, int(x), float(p)) for x, p in zip(symbols, ps)]
            np.testing.assert_allclose(many, scalars, rtol=1e-14)


class TestExactValue:
    def test_uniform_entropy(self):
        p = np.full(4, 0.25)
        assert exact_value(entropy(), p) == pytest.approx(math.log(4), rel=1e-12)

    def test_uniform_distance_to_itself(self):
        p = np.full(4, 0.25)
        assert exact_value(distance_to_uniformity(4), p) == pytest.approx(0.0, abs=1e-12)

    def test_power_sum_uniform(self):
        p = np.full(10, 0.1)
        assert exact_value(power_sum(2.0), p) == pytest.approx(0.1, rel=1e-12)

    def test_l1_equals_direct_distance(self):
        rng = np.random.default_rng(7)
        q = rng.dirichlet(np.ones(12))
        p = rng.dirichlet(np.ones(12))
        spec = l1_distance(q)
        assert exact_value(spec, p) == pytest.approx(np.abs(p - q).sum(), rel=1e-12)

    def test_l1_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(11)
        q = rng.dirichlet(np.ones(6))
        spec = l1_distance(q)
        assert exact_value(spec, q) == pytest.approx(0.0, abs=1e-12)
        for _ in range(25):
            p = rng.dirichlet(np.ones(6))
            d = exact_value(spec, p)
            assert d >= -1e-12
            if not np.allclose(p, q):
                assert d > 0

    def test_dimension_mismatch(self):
        spec = l1_distance(np.full(4, 0.25))
        with pytest.raises(ValueError):
            exact_value(spec, np.full(5, 0.2))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            exact_value(entropy(), np.array([0.5, 0.6]))

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_kinds_permutation_invariant(self, k, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(k))
        perm = rng.permutation(k)
        for spec in (entropy(), support_size(k), support_coverage(50.0), power_sum(1.5),
                     distance_to_uniformity(k)):
            a = exact_value(spec, p)
            b = exact_value(spec, p[perm])
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    @given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_entropy_range(self, k, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(k))
        h = exact_value(entropy(), p)
        assert -1e-12 <= h <= math.log(k) + 1e-12


class TestLipschitz:
    def test_entropy_log_form(self):
        assert lipschitz(entropy(), math.exp(-3)) == pytest.approx(3.0, rel=1e-12)

    def test_l1_is_one(self):
        assert lipschitz(l1_distance(np.full(4, 0.25)), 0.5) == 1.0

    def test_kl_uniform_reference(self):
        spec = kl_divergence(np.full(10, 0.1))
        assert lipschitz(spec, 0.1) == pytest.approx(math.log(100), rel=1e-12)

    def test_support_size_capped(self):
        spec = support_size(100)
        assert lipschitz(spec, 1.0) == pytest.approx(0.01)
        assert lipschitz(spec, 1e-6) == 1.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            lipschitz(entropy(), 0.0)
        with pytest.raises(ValueError):
            lipschitz(entropy(), 1.5)


class TestSpecValidation:
    def test_report_offsets(self):
        assert entropy().report_offset == 0.0
        assert distance_to_uniformity(5).report_offset == 1.0
        assert l1_distance(np.full(4, 0.25)).report_offset == 1.0
        assert kl_divergence(np.full(4, 0.25)).report_offset == 0.0

    def test_power_sum_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            power_sum(1.0)

    def test_reference_must_be_normalized(self):
        with pytest.raises(ValueError):
            l1_distance(np.array([0.5, 0.6]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PropertySpec("renyi")

    def test_coverage_requires_positive_m(self):
        with pytest.raises(ValueError):
            support_coverage(0.0)

    @pytest.mark.parametrize(
        "make", [lambda: support_coverage(math.inf), lambda: power_sum(math.inf), lambda: power_sum(math.nan)]
    )
    def test_parameters_must_be_finite(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_nan_reference_rejected(self):
        # NaN fails every comparison, so "sum off by more than tol" let it through
        with pytest.raises(ValueError, match="sum to 1"):
            l1_distance(np.array([0.5, math.nan]))
        with pytest.raises(ValueError, match="sum to 1"):
            exact_value(entropy(), np.array([0.5, math.nan]))
