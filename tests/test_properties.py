"""Tests for the per-symbol property evaluators and exact values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propest import cli
from propest.properties import (
    KINDS,
    PropertySpec,
    distance_to_uniformity,
    entropy,
    eval_fx_grid,
    eval_fx_many,
    exact_value,
    kl_divergence,
    l1_distance,
    lipschitz,
    power_sum,
    support_coverage,
    support_size,
)


# A valid value of each spec parameter.
VALID = {"k": 4, "m": 10.0, "a": 2.0, "q": np.full(4, 0.25)}


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
            assert eval_fx_grid(spec, 0.0, 1.0 / 8) == 0.0

    def test_entropy_quarter(self):
        assert eval_fx_grid(entropy(), 0.25) == pytest.approx(0.25 * math.log(4), rel=1e-12, abs=0)

    def test_uniformity_offset_form(self):
        spec = distance_to_uniformity(10)
        assert eval_fx_grid(spec, 0.1) == pytest.approx(-0.1, abs=1e-15)

    def test_clamp_above_one(self):
        # count ratios can exceed 1; the evaluator uses the value at 1
        assert eval_fx_grid(entropy(), 2.0) == 0.0
        assert eval_fx_grid(power_sum(2.0), 1.7) == 1.0
        spec = support_coverage(5.0)
        assert eval_fx_grid(spec, 3.0) == eval_fx_grid(spec, 1.0)

    def test_support_size_indicator(self):
        spec = support_size(10)
        assert eval_fx_grid(spec, 1e-9) == pytest.approx(0.1)
        assert eval_fx_grid(spec, 0.0) == 0.0

    def test_kl_rejects_zero_reference(self):
        q = np.array([0.0, 1.0])
        spec = PropertySpec("kl_divergence", q=q)
        with pytest.raises(ValueError):
            eval_fx_many(spec, np.array([0]), np.array([0.5]))
        # fine when the unknown mass there is 0
        assert eval_fx_many(spec, np.array([0]), np.array([0.0]))[0] == 0.0

    def test_reference_kinds_require_qx(self):
        for spec in (l1_distance(np.full(4, 0.25)), kl_divergence(np.full(4, 0.25))):
            with pytest.raises(ValueError, match="reference masses"):
                eval_fx_grid(spec, np.array([0.1]))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            eval_fx_grid(entropy(), -0.1)
        with pytest.raises(ValueError, match="nonnegative"):  # NaN too, not spread to the zeros
            eval_fx_grid(entropy(), np.array([0.0, np.nan]))

    def test_many_matches_scalar(self):
        q = np.array([0.2, 0.3, 0.5])
        for spec in (entropy(), l1_distance(q), kl_divergence(q)):
            symbols = np.array([0, 1, 2])
            ps = np.array([0.1, 0.2, 0.7])
            many = eval_fx_many(spec, symbols, ps)
            scalars = [eval_fx_grid(spec, p, q[x]) for x, p in zip(symbols, ps)]
            np.testing.assert_allclose(many, scalars, rtol=1e-14)


class TestExactValue:
    def test_uniform_entropy(self):
        p = np.full(4, 0.25)
        assert exact_value(entropy(), p) == pytest.approx(math.log(4), rel=1e-12, abs=0)

    def test_uniform_distance_to_itself(self):
        p = np.full(4, 0.25)
        assert exact_value(distance_to_uniformity(4), p) == pytest.approx(0.0, abs=1e-12)

    def test_power_sum_uniform(self):
        p = np.full(10, 0.1)
        assert exact_value(power_sum(2.0), p) == pytest.approx(0.1, rel=1e-12, abs=0)

    def test_l1_equals_direct_distance(self):
        rng = np.random.default_rng(7)
        q = rng.dirichlet(np.ones(12))
        p = rng.dirichlet(np.ones(12))
        spec = l1_distance(q)
        assert exact_value(spec, p) == pytest.approx(np.abs(p - q).sum(), rel=1e-12, abs=0)

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

    def test_mass_beyond_k_rejected(self):
        # uniform on 10 symbols used to read 0 from uniform on 5
        for spec in (distance_to_uniformity(5), support_size(5)):
            with pytest.raises(ValueError, match="k=5"):
                exact_value(spec, np.full(10, 0.1))
        p = np.array([0.5, 0.5, 0.0, 0.0])
        assert exact_value(distance_to_uniformity(2), p) == pytest.approx(0.0, abs=1e-15)
        assert exact_value(support_size(2), p) == 1.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            exact_value(entropy(), np.array([0.5, 0.6]))

    def test_p_must_be_a_vector(self):
        with pytest.raises(ValueError, match="^p must be a 1-D probability vector$"):
            exact_value(entropy(), np.full((2, 2), 0.25))

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
        assert lipschitz(entropy(), math.exp(-3)) == pytest.approx(3.0, rel=1e-12, abs=0)

    def test_l1_is_one(self):
        assert lipschitz(l1_distance(np.full(4, 0.25)), 0.5) == 1.0

    def test_kl_uniform_reference(self):
        spec = kl_divergence(np.full(10, 0.1))
        assert lipschitz(spec, 0.1) == pytest.approx(math.log(100), rel=1e-12, abs=0)

    def test_kl_over_the_positive_masses(self):
        # A zero mass used to refuse the constant: "KL smoothness undefined when q has zero entries".
        spec = kl_divergence(np.array([0.5, 0.0, 0.3, 0.2, 0.0]))
        assert lipschitz(spec, 0.1) == lipschitz(kl_divergence(np.array([0.5, 0.3, 0.2])), 0.1)
        assert lipschitz(spec, 0.1) == -math.log(0.1 * 0.2)

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

    @pytest.mark.parametrize("q, message", [
        (None, "kl_divergence requires a reference distribution q"),
        (np.zeros(0), "q must be a nonempty 1-D probability vector"),
        (np.full((2, 2), 0.25), "q must be a nonempty 1-D probability vector"),
        (np.array([1.5, -0.5]), "q must be nonnegative"),
        # Within the sum's tolerance of 1: the plug-in estimates read it, the amplified one refused it.
        (np.array([1.0000000000004]), "q must be at most 1"),
    ], ids=["missing", "empty", "matrix", "negative", "above_one"])
    def test_reference_refusals(self, q, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PropertySpec("kl_divergence", q=q)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PropertySpec("renyi")

    @pytest.mark.parametrize(
        "kind, name",
        [(kind, name) for kind, record in KINDS.items() for name in VALID if name not in record.reads],
    )
    def test_parameter_the_kind_does_not_read_refused(self, kind, name):
        read = {n: VALID[n] for n in KINDS[kind].reads}
        PropertySpec(kind, **read)
        with pytest.raises(ValueError, match=f"^{kind} does not read {name}$"):
            PropertySpec(kind, **read, **{name: VALID[name]})

    @pytest.mark.parametrize("kind", ["support_size", "dist_to_uniform"])
    @pytest.mark.parametrize("k", [None, 0, 2.5])
    def test_k_must_be_a_positive_integer(self, kind, k):
        with pytest.raises(ValueError, match=f"^{kind} requires a positive integer k$"):
            PropertySpec(kind, k=k)

    def test_cli_tables_follow_kinds(self):
        assert cli.READ_BY["k"] == ("--property/--q", {"support_size", "dist_to_uniform", "uniform"})
        assert cli.READ_BY["m"] == ("--property", {"support_coverage"})
        assert cli.READ_BY["a"] == ("--property", {"power_sum"})
        for name in ("q", "q_file", "q_x"):
            assert cli.READ_BY[name] == ("--property", {"l1_distance", "kl_divergence"})
        for kind, record in KINDS.items():
            for name in VALID:
                assert (kind in cli.READ_BY[name][1]) == (name in record.reads)
            assert cli.PROPERTY_ALIASES[kind] == kind
        assert set(cli.PROPERTY_ALIASES.values()) == set(KINDS)
        assert {alias: kind for alias, kind in cli.PROPERTY_ALIASES.items() if alias != kind} == {
            "coverage": "support_coverage", "uniformity": "dist_to_uniform",
            "l1": "l1_distance", "kl": "kl_divergence",
        }

    def test_coverage_requires_positive_m(self):
        with pytest.raises(ValueError):
            support_coverage(0.0)

    @pytest.mark.parametrize(
        "make", [lambda: support_coverage(math.inf), lambda: power_sum(math.inf), lambda: power_sum(math.nan)]
    )
    def test_parameters_must_be_finite(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_equality_and_hash_compare_q_by_content(self):
        q = np.array([0.2, 0.3, 0.5])
        for make in (l1_distance, kl_divergence):
            assert make(q) == make(q.copy()) and hash(make(q)) == hash(make(q.copy()))
            assert make(q) != make(np.array([0.3, 0.2, 0.5]))
            assert make(q) != make(np.array([0.2, 0.3, 0.25, 0.25]))
        assert l1_distance(q) != kl_divergence(q)
        assert support_size(5) == support_size(5) and support_size(5) != support_size(6)
        assert entropy() != l1_distance(q) and entropy() != "entropy"
        assert len({kl_divergence(q), kl_divergence(q.copy()), entropy()}) == 2

    def test_nan_reference_rejected(self):
        # NaN fails every comparison, so "sum off by more than tol" let it through
        with pytest.raises(ValueError, match="sum to 1"):
            l1_distance(np.array([0.5, math.nan]))
        with pytest.raises(ValueError, match="sum to 1"):
            exact_value(entropy(), np.array([0.5, math.nan]))
