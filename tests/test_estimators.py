"""Tests for the plug-in estimators and the amplified-estimator pipeline.

Coefficient values are checked against a 256-bit direct evaluation of the
defining alternating sum; estimator behavior is checked on hand-built count
streams where every branch contribution is known.
"""

import math
import sys
import threading
from decimal import Decimal

import numpy as np
import pytest
from scipy.special import gammaln

from propest import cli, estimators, numerics, selfcheck
from propest.benchmark import trial_seed
from propest.distributions import Histogram, SplitSample, make_distribution, split_sample
from propest.estimators import (
    EstimatorParams,
    ParameterError,
    amplified_estimate,
    amplified_estimate_detailed,
    build_coefficient_table,
    build_coefficient_tables,
    derive_params,
    empirical,
    modified_empirical,
)
from propest.numerics import log_poisson_tail_table
from propest.selfcheck import exact_weights
from propest.properties import (
    KINDS,
    PropertySpec,
    distance_to_uniformity,
    entropy,
    eval_fx_grid,
    kl_divergence,
    l1_distance,
    power_sum,
    support_coverage,
    support_size,
)

from oracles import mp_entropy_coefficient, per_entry_table, route_covers, smoothed_h_hat


def hist(*counts):
    return Histogram(np.array(counts, dtype=np.int64))


def small_params(t_decay=False, rate=150.0, t=3.0, s0=1):
    return EstimatorParams(rate, t, s0, t_decay=t_decay)


def clamping_params():
    # 185 entries from v=212 on hit the envelope; v_max is 400, u_max 19.
    return EstimatorParams(500.0, 4.0, 2, t_decay=False)


class TestEmpirical:
    def test_entropy_two_symbols(self):
        oracle = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
        h = hist(3, 1)
        assert empirical(h, entropy()) == pytest.approx(oracle, rel=1e-12, abs=0)
        assert oracle == pytest.approx(0.5623351, abs=5e-8)

    def test_support_size_single_symbol(self):
        h = hist(5)
        assert empirical(h, support_size(10)) == pytest.approx(0.1)

    def test_empty_reports_offset(self):
        assert empirical(hist(), entropy()) == 0.0
        assert empirical(hist(), distance_to_uniformity(4)) == 1.0


class TestModifiedEmpirical:
    def test_matches_empirical_when_rate_equals_total(self):
        h = hist(3, 1)
        assert modified_empirical(h, 4.0, entropy()) == pytest.approx(
            empirical(h, entropy()), rel=1e-14, abs=0
        )

    def test_clamps_ratios_above_one(self):
        h = hist(8)
        assert modified_empirical(h, 4.0, entropy()) == 0.0

    def test_direct_value(self):
        h = hist(2, 2)
        oracle = 2 * 0.25 * math.log(4)
        assert modified_empirical(h, 8.0, entropy()) == pytest.approx(oracle, rel=1e-12, abs=0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            modified_empirical(hist(1), 0.0, entropy())

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_nonfinite_rate(self, rate):
        # rate inf used to divide every count to 0 and report the offset
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            modified_empirical(hist(1), rate, entropy())


class TestDeriveParams:
    def test_entropy_preset_at_e10(self):
        n = math.exp(10)
        p = derive_params(n, entropy())
        assert p.t == pytest.approx(2 * 10**0.8 + 1, rel=1e-6, abs=0)
        assert p.t == pytest.approx(13.6190, abs=2e-4)
        assert p.s0 == 25
        assert p.rate == pytest.approx(n)

    def test_uniformity_preset_at_e10(self):
        p = derive_params(math.exp(10), distance_to_uniformity(100))
        assert p.t == pytest.approx(10**0.7 + 1, rel=1e-9, abs=0)
        assert p.t == pytest.approx(6.0119, abs=1e-4)
        assert p.s0 == 6
        assert p.u_max == 83  # round(2*6*6.0119 + 12 - 1)
        assert p.r == round(10 * 6 * p.t + 60)

    def test_thinned_mode_halves_rate(self):
        n = math.exp(10)
        p = derive_params(n, entropy(), split_mode="thinned")
        assert p.rate == pytest.approx(n / 2)
        # tuning still reads the total budget
        assert p.s0 == 25

    def test_small_budget_rejected(self):
        with pytest.raises(ParameterError):
            derive_params(100, entropy())

    @pytest.mark.parametrize(
        "total_n, manual",
        [(math.inf, {}), (1000.0, dict(preset=False, alpha=0.5, s0_mult=math.inf)),
         (1000.0, dict(preset=False, alpha=0.5, s0_mult=1.5e308))],
    )
    def test_nonfinite_budget_or_s0_rejected(self, total_n, manual):
        # each used to end in an OverflowError while rounding
        with pytest.raises(ParameterError, match="finite"):
            derive_params(total_n, entropy(), **manual)

    @pytest.mark.parametrize(
        "rate, t, s0", [(math.inf, 3.0, 1), (150.0, math.inf, 1), (150.0, 1e308, 1), (150.0, 3.0, math.inf)]
    )
    def test_params_need_finite_rate_and_orders(self, rate, t, s0):
        with pytest.raises(ParameterError):
            EstimatorParams(rate, t, s0)

    @pytest.mark.parametrize("s0, v_max", [(10**20, None), (1, 10**11), (200_000, 10)])
    def test_table_size_rejected_before_allocation(self, s0, v_max):
        # s0 = 1e20 ended in numpy's bare "Maximum allowed size exceeded",
        # v_max = 1e11 asked for ~800 GB of log factorials, and s0 = 2e5 at
        # v_max = 10 passed, although its Poisson tail runs past 2r = 1.6e7
        reach = r"Poisson tail reach 2r = 16000000" if v_max == 10 else r"v_max \+ u_max = \d+"
        with pytest.raises(ParameterError, match=rf"^{reach} exceeds 10000000$"):
            EstimatorParams(1000.0, 3.0, s0, v_max=v_max)

    def test_preset_tables_far_below_the_ceiling(self):
        p = derive_params(1e15, entropy())
        assert p.v_max + p.u_max < estimators.MAX_TABLE_SIZE / 100

    @pytest.mark.parametrize(
        "make",
        [lambda: derive_params(1e308, entropy()), lambda: EstimatorParams(1e308, 3.0, 1)],
        ids=["derive_params", "EstimatorParams"],
    )
    def test_overflowing_rate_times_t_named(self, make):
        # rate * t overflowed inside the table build: "h must be in (0, 1], got 0.0"
        with pytest.raises(ParameterError, match=r"^rate \* t is not finite \(rate 1e\+308, t "):
            make()

    def test_small_amplification_rejected(self):
        # alpha = 1 gives t = 2 regardless of n
        with pytest.raises(ParameterError):
            derive_params(1000, entropy(), preset=False, alpha=1.0, s0_mult=4.0)

    @pytest.mark.parametrize(
        "manual", [dict(alpha=0.5), dict(s0_mult=100.0), dict(alpha=0.5, s0_mult=4.0)]
    )
    def test_preset_rejects_manual_tuning(self, manual):
        with pytest.raises(ParameterError, match="preset=False"):
            derive_params(1000, entropy(), **manual)

    def test_no_preset_for_reference_properties(self):
        with pytest.raises(ParameterError):
            derive_params(1000, l1_distance(np.full(4, 0.25)))

    def test_manual_mode(self):
        n = 10000.0
        p = derive_params(n, entropy(), preset=False, alpha=0.2, s0_mult=8.0)
        ln = math.log(n)
        assert p.t == pytest.approx(ln**0.8 + 1)
        assert p.s0 == int(math.floor(8 * ln**0.2 + 0.5))

    def test_params_invariants_enforced(self):
        with pytest.raises(ParameterError):
            EstimatorParams(100.0, 2.0, 1)
        with pytest.raises(ParameterError):
            EstimatorParams(100.0, 3.0, 0)

    def test_v_max_default(self):
        p = small_params()
        assert p.v_max == max(4 * p.r, 200)

    @pytest.mark.parametrize("manual, message", [
        (dict(alpha=0.5), "manual tuning requires both alpha and s0_mult"),
        (dict(alpha=1.5, s0_mult=4.0), r"alpha must be in \[0, 1\], got 1.5"),
        (dict(alpha=0.5, s0_mult=0.0), "s0_mult must be positive, got 0.0"),
        (dict(alpha=0.5, s0_mult=4.0, split_mode="bogus"), "unknown split mode 'bogus'"),
    ], ids=["alpha_alone", "alpha_above_one", "s0_mult_zero", "split_mode"])
    def test_manual_tuning_refusals(self, manual, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            derive_params(1000.0, entropy(), preset=False, **manual)

    @pytest.mark.parametrize("v_max", [0, 2.5, math.nan])
    def test_v_max_must_be_a_positive_integer(self, v_max):
        with pytest.raises(ParameterError, match=f"^v_max must be a positive integer, got {v_max!r}$"):
            EstimatorParams(1000.0, 3.0, 2, v_max=v_max)

    @pytest.mark.parametrize("make", [
        lambda v_max: EstimatorParams(1000.0, 3.0, 2, v_max=v_max),
        lambda v_max: derive_params(1000.0, entropy(), preset=False, alpha=0.5, s0_mult=2.0, v_max=v_max),
    ], ids=["EstimatorParams", "derive_params"])
    def test_integral_float_v_max_is_an_int(self, make):
        # 300.0 passed validation and the first table read raised "slice indices must be integers".
        params = make(300.0)
        assert type(params.v_max) is int and params == make(300)
        assert build_coefficient_table(entropy(), params).values.tobytes() == (
            build_coefficient_table(entropy(), make(300)).values.tobytes()
        )


class TestCoefficient:
    def test_v1_closed_form(self):
        params = small_params()
        tail = math.exp(log_poisson_tail_table(params.r, 2)[2])
        target = 3.0 * eval_fx_grid(entropy(), 1.0 / 450.0) * tail
        value = build_coefficient_table(entropy(), params).weights(1)
        assert value == pytest.approx(target, rel=1e-12, abs=0)

    def test_v1_closed_form_under_decay(self):
        # decay leaves v = 1 untouched
        params = small_params(t_decay=True)
        tail = math.exp(log_poisson_tail_table(params.r, 2)[2])
        target = 3.0 * eval_fx_grid(entropy(), 1.0 / 450.0) * tail
        value = build_coefficient_table(entropy(), params).weights(1)
        assert value == pytest.approx(target, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1000, 59948])
    def test_count_one_weight_matches_oracle_at_readme_rates(self, n):
        # The weight is t f(1/(rate t)) times a tail at level r 2733 or 4061
        # that is 1 to within 1e-1000, so any error in that tail shows whole.
        params = derive_params(n, entropy())
        value = build_coefficient_table(entropy(), params).weights(1)
        assert abs(value / mp_entropy_coefficient(1, params) - 1.0) <= 2.0**-48

    def test_zero_function_on_grid(self):
        # rate * t <= 1 clamps every grid point to 1 where entropy vanishes
        params = EstimatorParams(0.3, 3.0, 1)
        for v in (1, 2, 5):
            assert build_coefficient_table(entropy(), params).weights(v) == 0.0

    def test_matches_256bit_direct_evaluation(self):
        params = small_params()
        for v in (1, 2, 3, 5, 8, 13, 20):
            oracle = mp_entropy_coefficient(v, params)
            value = build_coefficient_table(entropy(), params).weights(v)
            assert value == pytest.approx(oracle, rel=1e-9, abs=0)

    def test_matches_256bit_with_decay(self):
        params = small_params(t_decay=True)
        for v in (1, 2, 3, 4, 7, 12):
            oracle = mp_entropy_coefficient(v, params)
            value = build_coefficient_table(entropy(), params).weights(v)
            assert value == pytest.approx(oracle, rel=1e-9, abs=1e-15)

    def test_envelope_respected(self):
        params = small_params()
        table = build_coefficient_table(entropy(), params)
        assert np.max(np.abs(table.values)) <= math.exp(table.log_clamp_bound) * (1 + 1e-12)
        assert not table.clamped.any()

    def test_reference_property_needs_mass(self):
        spec = l1_distance(np.full(4, 0.25))
        params = small_params()
        with pytest.raises(ValueError):
            build_coefficient_table(spec, params)
        value = build_coefficient_table(spec, params, q_x=0.25).weights(1)
        assert math.isfinite(value)
        # a kind that reads no q refuses a mass rather than dropping it
        with pytest.raises(ValueError, match="^entropy weights do not depend on a reference mass q_x$"):
            build_coefficient_table(entropy(), params, q_x=0.3)
        with pytest.raises(ValueError, match="q_x"):
            smoothed_h_hat(entropy(), 0.5, params, q_x=0.7)

    def test_reference_mass_outside_unit_interval_rejected(self):
        spec = kl_divergence(np.full(4, 0.25))
        for q_x in (-0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match="q_x"):
                build_coefficient_table(spec, small_params(), q_x=q_x)

    def test_uniform_reference_deduplicates(self):
        spec = l1_distance(np.full(6, 1.0 / 6))
        tables = build_coefficient_tables(spec, small_params())
        assert len(tables.tables) == 1
        assert tables.unique_q is None
        assert tables.tables[0].q_x == 1.0 / 6

    def test_distinct_reference_masses_get_tables(self):
        spec = l1_distance(np.array([0.5, 0.25, 0.25]))
        tables = build_coefficient_tables(spec, small_params())
        assert len(tables.tables) == 2
        np.testing.assert_allclose(tables.unique_q, [0.25, 0.5])


class TestExactWeights:
    """``selfcheck.exact_weights``, the decimal route the self-check holds the tables to."""

    def test_matches_256bit_direct_evaluation(self):
        # The route takes f's floats exactly, so it meets the 256-bit oracle
        # within a few roundings of f, amplified by the condition number; the
        # oracle sums each tail from its positive terms, so it holds far past r = 40.
        params = small_params()
        weights, conds = exact_weights(entropy(), params, range(1, 201))
        for v, weight, cond in zip(range(1, 201), weights, conds):
            oracle = mp_entropy_coefficient(v, params)
            assert abs(float(weight) - oracle) <= 4 * 2.0**-52 * float(cond) * abs(oracle), v

    def test_zero_function_gives_zero_weights(self):
        # rate * t <= 1 clamps every grid point to 1, where entropy vanishes
        weights, conds = exact_weights(entropy(), EstimatorParams(0.3, 3.0, 1), [1, 2, 5])
        assert weights == [0, 0, 0] and conds == [1, 1, 1]

    def test_refuses_a_condition_number_past_its_digits(self, monkeypatch):
        # With 40 guard digits, counts 1..3 keep more than 40 digits beyond
        # log10(cond); count 4, at 42 digits with cond 210, keeps fewer.
        monkeypatch.setattr(selfcheck, "_GUARD_DIGITS", 40)
        exact_weights(entropy(), small_params(), range(1, 4))
        with pytest.raises(ValueError, match=r"^condition number 2\.104e\+2 at count 4 needs more than 42 digits$"):
            exact_weights(entropy(), small_params(), range(1, 5))


class TestLazyTable:
    @pytest.mark.parametrize(
        "params, flagged, flag",
        [
            (clamping_params(), 212, "clamped"),
            # README tuning at n=1e5: route entries up to u_max = 837, series entries past it, cancelled.
            (derive_params(1e5, entropy(), v_max=1000), 838, "cancelled"),
        ],
    )
    def test_weights_match_completed_table_bit_for_bit(self, params, flagged, flag):
        completed = build_coefficient_table(entropy(), params)
        fresh = build_coefficient_table(entropy(), params)
        vs = np.unique([1, 2, 17, 47, 200, flagged, completed.v_max])
        values = completed.values
        assert getattr(completed, flag)[flagged]
        assert fresh.weights(vs).tobytes() == values[vs].tobytes()
        np.testing.assert_array_equal(fresh.computed, vs)
        assert fresh.values.tobytes() == completed.values.tobytes()
        np.testing.assert_array_equal(fresh.clamped, completed.clamped)
        np.testing.assert_array_equal(fresh.cancelled, completed.cancelled)

    def test_weights_refuse_a_count_outside_the_row(self):
        # A row's flat key reached past the row: v_max + 2 read the next row at v = 1, and -1 the set's last entry.
        kl = kl_divergence(np.array([0.5, 0.3, 0.2]))
        tables = build_coefficient_tables(kl, derive_params(1e4, kl, preset=False, alpha=0.5, s0_mult=4.0))
        for table in tables.tables[:2]:
            for count in (table.v_max + 2, -1):
                with pytest.raises(ValueError, match=rf"^counts must lie in 0\.\.{table.v_max}, got "):
                    table.weights([1, count])
            assert len(table.computed) == 0

    def test_v_max_does_not_compute(self):
        table = build_coefficient_table(entropy(), clamping_params())
        assert table.v_max == 400
        assert len(table.computed) == 0

    def test_estimate_computes_only_the_entries_it_reads(self):
        # The README sweep's n=1e5 cell, trial 0.
        n, spec = 100_000, entropy()
        dist_rng = np.random.default_rng(trial_seed(7, 0, "distribution", 0))
        dist = make_distribution("zipf", 10_000, {}, rng=dist_rng)
        rng = np.random.default_rng(trial_seed(7, n, "amplified", 0))
        sample = split_sample(dist, n, mode="two_stream", rng=rng)
        params = derive_params(n, spec)
        tables = build_coefficient_tables(spec, params)
        amplified_estimate_detailed(sample, spec, params, tables)
        n1, n2 = sample.first.array, sample.second.array
        read = set(n1[(n1 >= 1) & (n2 <= params.s0) & (n1 <= params.u_max)].tolist())
        (table,) = tables.tables
        assert set(table.computed.tolist()) == read
        assert len(read) <= 100

    def test_concurrent_reads_compute_each_entry_once(self, monkeypatch):
        # One entropy table, then a kl set whose every read spans its three masses.
        params = clamping_params()
        kl = kl_divergence(np.array([0.5, 0.3, 0.2]))
        masses = (0.2, 0.3, 0.5)
        reference = {qx: build_coefficient_table(kl, params, q_x=qx).values for qx in masses}
        reference[None] = build_coefficient_table(entropy(), params).values
        calls = []

        def counted(spec, params, v, q_x, *args):
            calls.extend(zip([None] * len(v) if q_x is None else q_x.tolist(), v.tolist()))
            return signed_logs(spec, params, v, q_x, *args)

        signed_logs = estimators._coefficient_signed_logs
        monkeypatch.setattr(estimators, "_coefficient_signed_logs", counted)
        table = build_coefficient_table(entropy(), params)
        tables = build_coefficient_tables(kl, params, v_max=params.v_max)
        chunks = [np.arange(1 + i, 401, 7) for i in range(7)] * 2
        for qxs, read in (
            ((None,), table.weights),
            (masses, lambda v: tables.read(np.repeat([0, 1, 2], len(v)), np.tile(v, 3))[0]),
        ):
            calls.clear()
            out = [None] * len(chunks)

            def run(i):
                out[i] = read(chunks[i])

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=run, args=(i,)) for i in range(len(chunks))]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(th.is_alive() for th in threads)
            assert sorted(calls) == [(qx, v) for qx in qxs for v in range(1, 401)]
            for v, w in zip(chunks, out):
                assert w.tobytes() == np.concatenate([reference[qx][v] for qx in qxs]).tobytes()
        assert table.values.tobytes() == reference[None].tobytes()
        np.testing.assert_array_equal(tables.unique_q, masses)
        for row, qx in enumerate(masses):
            assert tables.tables[row].values.tobytes() == reference[qx].tobytes()


def batched_cases():
    """Table sets across the kinds, reference masses, rates and tunings, for the bit comparison."""
    q = np.array([0.4, 0.2, 0.2, 0.1, 0.05, 0.05])
    kinds = {
        "entropy": entropy(), "support_size": support_size(1000), "support_coverage": support_coverage(2000.0),
        "power_sum": power_sum(2.0), "dist_to_uniform": distance_to_uniformity(1000),
        "l1_distance": l1_distance(q), "kl_divergence": kl_divergence(q),
    }
    for n in (150, 1000, 59948):
        for name, spec in kinds.items():
            tuning = {"preset": False, "alpha": 0.5, "s0_mult": 2.0} if spec.q is not None else {}
            for t_decay in (True, False):
                yield f"{name}-{n}-{t_decay}", spec, derive_params(n, spec, t_decay=t_decay, **tuning), None
    manual = derive_params(1000, entropy(), preset=False, alpha=0.3, s0_mult=1.0, t_decay=False)
    yield "entropy-manual", entropy(), manual, None
    # s0_mult 2 leaves r below the tail test's reach; at 4 every kl entry takes the route.
    yield "kl-route", kinds["kl_divergence"], derive_params(1e4, kinds["kl_divergence"], preset=False, alpha=0.5,
                                                            s0_mult=4.0), None
    yield "entropy-past-u_max", entropy(), clamping_params(), clamping_params().v_max
    yield "entropy-150-past-u_max", entropy(), derive_params(150, entropy()), 600


class TestBatchedWeights:
    def test_routed_follows_the_reference_rule(self):
        # Every entry of every set: no route at all, past u_max, and past rate * t_at(v) all occur.
        seen = {"no route": 0, "past u_max": 0, "past rate * t": 0}
        for case, spec, params, v_max in batched_cases():
            tables = build_coefficient_tables(spec, params, v_max)
            v = np.arange(1, tables.v_max + 1)
            expected = [route_covers(tables, x) for x in v.tolist()]
            assert tables.routed(v).tolist() == expected, case
            lam = params.rate * np.array([params.t_at(x) for x in v.tolist()])
            seen["no route"] += tables.route is None
            seen["past u_max"] += tables.route is not None and int(np.count_nonzero(v > params.u_max))
            seen["past rate * t"] += tables.route is not None and int(np.count_nonzero((v <= params.u_max) & (v > lam)))
        assert all(seen.values()), seen

    def test_every_entry_has_the_bits_of_the_per_entry_evaluation(self):
        # Each set is read in two overlapping chunks of (row, count) entries, then completed.
        flagged = {"clamped": 0, "cancelled": 0}
        for case, spec, params, v_max in batched_cases():
            tables = build_coefficient_tables(spec, params, v_max)
            rows = len(tables.tables)
            keys = np.arange(rows * tables.v_max)
            row, v = keys // tables.v_max, keys % tables.v_max + 1
            third = len(keys) // 3
            for chunk in (slice(0, 2 * third), slice(third, None)):
                tables.read(row[chunk], v[chunk])
            for r, table in enumerate(tables.tables):
                np.testing.assert_array_equal(table.computed, np.arange(1, tables.v_max + 1))
                values, clamped, cancelled = per_entry_table(tables, r)
                assert table.values.tobytes() == values.tobytes(), case
                assert table.clamped.tobytes() == clamped.tobytes(), case
                assert table.cancelled.tobytes() == cancelled.tobytes(), case
                flagged["clamped"] += int(clamped.sum())
                flagged["cancelled"] += int(cancelled.sum())
            assert tables.read(row, v)[1:] == (
                sum(int(t.clamped.sum()) for t in tables.tables),
                sum(int(t.cancelled.sum()) for t in tables.tables),
            ), case
        assert flagged["clamped"] > 0 and flagged["cancelled"] > 0, flagged


UNIFORM_KL = kl_divergence(np.full(10**4, 1e-4))
# One set per route, at the tunings its estimates use: README entropy, the kl and support_size benchmarks.
ROUTE_CASES = [
    pytest.param(entropy(), derive_params(1e3, entropy()), None, id="entropy-1e3"),
    pytest.param(entropy(), derive_params(59948.0, entropy()), None, id="entropy-59948"),
    pytest.param(UNIFORM_KL, derive_params(1e4, UNIFORM_KL, preset=False, alpha=0.5, s0_mult=4.0), 1e-4, id="kl-1e4"),
    pytest.param(support_size(10**6), derive_params(1e5, support_size(10**6)), None, id="support_size-1e5"),
]


class TestRoutes:
    """The weight routes of entropy, kl and support_size, and which entries take them."""

    @pytest.mark.parametrize("spec, params, q_x", ROUTE_CASES)
    def test_entries_match_exact_weights(self, spec, params, q_x):
        # Every v <= 120 and a stride of 16 up to u_max, against f evaluated in decimal.
        counts = sorted(set(range(1, min(120, params.u_max) + 1)) | set(range(1, params.u_max + 1, 16)) | {params.u_max})
        tables = build_coefficient_tables(spec, params)  # one row: q is uniform
        assert tables.route is not None
        (table,) = tables.tables
        values = table.weights(counts)
        exact, _ = exact_weights(spec, params, counts, q_x, exact_f=True)
        for v, value, weight in zip(counts, values.tolist(), exact):
            assert abs(Decimal(value) - weight) <= Decimal(2) ** -45 * abs(weight), v
        assert not table.clamped.any() and not table.cancelled.any()

    @pytest.mark.parametrize("n", [150, 1e3, 1e4, 1e5, 1e6])
    def test_tail_is_one_under_every_preset(self, n):
        for kind in ("entropy", "support_size", "support_coverage", "power_sum", "dist_to_uniform"):
            spec = PropertySpec(kind, **{name: 1000 for name in KINDS[kind].reads})
            assert estimators._tail_is_one(derive_params(n, spec)), kind
        kl = kl_divergence(np.full(4, 0.25))
        assert estimators._tail_is_one(derive_params(n, kl, preset=False, alpha=0.5, s0_mult=4.0))

    def test_small_s0_keeps_the_series(self):
        # The deep selfcheck's r = 100, u_max = 19: P(Poisson(100) <= 38) is not 1 - 1e-17.
        assert (clamping_params().r, clamping_params().u_max) == (100, 19)
        assert not estimators._tail_is_one(clamping_params())
        assert build_coefficient_tables(entropy(), clamping_params()).route is None

    def test_estimate_tables_build_no_tail(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Poisson tail or factorial array was built")

        monkeypatch.setattr(estimators, "log_poisson_tail_table", refuse)
        monkeypatch.setattr(estimators, "log_factorials", refuse)
        dist = make_distribution("zipf", 1000)
        for spec, params in (
            (entropy(), derive_params(2e4, entropy())),
            (support_size(1000), derive_params(2e4, support_size(1000))),
            (kl_divergence(dist.probs), derive_params(2e4, kl_divergence(dist.probs), preset=False, alpha=0.5,
                                                      s0_mult=4.0)),
        ):
            sample = split_sample(dist, 2e4, rng=np.random.default_rng(1))
            tables = build_coefficient_tables(spec, params)
            assert amplified_estimate_detailed(sample, spec, params, tables).n_small > 0
            assert "log_tail" not in vars(tables) and "log_fact" not in vars(tables)

    @pytest.mark.parametrize("spec", [entropy(), support_size(1000), UNIFORM_KL], ids=lambda spec: spec.kind)
    def test_weights_past_doubles_are_clamped(self, spec):
        # Without decay t stays at 17.3, 7.3 and 4.7 up to u_max: (1 - t)^v, and the weight,
        # pass the 1e100 cap and, for entropy and support_size, 1e308.
        tuning = {"preset": False, "alpha": 0.5, "s0_mult": 16.0} if spec.q is not None else {}
        params = derive_params(1e6, spec, t_decay=False, **tuning)
        tables = build_coefficient_tables(spec, params)
        assert tables.route is not None
        (table,) = tables.tables
        values = table.values
        assert np.isfinite(values).all()
        assert np.array_equal(np.abs(values[table.clamped]), np.full(table.clamped.sum(), math.exp(tables.log_clamp_bound)))
        assert table.clamped[-1] and not table.cancelled.any()

    def test_entries_past_the_clamp_take_the_series(self, monkeypatch):
        # Entropy at n=150: u/lambda passes 1 from v = 226, where f's clamp at 1 binds.
        params = derive_params(150, entropy())
        assert params.u_max == 406 and 225 <= params.rate * params.t_at(225) < 226
        series = []

        def counted(spec, params, v, *args):
            series.extend(v.tolist())
            return signed_logs(spec, params, v, *args)

        signed_logs = estimators._coefficient_signed_logs
        monkeypatch.setattr(estimators, "_coefficient_signed_logs", counted)
        (table,) = build_coefficient_tables(entropy(), params).tables
        table.values
        assert series == list(range(226, 407))


class TestTableSet:
    def test_kl_set_computes_the_envelope_once(self, monkeypatch):
        calls = []
        envelope = estimators._log_envelope
        monkeypatch.setattr(
            estimators, "_log_envelope", lambda *args: calls.append(args) or envelope(*args)
        )
        spec = kl_divergence(make_distribution("zipf", 50).probs)
        tables = build_coefficient_tables(spec, small_params())
        assert len(tables.tables) == 50
        assert len(calls) == 1

    def test_estimate_visits_only_the_tables_it_reads(self):
        spec = kl_divergence(make_distribution("zipf", 50).probs)
        params = small_params()
        tables = build_coefficient_tables(spec, params)
        # Symbols 0 and 7 are small, symbol 3 large; all three masses differ.
        sample = SplitSample(hist(2, 0, 0, 5, 0, 0, 0, 1), hist(0, 0, 0, 4), rate=150.0)
        amplified_estimate_detailed(sample, spec, params, tables)
        read = dict(zip(tables.table_for_symbols(np.array([0, 7])).tolist(), ([2], [1])))
        assert len(read) == 2
        for row, table in enumerate(tables.tables):
            assert table.computed.tolist() == read.get(row, [])

    @pytest.mark.parametrize("spec", [kl_divergence(np.full(8, 0.125)), entropy()], ids=["uniform_kl", "entropy"])
    def test_one_row_set_gives_a_mask_one_row_per_selected_symbol(self, spec):
        tables = build_coefficient_tables(spec, small_params())
        assert tables.unique_q is None
        mask = np.array([True, False, False, True, True, False, False, False])
        rows = tables.table_for_symbols(mask)
        np.testing.assert_array_equal(rows, tables.table_for_symbols(np.flatnonzero(mask)))
        np.testing.assert_array_equal(rows, [0, 0, 0])

    def test_one_mass_kl_estimate_matches_the_set_at_that_mass(self, monkeypatch):
        k, params = 8, small_params()
        spec = kl_divergence(np.full(k, 1.0) / k)
        sample = SplitSample(hist(2, 1, 0, 5, 3, 0, 1, 1), hist(0, 1, 2, 4, 0, 1, 0, 0), rate=150.0)
        at_mass = estimators.CoefficientTables(spec, params, min(params.v_max, params.u_max), [1 / k])

        def refuse(self, symbols):
            raise AssertionError("a one-row set needs no row lookup")

        monkeypatch.setattr(estimators.CoefficientTables, "table_for_symbols", refuse)
        default = amplified_estimate_detailed(sample, spec, params)
        explicit = amplified_estimate_detailed(sample, spec, params, at_mass)
        assert default.n_small == explicit.n_small == 6
        assert math.isfinite(default.value) and default.small_sum != 0.0
        assert np.float64(default.value).tobytes() == np.float64(explicit.value).tobytes()
        assert np.float64(default.small_sum).tobytes() == np.float64(explicit.small_sum).tobytes()

    def test_reading_flags_computes_nothing(self):
        table = build_coefficient_table(entropy(), clamping_params())
        table.weights([17, 212])
        clamped, cancelled = table.clamped, table.cancelled
        np.testing.assert_array_equal(table.computed, [17, 212])
        assert np.flatnonzero(clamped).tolist() == [212]
        assert not cancelled.any()
        with pytest.raises(ValueError):
            clamped[1] = True

    @pytest.mark.parametrize("params, flagged, flag", [
        (clamping_params(), 212, "clamped"),
        (derive_params(1e5, entropy(), v_max=1000), 838, "cancelled"),
    ], ids=["clamped", "cancelled"])
    def test_read_counts_only_the_flagged_entries_it_reads(self, params, flagged, flag):
        tables = build_coefficient_tables(entropy(), params, v_max=params.v_max)
        (table,) = tables.tables
        assert tables.read(0, np.array([1, 2, 17]))[1:] == (0, 0)
        tables.read(0, np.array([flagged, flagged + 1]))
        assert getattr(table, flag)[flagged]
        # Once some entry is flagged, a read of unflagged entries still counts none.
        assert tables.read(0, np.array([1, 2, 17]))[1:] == (0, 0)
        v = np.array([17, flagged, flagged, flagged + 1])
        counts = np.count_nonzero(table.clamped[v]), np.count_nonzero(table.cancelled[v])
        assert tables.read(0, v)[1:] == counts

    @pytest.mark.parametrize("params, length", [
        (small_params(), 7),
        (EstimatorParams(150.0, 3.0, 1, v_max=3), 3),
        # The README's n=59948 cell: 811 entries and a 1623-entry tail.
        (derive_params(59948, entropy()), 811),
    ], ids=["u_max", "v_max", "readme"])
    def test_tables_end_at_u_max(self, params, length):
        assert length == min(params.v_max, params.u_max)
        for spec in (entropy(), kl_divergence(make_distribution("zipf", 50).probs)):
            tables = build_coefficient_tables(spec, params)
            assert {table.v_max for table in tables.tables} == {length}
            assert len(tables.log_tail) == length + params.u_max + 1 == len(tables.log_fact)
        assert build_coefficient_table(entropy(), params).v_max == params.v_max

    @pytest.mark.parametrize("rates", [(1e5, 3e3, 200.0), (200.0, 3e3, 1e5)], ids=["large_first", "small_first"])
    def test_shared_log_factorials_match_gammaln(self, rates, monkeypatch):
        """Every prefix of the process-wide log factorials is right, whatever size was asked first."""
        monkeypatch.setattr(numerics, "_log_fact", np.zeros(0))
        for rate in rates:
            assert np.array_equal(numerics.log_poisson_tail_table(rate, 50), direct_log_poisson_tail_table(rate, 50))
            for spec in (entropy(), support_size(1000)):
                params = derive_params(rate, spec)
                for length in (1, params.u_max, params.v_max):
                    j_max = length + params.u_max
                    tables = build_coefficient_tables(spec, params, length)
                    log_tail, log_fact = tables.log_tail, tables.log_fact
                    assert np.array_equal(log_fact, gammaln(np.arange(j_max + 1, dtype=np.float64) + 1.0))
                    assert np.array_equal(log_tail, direct_log_poisson_tail_table(float(params.r), j_max))


def direct_log_poisson_tail_table(r, j_max):
    """``numerics.log_poisson_tail_table`` with its own ``gammaln`` call."""
    top = int(max(2 * math.ceil(r), j_max)) + 200
    i = np.arange(top + 1, dtype=np.float64)
    log_pmf = i * math.log(r) - r - gammaln(i + 1.0)
    running = np.logaddexp.accumulate(log_pmf[::-1])[::-1]
    return running[1 : j_max + 2] - running[0]


class TestSetLength:
    @pytest.mark.parametrize("v_max", [0, 10.5, 201, math.nan])
    def test_refused_outside_1_to_params_v_max(self, v_max):
        with pytest.raises(ValueError, match=rf"^v_max must be in 1\.\.200, got {v_max!r}$"):
            build_coefficient_tables(entropy(), small_params(), v_max)

    def test_integral_float_read_as_int(self):
        # 10.0 passed the range check and the first read raised "slice indices must be integers".
        tables = build_coefficient_tables(entropy(), small_params(), 10.0)
        assert type(tables.v_max) is int and tables.v_max == 10
        v = np.arange(11)
        expected = build_coefficient_tables(entropy(), small_params(), 10).read(0, v)
        assert tables.read(0, v)[0].tobytes() == expected[0].tobytes()


class TestZeroReferenceMass:
    """KL to a reference with zero masses: only a seen symbol of mass 0 is refused."""

    @staticmethod
    def _with_zeros(x):
        """``x`` with zeros inserted at ids 1 and 4, so that every later id moves."""
        return np.insert(np.asarray(x), [1, 3], 0)

    def test_zero_masses_change_no_bit(self):
        q = make_distribution("zipf", 50).probs
        qz = self._with_zeros(q)
        assert np.flatnonzero(qz == 0).tolist() == [1, 4]
        params = derive_params(2000.0, kl_divergence(q), preset=False, alpha=0.5, s0_mult=2.0)
        for seed in range(5):
            sample = split_sample(make_distribution("zipf", 50), 2000, rng=np.random.default_rng(seed))
            padded = SplitSample(Histogram(self._with_zeros(sample.first.array)),
                                 Histogram(self._with_zeros(sample.second.array)), sample.rate)
            detail = amplified_estimate_detailed(sample, kl_divergence(q), params)
            assert detail.n_small and detail.n_large
            assert amplified_estimate_detailed(padded, kl_divergence(qz), params) == detail
        assert build_coefficient_table(kl_divergence(qz), params, q_x=q[7]).values.tobytes() == (
            build_coefficient_table(kl_divergence(q), params, q_x=q[7]).values.tobytes()
        )

    @pytest.mark.parametrize("second", [0, 5], ids=["small_branch", "large_branch"])
    @pytest.mark.parametrize("params", [
        small_params(),  # r = 40: the series
        derive_params(150.0, kl_divergence(np.ones(2) / 2), preset=False, alpha=0.5, s0_mult=4.0),  # the route
    ], ids=["series", "route"])
    def test_seen_zero_mass_refused(self, second, params):
        spec = kl_divergence(np.array([0.5, 0.5, 0.0]))
        assert (build_coefficient_tables(spec, params).route is None) == (params.r == 40)
        sample = SplitSample(hist(3, 2, 1), hist(1, 0, second), rate=params.rate)
        with pytest.raises(ValueError, match=r"^KL divergence undefined: q_x = 0 with p_x > 0$"):
            amplified_estimate(sample, spec, params)
        # Unseen in the first stream, the zero-mass symbol adds an exact zero.
        unseen = SplitSample(hist(3, 2), hist(1, 0, second), rate=params.rate)
        dropped = SplitSample(hist(3, 2), hist(1), rate=params.rate)
        expected = amplified_estimate(dropped, kl_divergence(np.array([0.5, 0.5])), params)
        assert amplified_estimate(unseen, spec, params) == expected


class TestAmplified:
    def test_empty_sample(self):
        sample = SplitSample(hist(), hist(), rate=150.0)
        assert amplified_estimate(sample, entropy(), small_params()) == 0.0

    def test_single_rare_symbol_uses_table_weight(self):
        params = small_params()
        sample = SplitSample(hist(1), hist(), rate=150.0)
        target = build_coefficient_table(entropy(), params).weights(1)
        assert amplified_estimate(sample, entropy(), params) == pytest.approx(
            target, rel=1e-12, abs=0
        )

    def test_all_frequent_equals_modified_empirical(self):
        params = small_params()
        first = hist(30, 10)
        second = hist(params.s0 + 1, params.s0 + 1)
        sample = SplitSample(first, second, rate=150.0)
        assert amplified_estimate(sample, entropy(), params) == pytest.approx(
            modified_empirical(first, 150.0, entropy()), rel=1e-12, abs=0
        )

    def test_all_rare_uses_only_the_table(self):
        params = small_params()
        table = build_coefficient_table(entropy(), params)
        first = hist(2, 5)
        sample = SplitSample(first, hist(), rate=150.0)
        target = table.values[2] + table.values[5]
        detail = amplified_estimate_detailed(sample, entropy(), params)
        assert detail.value == pytest.approx(target, rel=1e-12, abs=0)
        assert detail.large_sum == 0.0

    def test_branch_partition(self):
        params = small_params()
        # ids a=0, b=1, c=2, d=3; the streams' vectors differ in length
        first = hist(1, 40, 2)
        second = hist(0, 5, 1, 9)
        sample = SplitSample(first, second, rate=150.0)
        detail = amplified_estimate_detailed(sample, entropy(), params)
        # s0 = 1: a (n2=0) and c (n2=1) are small; b and d are large
        assert detail.n_small == 2 and detail.n_large == 2
        table = build_coefficient_table(entropy(), params)
        small = table.values[1] + table.values[2]
        large = eval_fx_grid(entropy(), 40 / 150.0) + eval_fx_grid(entropy(), 0.0)
        assert detail.small_sum == pytest.approx(small, rel=1e-12, abs=0)
        assert detail.large_sum == pytest.approx(large, rel=1e-12, abs=0)
        assert detail.value == pytest.approx(small + large, rel=1e-12, abs=0)

    def test_symbols_absent_from_first_contribute_zero(self):
        params = small_params()
        sample = SplitSample(hist(), hist(1), rate=150.0)
        assert amplified_estimate(sample, entropy(), params) == 0.0

    def test_overflow_counts_beyond_table(self):
        params = EstimatorParams(150.0, 3.0, 1, v_max=2, t_decay=False)
        sample = SplitSample(hist(3), hist(), rate=150.0)
        detail = amplified_estimate_detailed(sample, entropy(), params)
        assert detail.n_overflow == 1
        assert detail.small_sum == 0.0

    def test_flag_counts_are_per_estimate(self):
        # support_coverage, which has no weight route, without decay: its series
        # entries cancel from v=12 and clamp from v=123 on, both at or below
        # u_max 155; the clamped ones cancel too.
        spec, params = support_coverage(2000.0), EstimatorParams(1000.0, 5.0, 13, t_decay=False)
        (table,) = build_coefficient_tables(spec, params).tables
        table.values
        assert params.u_max == 155 == table.v_max
        assert np.flatnonzero(table.clamped)[0] == 123 and np.flatnonzero(table.cancelled)[0] == 12
        clamped, cancelled, clean = 123, 12, 5
        assert not table.cancelled[clean]
        reads_all = SplitSample(hist(clamped, cancelled, clean), hist(), rate=params.rate)
        detail = amplified_estimate_detailed(reads_all, spec, params)
        assert (detail.n_clamped, detail.n_cancelled) == (1, 2)
        reads_clean = SplitSample(
            hist(clean, 2, clamped), hist(0, 0, params.s0 + 1), rate=params.rate
        )
        detail = amplified_estimate_detailed(reads_clean, spec, params)
        assert (detail.n_clamped, detail.n_cancelled) == (0, 0)

    def test_counts_past_u_max_overflow(self):
        # u_max 7: the weight at v=8 lacks the series' order-8 term and
        # reads -470, against 0.256 at v=7.
        params = small_params()
        assert params.u_max == 7 < params.v_max
        (table,) = build_coefficient_tables(entropy(), params).tables
        at_bound = SplitSample(hist(7), hist(), rate=150.0)
        detail = amplified_estimate_detailed(at_bound, entropy(), params)
        assert (detail.small_sum, detail.n_overflow) == (table.weights(7), 0)
        past = amplified_estimate_detailed(SplitSample(hist(8, 7), hist(), rate=150.0), entropy(), params)
        assert (past.value, past.small_sum, past.n_small, past.n_overflow) == (detail.value, detail.small_sum, 2, 1)
        # A longer table built on request is read no further.
        longer = build_coefficient_tables(entropy(), params, v_max=params.v_max)
        assert amplified_estimate_detailed(
            SplitSample(hist(8), hist(), rate=150.0), entropy(), params, longer
        ) == amplified_estimate_detailed(SplitSample(hist(8), hist(), rate=150.0), entropy(), params)

    def test_rate_mismatch_rejected(self):
        sample = SplitSample(hist(1), hist(), rate=100.0)
        with pytest.raises(ValueError):
            amplified_estimate(sample, entropy(), small_params())

    def test_tables_for_other_params_or_property_rejected(self):
        # Tables built for n=5000 used to turn this entropy estimate from 2.8135 into 1.6576.
        sample = split_sample(make_distribution("zipf", 1000), 1000, rng=np.random.default_rng(1))
        params = derive_params(1000, entropy())
        assert amplified_estimate(sample, entropy(), params) == pytest.approx(2.8135, abs=1e-4)
        for spec, tables in (
            (entropy(), build_coefficient_tables(entropy(), derive_params(5000, entropy()))),
            (support_size(1000), build_coefficient_tables(entropy(), derive_params(1000, support_size(1000)))),
        ):
            with pytest.raises(ValueError, match="tables were built"):
                amplified_estimate(sample, spec, derive_params(1000, spec), tables)

    def test_tables_for_an_equal_spec_and_params_accepted(self):
        q = np.array([0.5, 0.25, 0.25])
        tables = build_coefficient_tables(kl_divergence(q), small_params())
        sample = SplitSample(hist(1, 2, 1), hist(0, 3), rate=150.0)
        expected = amplified_estimate(sample, kl_divergence(q), small_params())
        assert amplified_estimate(sample, kl_divergence(q.copy()), small_params(), tables) == expected

    def test_offset_added_once(self):
        spec = distance_to_uniformity(10)
        params = small_params()
        sample = SplitSample(hist(), hist(), rate=150.0)
        assert amplified_estimate(sample, spec, params) == 1.0

    def test_reference_property_grouped_lookup(self):
        q = np.array([0.5, 0.25, 0.25])
        spec = l1_distance(q)
        params = small_params()
        tables = build_coefficient_tables(spec, params)
        sample = SplitSample(hist(1, 2, 1), hist(), rate=150.0)
        detail = amplified_estimate_detailed(sample, spec, params, tables)
        target = (
            build_coefficient_table(spec, params, q_x=0.5).weights(1)
            + build_coefficient_table(spec, params, q_x=0.25).weights(2)
            + build_coefficient_table(spec, params, q_x=0.25).weights(1)
        )
        assert detail.small_sum == pytest.approx(target, rel=1e-12, abs=0)

    def test_deterministic(self):
        params = small_params()
        sample = SplitSample(hist(2, 7), hist(0, 3), rate=150.0)
        a = amplified_estimate(sample, entropy(), params)
        b = amplified_estimate(sample, entropy(), params)
        assert a == b


class TestSymbolIds:
    @pytest.mark.parametrize("make_spec", [l1_distance, kl_divergence])
    @pytest.mark.parametrize("bad_id", [-1, 5])
    def test_ids_outside_q_rejected(self, make_spec, bad_id, tmp_path, capsys):
        # -1 used to read q[-1] in the small branch: the same estimate as id 4.
        # A count vector cannot hold it, so ids are checked where files are read.
        path = tmp_path / "counts.csv"
        path.write_text(f"{bad_id},1\n0,2\n", encoding="utf-8")
        prop = {l1_distance: "l1", kl_divergence: "kl"}[make_spec]
        for flags in (("--estimator", "empirical"), ("--rate", "150", "--t", "3", "--s0", "1")):
            argv = ["estimate", "--property", prop, "--q", "uniform", "--k", "5",
                    "--counts", str(path), *flags]
            assert cli.main(argv) == 1
            assert "symbol ids must lie in 0..4" in capsys.readouterr().err

    @pytest.mark.parametrize("make_spec", [l1_distance, kl_divergence])
    def test_count_vector_longer_than_q_rejected(self, make_spec):
        spec = make_spec(np.full(5, 0.2))
        first, second = hist(0, 0, 0, 0, 0, 1), hist(2)
        with pytest.raises(ValueError, match="symbol ids"):
            empirical(first, spec)
        with pytest.raises(ValueError, match="symbol ids"):
            amplified_estimate(SplitSample(first, second, 150.0), spec, small_params())
        # zero counts past the end of q are no symbols
        assert empirical(hist(0, 2, 0, 0, 0, 0), spec) == empirical(hist(0, 2), spec)

    @pytest.mark.parametrize("make_spec", [support_size, distance_to_uniformity])
    def test_count_vector_beyond_k_rejected(self, make_spec):
        # Ten equal counts used to read as uniform on 5 symbols: uniformity 0, support size 2.
        spec = make_spec(5)
        first = hist(*[1] * 10)
        with pytest.raises(ValueError, match="k=5"):
            empirical(first, spec)
        with pytest.raises(ValueError, match="k=5"):
            modified_empirical(first, 10.0, spec)
        with pytest.raises(ValueError, match="k=5"):
            amplified_estimate(SplitSample(hist(1), first, 150.0), spec, small_params())
        # zero counts past k are no symbols
        assert empirical(hist(0, 2, 0, 0, 0, 0, 0), spec) == empirical(hist(0, 2), spec)


class TestSmoothedHHat:
    def test_zero_lambda(self):
        assert smoothed_h_hat(entropy(), 0.0, small_params()) == (0.0, 0.0)

    def test_series_matches_quadrature(self):
        params = small_params()
        for lam in (0.1, 0.5, 1.0, 2.0):
            series, quad = smoothed_h_hat(entropy(), lam, params)
            assert abs(series - quad) < 1e-5

    def test_series_matches_quadrature_at_deep_orders(self):
        # u_max = 17: the unscaled Bessel integral reaches ~u! here and its
        # absolute error bound fails, so this pins the 1/u!-scaled kernel.
        spec = support_coverage(m=500.0)
        params = EstimatorParams(200.0, 3.5, 2, t_decay=False)
        for lam in (1.0, 2.0, 3.0, 5.0):
            series, quad = smoothed_h_hat(spec, lam, params)
            assert abs(series - quad) < 1e-5

    def test_decay_rejected(self):
        with pytest.raises(ValueError):
            smoothed_h_hat(entropy(), 0.5, small_params(t_decay=True))

    def test_v_max_below_the_first_truncation_refused(self):
        # The series would first stop at 16; the tail at v_max 10 is too
        # large for the envelope, so it refuses rather than truncate there.
        params = EstimatorParams(150.0, 3.0, 1, t_decay=False, v_max=10)
        with pytest.raises(ValueError, match="v_max too small"):
            smoothed_h_hat(entropy(), 0.5, params)
