"""Tests for the Monte-Carlo harness: seeding, aggregation, and CSV output."""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propest import benchmark
from propest.benchmark import (
    CSV_HEADER,
    ESTIMATORS,
    ExperimentConfig,
    mse,
    results_to_csv,
    run_experiment,
    trial_seed,
)
from propest.cli import main
from propest.distributions import (
    SPLIT_MODES,
    Distribution,
    Histogram,
    make_distribution,
    sample_histogram,
    split_sample,
)
from propest.properties import entropy, exact_value, kl_divergence, l1_distance, support_size

README_SWEEP = Path(__file__).parent / "data" / "readme_sweep.csv"


def mse_by_cell(csv_text):
    """``{n: {estimator: mse}}`` from a results CSV."""
    cells = {}
    for line in csv_text.splitlines()[1:]:
        _, _, _, n, estimator, _, value, *_ = line.split(",")
        cells.setdefault(int(n), {})[estimator] = float(value)
    return cells


class TestMse:
    def test_constant_estimates(self):
        assert mse([3.0, 3.0, 3.0], 3.0) == 0.0

    def test_symmetric_deviations(self):
        assert mse([2.0, 4.0], 3.0) == 1.0

    def test_direct_value(self):
        assert mse([0.5, 1.5, 1.0], 1.0) == pytest.approx(1 / 6, rel=1e-12, abs=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse([], 1.0)


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(7, 100, "empirical", 3) == trial_seed(7, 100, "empirical", 3)

    def test_distinct_inputs_distinct_outputs(self):
        seen = {
            trial_seed(s, n, est, t)
            for s in (0, 1)
            for n in (100, 1000)
            for est in ("amplified", "empirical")
            for t in range(30)
        }
        assert len(seen) == 2 * 2 * 2 * 30

    def test_64_bit_range(self):
        s = trial_seed(2**63, 10**6, "empirical_plusplus", 99)
        assert 0 <= s < 2**64

    @pytest.mark.parametrize("args, seed", [
        ((7, 1000, "amplified", 0), 0x232D69F40EA0FAC7),
        ((7, 59948, "empirical_plus", 64), 0x61E4344DBAF6615F),
        ((7, 0, "distribution", 0), 0xA4A43FB689523216),
        ((2**63, 10**6, "empirical_plusplus", 99), 0x0C99E51F136DC911),
    ])
    def test_pinned_values(self, args, seed):
        # The README sweep's cells and its distribution draw, beside the CSV pins.
        assert trial_seed(*args) == seed

    def test_avalanche(self):
        # flipping one master-seed bit should flip about half the output bits
        rng = np.random.default_rng(55)
        flips = []
        for _ in range(1000):
            master = int(rng.integers(0, 2**63))
            bit = int(rng.integers(0, 64))
            a = trial_seed(master, 1000, "amplified", 5)
            b = trial_seed(master ^ (1 << bit), 1000, "amplified", 5)
            flips.append(bin(a ^ b).count("1"))
        assert np.mean(flips) >= 20.0


def _trial_seed_reference(master_seed, n, estimator_id, trial_index):
    """trial_seed as first written: seven splitmix64 rounds per call, nothing shared."""
    mask = (1 << 64) - 1

    def splitmix64(z):
        z = (z + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    h = 0xCBF29CE484222325
    for b in estimator_id.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & mask
    s = splitmix64(int(master_seed) & mask)
    for part in (int(n) & mask, h, int(trial_index) & mask):
        s = splitmix64(s ^ splitmix64(part))
    return s


class TestTrialSeedReference:
    """The per-cell seed prefix gives every trial the seed of the one-call form."""

    @settings(max_examples=300, deadline=None)
    @given(
        master=st.integers(0, 2**64),
        n=st.integers(0, 2**63),
        estimator=st.one_of(
            st.sampled_from([*ESTIMATORS, "distribution"]),
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
        ),
        trial=st.integers(0, 2**63),
    )
    @example(master=2**64, n=2**63, estimator="entropie-\u00e9", trial=0)
    @example(master=7, n=59948, estimator="\u4f30\u8ba1\U0001f600", trial=2**63)
    def test_equals_the_one_call_form(self, master, n, estimator, trial):
        assert trial_seed(master, n, estimator, trial) == _trial_seed_reference(master, n, estimator, trial)


def _rate_vector_draw(probs, n, how, rng):
    """The counts a draw makes with numpy's rate-vector (or multinomial) call, in draw order."""
    if how == "fixed":
        return [rng.multinomial(int(round(n)), probs)]
    counts = rng.poisson(probs * float(n))
    if how == "histogram":
        return [counts]
    if how == "thinned":
        first = rng.binomial(counts, 0.5)
        return [first, counts - first]
    return [counts, counts if how == "shared" else rng.poisson(probs * float(n))]


def _arrays(drawn):
    return [drawn.array] if isinstance(drawn, Histogram) else [drawn.first.array, drawn.second.array]


class TestCellDraws:
    """A sweep cell draws its trials with the bits of the public samplers and of numpy's own calls."""

    CASES = [("amplified", mode, True) for mode in SPLIT_MODES]
    CASES += [("empirical", "histogram", True), ("empirical", "fixed", False)]

    @pytest.mark.parametrize("family, n", [("zipf", 1000), ("uniform", 12915)])
    @pytest.mark.parametrize("estimator, how, poissonized", CASES)
    def test_trials_draw_the_public_samplers_bits(self, monkeypatch, family, n, estimator, how, poissonized):
        cfg = ExperimentConfig(
            spec=entropy(), family=family, k=2000, n_grid=(n,), trials=3, seed=7,
            estimators=(estimator,), split_mode=how if estimator == "amplified" else "two_stream",
            poissonized=poissonized,
        )
        dist = benchmark.realized_distribution(cfg)
        drawn, rngs, default_rng = [], [], np.random.default_rng
        monkeypatch.setattr(benchmark, "amplified_estimate", lambda sample, *_: drawn.append(sample) or 0.0)
        monkeypatch.setattr(benchmark, "empirical", lambda hist, _: drawn.append(hist) or 0.0)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rngs.append(default_rng(seed)) or rngs[-1])
        run = benchmark._make_trial_fn(cfg, dist, n, estimator)
        for trial in range(cfg.trials):
            run(trial)
        monkeypatch.undo()
        assert len(drawn) == len(rngs) == cfg.trials
        for trial, (got, rng) in enumerate(zip(drawn, rngs)):
            seed = trial_seed(cfg.seed, n, estimator, trial)
            public, raw = default_rng(seed), default_rng(seed)
            if estimator == "amplified":
                want = split_sample(dist, n, mode=how, rng=public)
            else:
                want = sample_histogram(dist, n, poissonized=poissonized, rng=public)
            for a, b, c in zip(_arrays(got), _arrays(want), _rate_vector_draw(dist.probs, n, how, raw), strict=True):
                assert a.dtype == b.dtype == c.dtype and np.array_equal(a, b) and np.array_equal(a, c)
                assert not a.flags.writeable
            assert rng.bit_generator.state == public.bit_generator.state == raw.bit_generator.state


def _count_checked_constructions(monkeypatch):
    """Patch ``Histogram.__post_init__`` to count its calls; returns the one-element counter."""
    calls, check = [0], Histogram.__post_init__

    def counted(self):
        calls[0] += 1
        check(self)

    monkeypatch.setattr(Histogram, "__post_init__", counted)
    return calls


class TestUncheckedDraws:
    """The samplers skip Histogram's outside-input pass only below the total-rate bound."""

    def test_readme_scale_cell_makes_no_checked_histogram(self, monkeypatch):
        calls = _count_checked_constructions(monkeypatch)
        cfg = ExperimentConfig(
            spec=entropy(), family="zipf", k=10_000, n_grid=(1000,), trials=5, seed=7,
            estimators=("amplified", "empirical", "empirical_plus"),
        )
        assert all(row.error is None for row in run_experiment(cfg))
        assert calls == [0]

    def test_total_rate_past_the_bound_takes_the_checked_constructor(self, monkeypatch):
        calls = _count_checked_constructions(monkeypatch)
        probs = np.full(4, 2.0**58)  # total rate exactly 2^60: unchecked
        sample_histogram(Distribution(probs), 1.0, rng=np.random.default_rng(0))
        assert calls == [0]
        probs[0] += 2.0**8  # total rate 2^60 + 2^8, the next float past the bound
        split_sample(Distribution(probs), 1.0, rng=np.random.default_rng(0))
        assert calls == [2]

    def test_sweep_past_the_bound_keeps_the_total_refusal(self, monkeypatch):
        calls = _count_checked_constructions(monkeypatch)
        cfg = ExperimentConfig(
            spec=entropy(), family="uniform", k=10, n_grid=(2**62,), trials=2, seed=7,
            estimators=("empirical", "empirical_plus"),
        )
        rows = {row.estimator: row for row in run_experiment(cfg)}
        assert rows["empirical"].error is None  # a total near 2^62 passes the checks
        assert rows["empirical_plus"].error == "counts must total at most 2^63-1"
        assert math.isnan(rows["empirical_plus"].mse)
        assert calls == [3]  # both empirical trials, and the first empirical_plus trial


class TestConfigValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                spec=entropy(), family="uniform", k=4, n_grid=(100, 100),
                trials=2, seed=0,
            )

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                spec=entropy(), family="uniform", k=4, n_grid=(100,),
                trials=2, seed=0, estimators=("bogus",),
            )

    @pytest.mark.parametrize("manual", [dict(alpha=0.5), dict(s0_mult=4.0)])
    def test_alpha_and_s0_mult_together(self, manual):
        with pytest.raises(ValueError, match="together"):
            ExperimentConfig(
                spec=entropy(), family="uniform", k=4, n_grid=(100,),
                trials=2, seed=0, **manual,
            )

    @pytest.mark.parametrize("manual, message", [
        (dict(alpha=2.0, s0_mult=2.0), r"alpha must be in \[0, 1\], got 2.0"),
        (dict(alpha=0.5, s0_mult=-1.0), "s0_mult must be positive, got -1.0"),
        (dict(alpha=math.nan, s0_mult=2.0), r"alpha must be in \[0, 1\], got nan"),
    ], ids=["alpha_2", "s0_mult_negative", "alpha_nan"])
    def test_manual_tuning_checked_before_any_cell(self, manual, message):
        # Every amplified cell used to fail on its own, each leaving a nan row.
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(
                spec=entropy(), family="uniform", k=4, n_grid=(100,),
                trials=2, seed=0, **manual,
            )

    def test_repeated_estimator(self):
        with pytest.raises(ValueError, match="repeated"):
            ExperimentConfig(
                spec=entropy(), family="uniform", k=4, n_grid=(100,),
                trials=2, seed=0, estimators=("empirical", "empirical"),
            )

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_positive(self, threads):
        cfg = ExperimentConfig(
            spec=entropy(), family="uniform", k=4, n_grid=(100,), trials=2, seed=0,
            estimators=("empirical",),
        )
        with pytest.raises(ValueError, match="threads"):
            run_experiment(cfg, threads=threads)

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        # --threads 100000 asked the OS for a thread per trial; the fake pool starts none.
        workers = []

        class RecordingPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        cfg = ExperimentConfig(
            spec=entropy(), family="zipf", k=50, n_grid=(300,), trials=5, seed=3,
            estimators=("amplified", "empirical"),
        )
        serial = results_to_csv(run_experiment(cfg, threads=1))
        monkeypatch.setattr(benchmark, "ThreadPoolExecutor", RecordingPool)
        assert results_to_csv(run_experiment(cfg, threads=10**6)) == serial
        (count,) = workers
        assert count <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("field, value", [
        ("n_grid", (1000.7, 2000.2)), ("n_grid", (100, math.nan)), ("trials", 2.5), ("trials", math.inf),
        ("seed", 1.5), ("seed", math.nan),
    ])
    def test_non_integers_refused(self, field, value):
        # A fractional grid point was truncated; a fractional trial count passed and broke range();
        # a fractional seed drew every trial from its integer part and was written as given.
        given = dict(spec=entropy(), family="uniform", k=4, n_grid=(100,), trials=2, seed=0)
        with pytest.raises(ValueError, match=f"^{field} "):
            ExperimentConfig(**{**given, field: value})

    def test_integral_floats_become_ints(self):
        cfg = ExperimentConfig(spec=entropy(), family="uniform", k=4, n_grid=(100.0, np.int64(200)),
                               trials=2.0, seed=0, estimators=("empirical",))
        assert cfg.n_grid == (100, 200) and cfg.trials == 2
        assert all(type(v) is int for v in (*cfg.n_grid, cfg.trials))
        assert results_to_csv(run_experiment(cfg)).splitlines()[1].split(",")[5] == "2"

    @pytest.mark.parametrize("field, value, message", [
        ("n_grid", (0, 100), "n_grid entries must be positive"),
        ("split_mode", "bogus", "unknown split mode 'bogus'"),
    ], ids=["n_grid_zero", "split_mode"])
    def test_refused_with_message(self, field, value, message):
        given = dict(spec=entropy(), family="uniform", k=4, n_grid=(100,), trials=2, seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(**{**given, field: value})

    def test_integral_float_seed_writes_the_same_csv(self):
        given = dict(spec=entropy(), family="zipf", k=20, n_grid=(200,), trials=3,
                     estimators=("amplified", "empirical"), alpha=0.5, s0_mult=2.0)
        integral_float, integer = ExperimentConfig(**given, seed=7.0), ExperimentConfig(**given, seed=7)
        assert type(integral_float.seed) is int
        assert results_to_csv(run_experiment(integral_float)) == results_to_csv(run_experiment(integer))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                spec=entropy(), family="uniform", k=4, n_grid=(100,),
                trials=0, seed=0,
            )


class TestRunExperiment:
    def test_point_mass_single_trial(self):
        cfg = ExperimentConfig(
            spec=entropy(), family="uniform", k=1, n_grid=(200,),
            trials=1, seed=3, estimators=("empirical",),
        )
        (row,) = run_experiment(cfg)
        assert row.true_value == 0.0
        assert row.mse == pytest.approx(row.mean_estimate**2, rel=1e-12, abs=0)

    def test_single_trial_mse_is_squared_error(self):
        cfg = ExperimentConfig(
            spec=entropy(), family="zipf", k=50, n_grid=(500,),
            trials=1, seed=9, estimators=("empirical",),
        )
        (row,) = run_experiment(cfg)
        assert row.mse == pytest.approx((row.mean_estimate - row.true_value) ** 2)

    def test_empirical_consistency_uniform_k4(self):
        cfg = ExperimentConfig(
            spec=entropy(), family="uniform", k=4, n_grid=(10**6,),
            trials=50, seed=21, estimators=("empirical",), poissonized=False,
        )
        (row,) = run_experiment(cfg)
        assert row.true_value == pytest.approx(math.log(4), rel=1e-12, abs=0)
        assert row.mse < 1e-4

    def test_reproducible_and_thread_invariant(self):
        # KL and L1 with a non-uniform q read one table per distinct q mass.
        q = make_distribution("zipf", 200).probs
        per_q = dict(
            family="dirichlet", k=200, n_grid=(2000,), trials=6, seed=17,
            alpha=0.5, s0_mult=2.0, estimators=("amplified", "empirical"),
        )
        for cfg in (
            ExperimentConfig(
                spec=entropy(), family="zipf", k=100, n_grid=(300, 1000),
                trials=8, seed=17, estimators=("amplified", "empirical", "modified_empirical"),
            ),
            ExperimentConfig(spec=kl_divergence(q), **per_q),
            ExperimentConfig(spec=l1_distance(q), **per_q),
        ):
            a = run_experiment(cfg, threads=1)
            b = run_experiment(cfg, threads=1)
            c = run_experiment(cfg, threads=3)
            assert all(row.error is None for row in a)
            assert results_to_csv(a) == results_to_csv(b) == results_to_csv(c)

    def test_estimates_stable_under_estimator_subset(self):
        base = dict(spec=entropy(), family="zipf", k=50, n_grid=(300,), trials=5, seed=99)
        full = run_experiment(
            ExperimentConfig(estimators=("empirical", "modified_empirical"), **base)
        )
        solo = run_experiment(ExperimentConfig(estimators=("empirical",), **base))
        emp_full = [r for r in full if r.estimator == "empirical"][0]
        assert emp_full.mse == solo[0].mse
        assert emp_full.mean_estimate == solo[0].mean_estimate

    def test_failed_cell_marked_not_fatal(self):
        # amplified has no preset tuning for l1, so that cell fails cleanly
        cfg = ExperimentConfig(
            spec=l1_distance(np.full(8, 0.125)), family="uniform", k=8,
            n_grid=(500,), trials=3, seed=1,
            estimators=("amplified", "empirical"),
        )
        rows = run_experiment(cfg)
        by_est = {r.estimator: r for r in rows}
        assert by_est["amplified"].error is not None
        assert math.isnan(by_est["amplified"].mse)
        assert by_est["empirical"].error is None
        assert math.isfinite(by_est["empirical"].mse)

    def test_true_value_uses_realized_dirichlet(self):
        cfg = ExperimentConfig(
            spec=support_size(30), family="dirichlet", k=30, n_grid=(200,),
            trials=2, seed=88, estimators=("empirical",),
        )
        (row,) = run_experiment(cfg)
        dist_rng = np.random.default_rng(trial_seed(88, 0, "distribution", 0))
        dist = make_distribution("dirichlet", 30, None, rng=dist_rng)
        assert row.true_value == exact_value(support_size(30), dist.probs)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_readme_sweep_pinned(self, tmp_path, threads):
        # The README's CLI sweep, every cell byte for byte; trial 64 of
        # n=59948 reads the weight at v=59, which the series put at -497.
        # Threads share each cell's table.
        out = tmp_path / "results.csv"
        assert main([
            "simulate", "--property", "entropy", "--dist", "zipf", "--k", "10000",
            "--n-grid", "1000:100000:10", "--trials", "100", "--seed", "7",
            "--estimators", "amplified,empirical,empirical_plus", "--threads", threads,
            "--out", str(out),
        ]) == 0
        assert out.read_bytes() == README_SWEEP.read_bytes()

    def test_readme_sweep_amplified_beats_empirical_plus(self):
        # The headline claim on the pinned sweep: in every one of its ten cells,
        # amplified MSE at most that of the plug-in at n sqrt(log n) samples.
        cells = mse_by_cell(README_SWEEP.read_text(encoding="utf-8"))
        assert len(cells) == 10
        assert [n for n, cell in cells.items() if cell["amplified"] > cell["empirical_plus"]] == []

    def test_zipf_support_size_amplified_beats_empirical_plus(self, tmp_path):
        # The same claim for support size on the README's distribution, five
        # cells over its n range: the ratios fall from 0.97 to 0.37.
        out = tmp_path / "results.csv"
        assert main([
            "simulate", "--property", "support_size", "--dist", "zipf", "--k", "10000",
            "--n-grid", "1000:100000:5", "--trials", "100", "--seed", "7",
            "--estimators", "amplified,empirical_plus", "--out", str(out),
        ]) == 0
        cells = mse_by_cell(out.read_text(encoding="utf-8"))
        assert len(cells) == 5
        assert [n for n, cell in cells.items() if cell["amplified"] > cell["empirical_plus"]] == []

    def test_zipf_support_coverage_amplified_beats_empirical_plus(self, tmp_path):
        # The same claim for support coverage at m = 2k on that grid: the
        # ratios are 0.525, 0.288, 0.246, 0.323, 0.722.
        out = tmp_path / "results.csv"
        assert main([
            "simulate", "--property", "coverage", "--m", "20000", "--dist", "zipf", "--k", "10000",
            "--n-grid", "1000:100000:5", "--trials", "100", "--seed", "7",
            "--estimators", "amplified,empirical_plus", "--out", str(out),
        ]) == 0
        cells = mse_by_cell(out.read_text(encoding="utf-8"))
        assert len(cells) == 5
        assert [n for n, cell in cells.items() if cell["amplified"] > cell["empirical_plus"]] == []

    def test_readme_outlier_cells_pinned(self):
        # Threads share each cell's coefficient table while it is filled.
        cfg = ExperimentConfig(
            spec=entropy(), family="zipf", k=10_000, n_grid=(21544, 59948),
            trials=100, seed=7, estimators=("amplified",),
        )
        header, *lines = results_to_csv(run_experiment(cfg, threads=3)).splitlines()
        pinned = README_SWEEP.read_text(encoding="utf-8").splitlines()
        assert header == pinned[0]
        cells = ("entropy,zipf,10000,21544,amplified,", "entropy,zipf,10000,59948,amplified,")
        assert lines == [line for line in pinned if line.startswith(cells)]

    def test_aggregate_consistency(self):
        cfg = ExperimentConfig(
            spec=entropy(), family="zipf", k=40, n_grid=(200, 600),
            trials=6, seed=5, estimators=("empirical", "empirical_plus", "empirical_plusplus"),
        )
        for row in run_experiment(cfg):
            bound = row.mse + 2 * abs(row.mean_estimate) * abs(row.true_value) + row.true_value**2
            assert row.mean_estimate**2 <= bound + 1e-12


class TestCsv:
    def test_header_and_shape(self):
        cfg = ExperimentConfig(
            spec=entropy(), family="uniform", k=4, n_grid=(200,),
            trials=2, seed=0, estimators=("empirical",),
        )
        text = results_to_csv(run_experiment(cfg))
        lines = text.split("\n")
        # Derived from ResultRow's fields; readers of old sweeps rely on this exact text.
        assert CSV_HEADER == "property,distribution,k,n,estimator,trials,mse,mean_estimate,true_value,seed"
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3 and lines[-1] == ""
        assert text.count("\r") == 0

    def test_full_precision_round_trip(self):
        cfg = ExperimentConfig(
            spec=entropy(), family="zipf", k=30, n_grid=(150,),
            trials=3, seed=2, estimators=("empirical",),
        )
        rows = run_experiment(cfg)
        line = results_to_csv(rows).split("\n")[1]
        fields = line.split(",")
        assert float(fields[6]) == rows[0].mse
        assert float(fields[7]) == rows[0].mean_estimate
        assert float(fields[8]) == rows[0].true_value
