"""Tests for the Monte-Carlo harness: seeding, aggregation, and CSV output."""

import math
from pathlib import Path

import numpy as np
import pytest

from propest.benchmark import (
    CSV_HEADER,
    ExperimentConfig,
    mse,
    results_to_csv,
    run_experiment,
    trial_seed,
)
from propest.cli import main
from propest.distributions import make_distribution
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

    def test_readme_sweep_pinned(self, tmp_path):
        # The README's CLI sweep, every cell byte for byte; trial 64 of
        # n=59948 reads the weight at v=59, which the series put at -497.
        out = tmp_path / "results.csv"
        assert main([
            "simulate", "--property", "entropy", "--dist", "zipf", "--k", "10000",
            "--n-grid", "1000:100000:10", "--trials", "100", "--seed", "7",
            "--estimators", "amplified,empirical,empirical_plus", "--threads", "1",
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
