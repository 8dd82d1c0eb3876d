"""Tests for the benchmark distributions and Poissonized sampling."""

import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from propest.distributions import (
    FAMILIES,
    Distribution,
    Histogram,
    make_distribution,
    sample_histogram,
    split_sample,
)


class TestMakeDistribution:
    def test_uniform(self):
        d = make_distribution("uniform", 5)
        np.testing.assert_allclose(d.probs, 0.2, rtol=1e-15)

    def test_zipf_direct_normalization(self):
        d = make_distribution("zipf", 3)
        raw = np.array([1.0, 2.0**-1.5, 3.0**-1.5])
        np.testing.assert_allclose(d.probs, raw / raw.sum(), rtol=1e-12)

    def test_geometric_ratio(self):
        d = make_distribution("geometric", 10000)
        # mass proportional to 0.01^(x-1) * 0.99
        np.testing.assert_allclose(d.probs[1] / d.probs[0], 0.01, rtol=1e-10)
        assert d.probs[0] == pytest.approx(0.99, rel=1e-10)

    def test_binomial_matches_scipy(self):
        # scipy.stats is the reference for both closed-form log-pmf families
        k, prob, mean = 50, 0.3, 30.0
        d = make_distribution("binomial", k, {"prob": prob})
        ref = sp_stats.binom.pmf(np.arange(k), k - 1, prob)
        np.testing.assert_allclose(d.probs, ref / ref.sum(), rtol=1e-10)
        d = make_distribution("poisson", k, {"mean": mean})
        ref = sp_stats.poisson.pmf(np.arange(k), mean)
        np.testing.assert_allclose(d.probs, ref / ref.sum(), rtol=1e-10)

    def test_poisson_heavy_truncation_survives(self):
        # nearly all Poisson(3000) mass lies beyond k=1000; renormalization
        # must happen in log space to avoid an all-zero vector
        d = make_distribution("poisson", 1000, {"mean": 3000.0})
        assert np.isfinite(d.probs).all()
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
        pos = d.probs[d.probs > 0]
        assert len(pos) > 300
        assert np.all(np.diff(pos) > 0)  # increasing toward the cut

    @pytest.mark.parametrize("family", FAMILIES)
    def test_normalized_at_large_k(self, family):
        k = 10**6 if family not in ("dirichlet", "binomial") else 10**4
        d = make_distribution(family, k, rng=3)
        assert abs(d.probs.sum() - 1.0) <= 1e-12
        assert np.all(d.probs >= 0)

    def test_dirichlet_deterministic_for_seed(self):
        a = make_distribution("dirichlet", 20, rng=42)
        b = make_distribution("dirichlet", 20, rng=42)
        c = make_distribution("dirichlet", 20, rng=43)
        np.testing.assert_array_equal(a.probs, b.probs)
        assert not np.array_equal(a.probs, c.probs)

    def test_dirichlet_requires_rng(self):
        with pytest.raises(ValueError):
            make_distribution("dirichlet", 10)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            make_distribution("zipf", 10, {"power": 0.0})
        with pytest.raises(ValueError):
            make_distribution("binomial", 10, {"prob": 1.0})
        with pytest.raises(ValueError):
            make_distribution("poisson", 10, {"mean": -1.0})
        with pytest.raises(ValueError):
            make_distribution("geometric", 10, {"prob": 0.0})
        with pytest.raises(ValueError):
            make_distribution("nope", 10)


class TestHistogram:
    def test_zero_counts_dropped(self):
        h = Histogram(np.array([2, 0]))
        assert h.counts == {0: 2}
        assert h.total == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram(np.array([0, -1]))

    @pytest.mark.parametrize("bad", [[1.5, 2.0], [[1, 2]], [np.nan]])
    def test_non_vector_or_non_integer_rejected(self, bad):
        with pytest.raises(ValueError):
            Histogram(np.array(bad))

    def test_from_array(self):
        given = np.array([0, 3, 0, 1])
        h = Histogram.from_array(given)
        assert h.counts == {1: 3, 3: 1}
        assert h.total == 4
        assert h.array.dtype == np.int64
        with pytest.raises(ValueError):
            h.array[0] = 1
        assert given.flags.writeable


class TestSampling:
    def test_fixed_size_total(self):
        d = make_distribution("uniform", 10)
        rng = np.random.default_rng(0)
        h = sample_histogram(d, 500, poissonized=False, rng=rng)
        assert h.total == 500

    def test_point_mass_poisson_moments(self):
        # single symbol: total ~ Poisson(100); check the mean over many trials
        d = Distribution(np.array([1.0]))
        rng = np.random.default_rng(123)
        trials = 10000
        totals = np.array(
            [sample_histogram(d, 100, rng=rng).total for _ in range(trials)]
        )
        se = math.sqrt(100.0 / trials)
        assert abs(totals.mean() - 100.0) < 4 * se
        assert abs(totals.var() - 100.0) < 40 * se

    def test_uniform_two_symbol_concentration(self):
        d = make_distribution("uniform", 2)
        rng = np.random.default_rng(5)
        h = sample_histogram(d, 10**6, rng=rng)
        for sym in (0, 1):
            assert abs(h.array[sym] / h.total - 0.5) < 0.002

    def test_per_symbol_means(self):
        d = make_distribution("zipf", 10)
        rng = np.random.default_rng(17)
        n, trials = 50.0, 10000
        sums = np.zeros(10)
        for _ in range(trials):
            h = sample_histogram(d, n, rng=rng)
            sums += h.array
        means = sums / trials
        target = n * d.probs
        se = np.sqrt(target / trials)
        assert np.all(np.abs(means - target) < 4 * se + 1e-9)


class TestSplitSample:
    def test_thinned_partitions_one_draw(self):
        d = make_distribution("zipf", 50)
        rng = np.random.default_rng(2)
        s = split_sample(d, 1000, mode="thinned", rng=rng)
        assert s.rate == 500.0
        # streams partition the parent draw symbol by symbol, so totals add
        assert s.first.total + s.second.total == int((s.first.array + s.second.array).sum())

    def test_thinned_marginal_rate(self):
        d = make_distribution("uniform", 4)
        rng = np.random.default_rng(9)
        trials, budget = 8000, 40.0
        tot = np.zeros(4)
        for _ in range(trials):
            s = split_sample(d, budget, mode="thinned", rng=rng)
            tot += s.first.array
        target = budget / 2 * 0.25
        se = math.sqrt(target / trials)
        assert np.all(np.abs(tot / trials - target) < 4 * se)

    def test_shared_aliases_the_stream(self):
        d = make_distribution("uniform", 10)
        rng = np.random.default_rng(3)
        s = split_sample(d, 100, mode="shared", rng=rng)
        assert s.first is s.second
        assert s.rate == 100.0

    def test_two_stream_uncorrelated(self):
        d = make_distribution("uniform", 10)
        rng = np.random.default_rng(31)
        budget, trials = 10**5, 200
        f = np.zeros((trials, 10))
        g = np.zeros((trials, 10))
        for t in range(trials):
            s = split_sample(d, budget, mode="two_stream", rng=rng)
            f[t], g[t] = s.first.array, s.second.array
        for sym in range(10):
            corr = np.corrcoef(f[:, sym], g[:, sym])[0, 1]
            assert abs(corr) < 0.02 + 3.0 / math.sqrt(trials)

    def test_mode_validation(self):
        d = make_distribution("uniform", 2)
        with pytest.raises(ValueError):
            split_sample(d, 10, mode="bogus", rng=np.random.default_rng(0))
