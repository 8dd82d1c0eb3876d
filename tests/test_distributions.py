"""Tests for the benchmark distributions and Poissonized sampling."""

import hashlib
import math

import numpy as np
import pytest
from scipy import special as sp_special
from scipy import stats as sp_stats

from propest.distributions import (
    FAMILIES,
    SPLIT_MODES,
    Distribution,
    Histogram,
    make_distribution,
    sample_histogram,
    split_sample,
)
from propest.numerics import log1p


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
        assert d.probs[0] == pytest.approx(0.99, rel=1e-10, abs=0)

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

    @pytest.mark.parametrize("family, params", [("zipf", {"prob": 0.3}), ("uniform", {"power": 3.0})])
    def test_refuses_a_key_the_family_does_not_read(self, family, params):
        (key,) = params
        with pytest.raises(ValueError, match=f"^{family} does not read '{key}'$"):
            make_distribution(family, 10, params, rng=0)

    @pytest.mark.parametrize("family, key", [("zipf", "power"), ("poisson", "mean"),
                                             ("dirichlet", "concentration")])
    def test_refuses_an_infinite_parameter(self, family, key):
        # These once gave an all-NaN vector, refused later as not summing to 1.
        with pytest.raises(ValueError, match=rf"^{family} {key} must lie in \(0, inf\), got inf$"):
            make_distribution(family, 10, {key: math.inf}, rng=0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_default_is_inside_the_range(self, family):
        record = FAMILIES[family]
        assert (record.param is None) == (record.default is None) == (record.flag is None)
        if record.param is not None:
            assert 0 < record.default < record.high
            np.testing.assert_array_equal(
                make_distribution(family, 50, rng=1).probs,
                make_distribution(family, 50, {record.param: record.default}, rng=1).probs,
            )

    # sha256 of probs.tobytes() at k=1000, recorded before the families became records.
    PINNED = [
        ("poisson", None, "71d40234bfde0d68498b317adbc1e93cde1800254a06d31e103e6c9476ee8690"),
        ("poisson", {"mean": 5.0}, "11c3071d920bb6c46edf01f15d45c485fc5497117d0d5e49221280abbf1d5bea"),
        ("zipf", {"power": 2.0}, "d5491d0017cdd5b8bb609952a69d684b5570884a4dc9df0d0798f5deadb3dad1"),
        ("binomial", {"prob": 0.5}, "21306dd7aadea13e33902ef7521625ec7efe16f55e427f7e3e9a5c20a2476c5e"),
        # Recorded while scipy's log1p computed these; math.log1p moves both, math.log(1 + x) the second.
        ("binomial", None, "f7f4baf74e63716c8bfd3025d132d0ac0e96f5a01719159b2f0c6da5e8175462"),
        ("binomial", {"prob": 0.16}, "564097e2f685812b7b3e90d2cccb186ab3604d30f7fa87494d6e671ae3c05c66"),
        ("dirichlet", {"concentration": 1.0},
         "011edd346f627a07680ca7156964a2873f4f0e433361757d4ebfa72b76e04df2"),
    ]

    @pytest.mark.parametrize("family, params, digest", PINNED)
    def test_vector_bits_pinned(self, family, params, digest):
        probs = make_distribution(family, 1000, params, rng=np.random.default_rng(11)).probs
        assert hashlib.sha256(probs.tobytes()).hexdigest() == digest

    def test_log1p_port_matches_scipy_bits(self):
        # The binomial pmf reads log1p(-prob); math.log1p rounds some of the grid differently.
        grid = np.linspace(-0.999, 0.5, 300001)
        ported = np.array([log1p(x) for x in grid.tolist()])
        np.testing.assert_array_equal(ported.view(np.int64), sp_special.log1p(grid).view(np.int64))


class TestDistribution:
    def test_compares_by_identity(self):
        d = make_distribution("uniform", 3)
        assert d == d and d != make_distribution("uniform", 3)
        assert hash(d) == hash(d) and len({d, make_distribution("uniform", 3)}) == 2

    def test_constant_mass_is_exact_equality(self):
        assert make_distribution("uniform", 7).constant_mass == make_distribution("uniform", 7).probs[0]
        assert make_distribution("zipf", 7).constant_mass is None
        probs = np.full(9, 0.1)
        probs[4] = np.nextafter(0.1, 1.0)  # one ulp, neither first nor last
        assert Distribution(probs).constant_mass is None
        assert Distribution(np.zeros(0)).constant_mass is None


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

    @pytest.mark.parametrize("bad", [
        np.array([np.inf, 1.0]), np.array([np.nan]), np.array([2.0**63]), np.array([-1e30]),
        np.array([0.5]), np.array([2**63], dtype=np.uint64), np.array([3, -1]),
        np.array([2.0**63 - 1024, 0.0]), np.array([3.0]), [2**64], ["1", "2"], [1 + 2j, 3], [None],
        np.array([2**64 - 1], dtype=np.uint64), np.array([-1], dtype=np.int8),
    ])
    def test_bad_counts_one_message_no_warning(self, bad):
        # Only integer dtypes are counts, integral floats included.  A cast to int64 would
        # warn on inf or drop an imaginary part, and wrap a uint64 2^63 to a negative count.
        with pytest.raises(ValueError, match=r"^counts must be integers in 0\.\.2\^63-1$"):
            Histogram(bad)

    @pytest.mark.parametrize("copies", [2, 4])
    def test_total_above_int64_refused(self, copies):
        # The int64 sum wrapped: to 0 at four copies, to -2^63 at two.
        with pytest.raises(ValueError, match=r"^counts must total at most 2\^63-1$"):
            Histogram(np.full(copies, 2**62, dtype=np.int64))

    def test_largest_counts_accepted(self):
        assert Histogram(np.array([2**63 - 1], dtype=np.uint64)).total == 2**63 - 1
        assert Histogram(np.array([2**62, 2**62 - 1, 0])).total == 2**63 - 1

    @pytest.mark.parametrize("given, total", [
        (np.array([3, 0, 120], dtype=np.int8), 123),
        (np.array([7, 2**31 - 1], dtype=np.int32), 2**31 + 6),
        (np.array([True, False, True]), 2),
        (np.array([2**63 - 2, 1, 0], dtype=np.uint64), 2**63 - 1),
        (np.array([]), 0),
    ])
    def test_integer_dtypes_accepted(self, given, total):
        h = Histogram(given)
        assert h.array.dtype == np.int64 and h.array.tolist() == given.astype(np.int64).tolist()
        assert h.total == total and isinstance(h.total, int)

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

    def test_fixed_size_past_int64_refused(self):
        d = make_distribution("uniform", 10)
        assert sample_histogram(d, 2**63 - 1, poissonized=False, rng=np.random.default_rng(0)).total == 2**63 - 1
        for n in (2**63, 1e19, math.inf):
            with pytest.raises(ValueError) as exc:
                sample_histogram(d, n, poissonized=False, rng=np.random.default_rng(0))
            assert str(exc.value) == f"fixed sample size must be at most 2^63-1, got {n!r}"

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


class _PoissonSpy:
    """A generator that records whether each ``poisson`` call was given a rate array."""

    def __init__(self, rng):
        self.rng, self.rate_ndims = rng, []

    def poisson(self, lam, size=None):
        self.rate_ndims.append(np.ndim(lam))
        return self.rng.poisson(lam, size)

    def binomial(self, n, p):
        return self.rng.binomial(n, p)


def _rate_vector_draw(probs, n, how, rng):
    """The count vectors a draw makes with numpy's rate-array call, in draw order."""
    counts = rng.poisson(probs * float(n))
    if how == "histogram":
        return [counts]
    if how == "thinned":
        first = rng.binomial(counts, 0.5)
        return [first, counts - first]
    if how == "shared":
        return [counts, counts]
    return [counts, rng.poisson(probs * float(n))]


class TestConstantRate:
    """A distribution of one constant mass draws at a scalar rate with the rate vector's bits."""

    DRAWS = ["histogram", *SPLIT_MODES]

    @staticmethod
    def _draw(dist, n, how, rng):
        if how == "histogram":
            return [sample_histogram(dist, n, rng=rng).array]
        s = split_sample(dist, n, mode=how, rng=rng)
        return [s.first.array, s.second.array]

    @pytest.mark.parametrize("how", DRAWS)
    @pytest.mark.parametrize("lam", [0.0, 1e-6, 0.1, 1.0, 9.999, 10.0, 37.5, 1e4, 1e7])
    def test_counts_and_generator_state_match_the_rate_vector(self, lam, how):
        dist = Distribution(np.full(2000, lam))
        scalar, vector = _PoissonSpy(np.random.default_rng(19)), np.random.default_rng(19)
        got = self._draw(dist, 1.0, how, scalar)
        assert set(scalar.rate_ndims) == {0}
        for a, b in zip(got, _rate_vector_draw(dist.probs, 1.0, how, vector), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert scalar.rng.bit_generator.state == vector.bit_generator.state

    @pytest.mark.parametrize("how", DRAWS)
    def test_uniform_sample_matches_the_rate_vector(self, how):
        dist = make_distribution("uniform", 10**4)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for got, want in zip(self._draw(dist, 12915, how, a), _rate_vector_draw(dist.probs, 12915, how, b)):
            assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("how", DRAWS)
    def test_masses_one_ulp_apart_take_the_rate_vector(self, how):
        probs = np.full(1000, 1e-3)
        probs[500] = np.nextafter(1e-3, 1.0)
        spy = _PoissonSpy(np.random.default_rng(5))
        self._draw(Distribution(probs), 100.0, how, spy)
        assert set(spy.rate_ndims) == {1}

    @pytest.mark.parametrize("how", DRAWS)
    def test_oversized_rate_refused_as_by_the_rate_vector(self, how):
        probs = np.full(4, 1e19)
        with pytest.raises(ValueError, match="^lam value too large$"):
            self._draw(Distribution(probs), 1.0, how, np.random.default_rng(0))
        probs[2] = np.nextafter(1e19, 0.0)
        with pytest.raises(ValueError, match="^lam value too large$"):
            self._draw(Distribution(probs), 1.0, how, np.random.default_rng(0))


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

    @pytest.mark.parametrize("mode", SPLIT_MODES)
    def test_rate_is_the_mode_multiple_of_the_budget(self, mode):
        s = split_sample(make_distribution("uniform", 4), 40.0, mode=mode, rng=np.random.default_rng(0))
        assert s.rate == 40.0 * SPLIT_MODES[mode] == (20.0 if mode == "thinned" else 40.0)

    def test_mode_validation(self):
        d = make_distribution("uniform", 2)
        with pytest.raises(ValueError):
            split_sample(d, 10, mode="bogus", rng=np.random.default_rng(0))

    @pytest.mark.parametrize("budget", [0, -5.0, math.nan])
    def test_budget_must_be_positive(self, budget):
        with pytest.raises(ValueError, match=f"^budget must be positive, got {budget!r}$"):
            split_sample(make_distribution("uniform", 2), budget, rng=np.random.default_rng(0))
