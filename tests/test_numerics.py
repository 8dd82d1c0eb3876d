"""Tests for the log-space and special-function primitives.

High-precision oracles come from mpmath at 256 bits or more; simple derived
values are recomputed in the test from their defining products or series so
they stay independent of the implementation.
"""

import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from propest import numerics, selfcheck
from propest.numerics import (
    log_factorials,
    log_poisson_tail_table,
    signed_log_sum_arrays,
)
from propest.selfcheck import ConvergenceError, bessel_f, integrate_poisson_kernel_bessel


def _mp_poisson_cdf(r, j, terms=None):
    with mp.workprec(256):
        s = mp.fsum(mp.mpf(r) ** i / mp.factorial(i) for i in range(j + 1))
        return mp.exp(-mp.mpf(r)) * s


def _mp_log_poisson_tails(r, j_max):
    # log P(Poisson(r) > j) for j in 0..j_max: the pmf by its recurrence,
    # summed backward from far enough past max(2r, j_max) to be exact here
    with mp.workprec(300):
        top = max(2 * r, j_max) + 400
        pmf = [mp.exp(-mp.mpf(r))]
        for i in range(1, top + 1):
            pmf.append(pmf[-1] * r / i)
        tails = []
        total = mp.mpf(0)
        for i in range(top, 0, -1):
            total += pmf[i]
            if i <= j_max + 1:
                tails.append(float(mp.log(total)))
        return np.array(tails[::-1])


class TestPoissonTail:
    def test_zero_rate_point_mass(self):
        assert np.all(log_poisson_tail_table(0.0, 5) == -math.inf)

    def test_single_term_complement(self):
        (log_tail,) = log_poisson_tail_table(1.0, 0)
        assert math.exp(log_tail) == pytest.approx(1 - math.exp(-1), rel=1e-14, abs=0)

    def test_deep_tail_series_oracle(self):
        # direct 64-term series in extended precision
        oracle = float(1 - _mp_poisson_cdf(5, 60))
        value = math.exp(log_poisson_tail_table(5.0, 60)[60])
        assert value < 1e-12
        assert value == pytest.approx(oracle, rel=1e-6, abs=0)

    def test_negative_rate_or_j_max_refused(self):
        with pytest.raises(ValueError, match="rate"):
            log_poisson_tail_table(-1.0, 5)
        with pytest.raises(ValueError, match="j_max"):
            log_poisson_tail_table(3.7, -1)

    def test_complement_identity(self):
        for r in (0.5, 1.0, 5.0, 20.0, 100.0, 200.0):
            js = (0, 1, 3, int(r), int(2 * r) + 5)
            table = log_poisson_tail_table(r, max(js))
            for j in js:
                cdf = float(_mp_poisson_cdf(r, j))
                assert math.exp(table[j]) + cdf == pytest.approx(1.0, abs=1e-12)

    @given(
        r=st.floats(min_value=0.01, max_value=50.0),
        j_max=st.integers(min_value=0, max_value=121),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonincreasing_in_j(self, r, j_max):
        table = log_poisson_tail_table(r, j_max)
        assert np.all(np.diff(np.exp(table)) <= 1e-15)
        assert np.all(table <= 0.0)

    def test_log_tail_matches_mpmath_deep(self):
        for r, j in ((40, 300), (2, 80), (3454, 14000)):
            oracle = _mp_log_poisson_tails(r, j)[j]
            assert log_poisson_tail_table(float(r), j)[j] == pytest.approx(oracle, rel=1e-10, abs=0)

    def test_tails_far_below_the_mode_are_exactly_zero(self):
        # Each of these tails is 1 to within 1e-50; a rounding shift shared
        # by the log pmf terms near the mode would show here as a nonzero log.
        assert np.all(log_poisson_tail_table(4061.0, 120) == 0.0)
        assert np.all(log_poisson_tail_table(276.0, 60) == 0.0)

    def test_log_tails_up_to_the_mode_match_mpmath(self):
        # 2733 and 4061 are the tail levels of the README sweep at n = 1000
        # and 59948.
        for r in (5, 40, 276, 2733, 4061):
            err = log_poisson_tail_table(float(r), r) - _mp_log_poisson_tails(r, r)
            assert np.max(np.abs(err)) <= 1e-12, r

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.5, 7.0, 20.0, 40.0, 100.0, 276.0, 500.0, 1509.0, 2733.0, 4061.0, 4350.0])
    def test_shorter_tables_are_bit_for_bit_prefixes(self, r):
        # Coefficient tables size their tail by their own length, so a short
        # and a long table must read the same bits; the truncation point
        # max(2r, j_max) + 200 moves with j_max past 2r.
        longest = log_poisson_tail_table(r, 20000)
        knee = 2 * math.ceil(r)
        for j_max in sorted({0, 1, 2, 7, 19, 546, knee - 1, knee, knee + 1, knee + 250, 5000, 20000}):
            assert log_poisson_tail_table(r, j_max).tobytes() == longest[: j_max + 1].tobytes(), j_max


def test_log_factorials_are_one_read_only_array(monkeypatch):
    monkeypatch.setattr(numerics, "_log_fact", np.zeros(0))
    small = log_factorials(10)
    large = log_factorials(1000)
    assert len(numerics._log_fact) == 1000
    assert np.array_equal(large, gammaln(np.arange(1000, dtype=np.float64) + 1.0))
    assert np.array_equal(large[:10], small) and np.array_equal(log_factorials(10), small)
    with pytest.raises(ValueError):
        large[0] = 1.0


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_log_factorials_hold_gammaln_bits(monkeypatch):
    """The Cephes ``lgam`` port equals ``gammaln`` bit for bit over 0..3e5.

    The array grows in pieces whose edges fall on both branch points of
    ``lgam`` (x = 13 and x = 1000), and the comparison is of the bits, so a
    libm or a log that rounds one entry differently fails here.
    """
    monkeypatch.setattr(numerics, "_log_fact", np.zeros(0))
    for n in (12, 13, 999, 1000, 1001, 300_001):
        log_factorials(n)
    reference = gammaln(np.arange(300_001, dtype=np.float64) + 1.0)
    assert np.array_equal(_bits(log_factorials(300_001)), _bits(reference))
    # one piece across both branch points
    assert np.array_equal(_bits(numerics._lgam_range(5, 2000)), _bits(reference[4:1999]))


def test_lgam_port_holds_gammaln_bits_past_1e8():
    """A range across x = 1e8, where ``lgam`` drops its correction term.

    The term is below half an ulp of the result there, so this pins the
    Stirling form at the largest arguments, computed without a 1e8-long prefix.
    """
    x = np.arange(10**8 - 2000, 10**8 + 2000, dtype=np.float64)
    assert np.array_equal(_bits(numerics._lgam_range(10**8 - 2000, 10**8 + 2000)), _bits(gammaln(x)))


def test_log_factorials_grow_under_concurrent_calls(monkeypatch):
    """Threads growing the array in interleaved steps each get the right prefix, and no growth is lost."""
    sizes = [[100 * k + i for k in range(1, 101)] for i in range(8)]
    reference = gammaln(np.arange(max(map(max, sizes)), dtype=np.float64) + 1.0)
    wrong, lengths = [], []

    def ask(start, ns):
        start.wait(timeout=60)
        wrong.extend(n for n in ns if not np.array_equal(log_factorials(n), reference[:n]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(numerics, "_log_fact", np.zeros(0))
            start = threading.Barrier(len(sizes))
            threads = [threading.Thread(target=ask, args=(start, ns)) for ns in sizes]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            lengths.append(len(numerics._log_fact))
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert lengths == [len(reference)] * 10


class TestBessel:
    def test_zero_argument(self):
        assert bessel_f(1, 0.0) == 0.0

    def test_direct_30_term_series(self):
        oracle = math.fsum(
            (-1) ** i / (math.factorial(i) * math.factorial(i + 2)) for i in range(30)
        )
        assert bessel_f(1, 1.0) == pytest.approx(oracle, rel=1e-14, abs=0)

    def test_oscillatory_regime_bounded(self):
        assert abs(bessel_f(3, 100.0)) <= 1.0

    def test_envelope_bound(self):
        for u in range(1, 7):
            for y in (0.0, 0.1, 1.0, 5.0, 20.0, 49.0, 100.0, 400.0, 2000.0):
                assert abs(bessel_f(u, y)) <= min(1.0, y / (u + 1)) + 1e-12

    def test_rejects_bad_arguments(self):
        for u, y in ((0, 1.0), (1.5, 1.0), (1, -1.0)):
            with pytest.raises(ValueError):
                bessel_f(u, y)

    def test_matches_mpmath(self):
        for u in (1, 2, 5):
            for y in (0.3, 4.0, 30.0, 49.5, 50.5, 80.0, 400.0, 1500.0):
                with mp.workprec(256):
                    oracle = float(mp.besselj(2 * u, 2 * mp.sqrt(mp.mpf(y))))
                assert bessel_f(u, y) == pytest.approx(oracle, rel=1e-9, abs=1e-12)


class TestIntegrateExpPolyBessel:
    """``integrate_poisson_kernel_bessel``: e^(-a) a^u / u! J_{2u}(2 sqrt(a y)) over [0, upper]."""

    @staticmethod
    def integral(u, y, upper=None):
        # past u + y + 50 the integrand holds a negligible share of the integral
        return integrate_poisson_kernel_bessel(u, y, u + y + 50.0 if upper is None else upper)

    def test_zero_y(self):
        assert self.integral(1, 0.0) == 0.0

    def test_closed_form_value(self):
        target = math.exp(-1.5) * 1.5**2 / 2
        value = self.integral(2, 1.5)
        assert value == pytest.approx(target, abs=1e-6 * max(0.5, target))

    def test_closed_form_grid(self):
        for u in range(1, 6):
            inv_fact = 1.0 / math.factorial(u)
            for y in (0.1, 1.0, 5.0, 20.0):
                target = math.exp(-y) * y**u * inv_fact
                value = self.integral(u, y)
                assert abs(value - target) < 1e-6 * max(inv_fact, target)

    def test_error_bound_relative_to_large_values(self):
        # Unscaled, the integral is e^-5 5^8 ~ 2632; scaled by 1/8! it stays
        # below 1, where the kernel's absolute error bound is tight.
        target = math.exp(-5.0) * 5.0**8 / math.factorial(8)
        assert self.integral(8, 5.0) == pytest.approx(target, rel=1e-12, abs=0)

    def test_large_error_estimate_raises(self, monkeypatch):
        monkeypatch.setattr(selfcheck, "quad", lambda *a, **k: (0.065, 1e-3))
        with pytest.raises(ConvergenceError):
            self.integral(8, 5.0, upper=40.0)

    def test_finite_upper_against_mpmath(self):
        with mp.workprec(128):
            oracle = float(
                mp.quad(
                    lambda a: mp.exp(-a) * a * mp.besselj(2, 2 * mp.sqrt(2 * a)),
                    [0, 8],
                )
            )
        assert self.integral(1, 2.0, upper=8.0) == pytest.approx(oracle, abs=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            self.integral(0, 1.0)
        with pytest.raises(ValueError):
            self.integral(1, -1.0)
        with pytest.raises(ValueError):
            self.integral(1, 1.0, upper=0.0)


class TestAlternatingSum:
    """Signed sums in log space, through ``signed_log_sum_arrays``."""

    def test_empty_is_exact_zero(self):
        empty = signed_log_sum_arrays(np.array([], dtype=np.int64), np.array([]))
        assert empty == (0, -math.inf, False)

    def test_exact_cancellation(self):
        sign, log_mag, cancelled = signed_log_sum_arrays(
            np.array([1, -1]), np.array([1.0, 1.0])
        )
        assert (sign, log_mag) == (0, -math.inf)
        assert cancelled

    def test_near_cancellation_value(self):
        # e^10 - e^10 * (1 - 1e-6), oracle in extended precision
        with mp.workprec(256):
            oracle = float(mp.e**10 - mp.e**10 * (1 - mp.mpf("1e-6")))
        sign, log_mag, cancelled = signed_log_sum_arrays(
            np.array([1, -1]), np.array([10.0, 10.0 + math.log1p(-1e-6)])
        )
        assert sign * math.exp(log_mag) == pytest.approx(oracle, rel=1e-9, abs=0)
        assert not cancelled

    def test_randomized_against_mpmath(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        for _ in range(300):
            count = rng.integers(2, 60)
            mags = rng.uniform(-20.0, 30.0, size=count)
            signs = rng.choice([-1, 1], size=count)
            with mp.workprec(256):
                exact = mp.fsum(
                    int(s) * mp.exp(mp.mpf(float(m))) for s, m in zip(signs, mags)
                )
                max_term = mp.exp(mp.mpf(float(mags.max())))
                if abs(exact) <= mp.mpf("1e-8") * max_term:
                    continue
                oracle = float(exact)
            sign, log_mag, _ = signed_log_sum_arrays(signs, mags)
            assert sign * math.exp(log_mag) == pytest.approx(oracle, rel=1e-9, abs=0)
            checked += 1
        assert checked > 200

    def test_signed_log_sum_reports_flag(self):
        # 1 - (1 - 1e-12) is nonzero but below 1e-10 of the largest term.
        sign, _, cancelled = signed_log_sum_arrays(
            np.array([1, -1]), np.array([0.0, math.log1p(-1e-12)])
        )
        assert sign == 1 and cancelled

    def test_zero_terms_ignored(self):
        sign, log_mag, cancelled = signed_log_sum_arrays(
            np.array([0, 1]), np.array([-math.inf, 0.0])
        )
        assert sign * math.exp(log_mag) == pytest.approx(1.0, rel=1e-15, abs=0)
        assert not cancelled
