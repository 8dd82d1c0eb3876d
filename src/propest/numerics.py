"""Numerically robust primitives shared by the estimators and their self-checks.

Factorials, Poisson tail probabilities, and series terms routinely leave the
range of double precision, so every quantity here is carried as a
``(sign, log magnitude)`` pair and only converted to linear scale at the last
moment.  Log factorials come from a port of Cephes ``lgam`` (Moshier 1989),
the routine behind ``scipy.special.gammaln``, and hold the same bits; the
binomial and poisson pmfs read them with :func:`log1p`, a port of Cephes
``log1p``.  Poisson tails come from one routine,
:func:`log_poisson_tail_table`, a backward log-sum-exp over the log pmf
normalised by its own computed mass.  Nothing here imports scipy.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

__all__ = [
    "log1p",
    "log_factorials",
    "log_poisson_tail_table",
    "signed_log_sum_arrays",
]

#: An alternating sum whose result is below this fraction of its largest term
#: has lost essentially all significance.
CANCELLATION_RTOL = 1e-10

# Cephes lgam: log(sqrt(2 pi)) and the Stirling series coefficients, highest first.
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _lgam_range(start: int, stop: int) -> np.ndarray:
    """Cephes ``lgam(x)`` for the integers ``x`` in ``start..stop-1`` (``start >= 1``).

    Below 13, the log of the product ``(x-1)...2`` in Cephes' order; above,
    the Stirling form, whose correction is a degree-4 polynomial in
    ``1/x^2`` below 1000, two terms up to 1e8 and none beyond.  Every
    ``log x`` goes through libm's ``math.log``, as in Cephes: ``np.log``
    rounds a few of them differently.
    """
    x = np.arange(start, stop, dtype=np.float64)
    out = np.empty(len(x))
    n_small = max(0, min(13, stop) - start)
    for i, u in enumerate(x[:n_small].tolist()):
        z = 1.0
        while u >= 3.0:
            u -= 1.0
            z *= u
        out[i] = math.log(z)
    x = x[n_small:]
    log_x = np.fromiter(map(math.log, x.tolist()), np.float64, len(x))
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    poly = np.full(len(x), _STIRLING[0])
    for c in _STIRLING[1:]:
        poly = poly * p + c
    two_term = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    correction = np.where(x < 1000.0, poly, two_term) / x
    out[n_small:] = np.where(x > 1.0e8, q, q + correction)
    return out


# Cephes log1p: numerator and denominator of its rational form, highest power first.
_LOG1P_P = (
    4.5270000862445199635215e-5, 4.9854102823193375972212e-1, 6.5787325942061044846969e0,
    2.9911919328553073277375e1, 6.0949667980987787057556e1, 5.7112963590585538103336e1,
    2.0039553499201281259648e1,
)
_LOG1P_Q = (
    1.0, 1.5062909083469192043167e1, 8.3047565967967209469434e1, 2.2176239823732856465394e2,
    3.0909872225312059774938e2, 2.1642788614495947685003e2, 6.0118660497603843919306e1,
)


def log1p(x: float) -> float:
    """Cephes ``log1p(x)``, the routine behind ``scipy.special.log1p``, bit for bit.

    ``math.log(1 + x)`` unless ``1 + x`` lies in ``[sqrt(1/2), sqrt(2)]``;
    there a rational form, where ``math.log1p`` rounds some ``x`` differently.
    """
    z = 1.0 + x
    if z < math.sqrt(0.5) or z > math.sqrt(2.0):
        return math.log(z)
    num, den = (functools.reduce(lambda acc, c: acc * x + c, coefs) for coefs in (_LOG1P_P, _LOG1P_Q))
    z = x * x
    return x + (-0.5 * z + x * (z * num / den))


# log(i!) for i < len(_log_fact): one read-only array per process, replaced
# (never written) when a caller asks for more.
_log_fact = np.zeros(0)
_log_fact_lock = threading.Lock()


def log_factorials(n: int) -> np.ndarray:
    """``log(i!)`` for ``i`` in ``0..n-1``, as a read-only array.

    Every caller reads a prefix of one array per process, grown to exactly
    the largest ``n`` asked for.  Entry ``i`` is :func:`_lgam_range` at
    ``i + 1``, bit for bit ``gammaln(i + 1.0)``, however the array grew.
    """
    global _log_fact
    if len(_log_fact) < n:
        with _log_fact_lock:
            old = _log_fact
            if len(old) < n:
                grown = np.concatenate([old, _lgam_range(len(old) + 1, n + 1)])
                grown.flags.writeable = False
                _log_fact = grown
    return _log_fact[:n]


def log_poisson_tail_table(r: float, j_max: int) -> np.ndarray:
    """``log P(Poisson(r) > j)`` for every ``j`` in ``0..j_max`` at once.

    Computed as a backward running log-sum-exp over the log pmf, truncated
    far enough past ``max(2r, j_max)`` that the discarded mass is negligible
    relative to every returned tail, and divided by the computed total mass.
    Rounding shifts the log pmf terms that carry the mass by nearly the same
    amount, up to ~4e-12 at ``r`` in the thousands; the division cancels
    that shift, so the tails where ``j`` is far below ``r`` are exactly 0
    and no tail exceeds 1.
    """
    if r < 0:
        raise ValueError(f"rate must be nonnegative, got {r!r}")
    if j_max < 0:
        raise ValueError(f"j_max must be nonnegative, got {j_max!r}")
    if r == 0.0:
        return np.full(j_max + 1, -math.inf)
    top = int(max(2 * math.ceil(r), j_max)) + 200
    i = np.arange(top + 1, dtype=np.float64)
    log_pmf = i * math.log(r) - r - log_factorials(top + 1)
    running = np.logaddexp.accumulate(log_pmf[::-1])[::-1]
    return running[1 : j_max + 2] - running[0]


def signed_log_sum_arrays(
    signs: np.ndarray, log_mags: np.ndarray
) -> tuple[int, float, bool]:
    """Sum of terms given as sign/log-magnitude arrays.

    Positive and negative groups are combined after shifting by the largest
    magnitude, so the result is exact up to one rounding of the grouped sums.
    Returns ``(sign, log_magnitude, cancelled)`` where ``cancelled`` reports a
    result below ``CANCELLATION_RTOL`` times the largest term.
    """
    signs = np.asarray(signs)
    log_mags = np.asarray(log_mags, dtype=np.float64)
    live = signs != 0
    if not live.any():
        return 0, -math.inf, False
    shift = float(log_mags[live].max())
    scaled = np.zeros(len(log_mags))
    scaled[live] = np.exp(log_mags[live] - shift)
    pos = float(np.sum(np.where(signs > 0, scaled, 0.0)))
    neg = float(np.sum(np.where(signs < 0, scaled, 0.0)))
    diff = pos - neg
    cancelled = abs(diff) < CANCELLATION_RTOL
    if diff == 0.0:
        return 0, -math.inf, cancelled
    return (1 if diff > 0 else -1), shift + math.log(abs(diff)), cancelled
