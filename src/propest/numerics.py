"""Numerically robust primitives shared by the estimators and their self-checks.

Factorials, Poisson tail probabilities, and series terms routinely leave the
range of double precision, so every quantity here is carried as a
``(sign, log magnitude)`` pair and only converted to linear scale at the last
moment.  The Bessel factor and the adaptive quadrature over it exist to
cross-validate the coefficient machinery in :mod:`propest.estimators`; the
estimators themselves never integrate anything, so ``scipy.integrate`` (a
large share of a cold import) is imported only when a quadrature runs.
"""

from __future__ import annotations

import math
import threading
import warnings

import numpy as np
from scipy import special as _special

__all__ = [
    "ConvergenceError",
    "bessel_f",
    "integrate_poisson_kernel_bessel",
    "log_factorials",
    "log_poisson_tail",
    "log_poisson_tail_table",
    "signed_log_sum_arrays",
]

#: An alternating sum whose result is below this fraction of its largest term
#: has lost essentially all significance.
CANCELLATION_RTOL = 1e-10

_QUAD_ABS_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# log(i!) for i < len(_log_fact): one read-only array per process, replaced
# (never written) when a caller asks for more.
_log_fact = np.zeros(0)
_log_fact_lock = threading.Lock()


def log_factorials(n: int) -> np.ndarray:
    """``log(i!)`` for ``i`` in ``0..n-1``, as a read-only array.

    Every caller reads a prefix of one array per process, grown to exactly
    the largest ``n`` asked for.  ``gammaln`` is elementwise, so a prefix
    holds the same bits as a fresh ``gammaln(np.arange(n) + 1.0)``.
    """
    global _log_fact
    if len(_log_fact) < n:
        with _log_fact_lock:
            old = _log_fact
            if len(old) < n:
                grown = np.concatenate([old, _special.gammaln(np.arange(len(old), n, dtype=np.float64) + 1.0)])
                grown.flags.writeable = False
                _log_fact = grown
    return _log_fact[:n]


def log_poisson_tail(r: float, j: int) -> float:
    """Natural log of ``P(Poisson(r) > j)`` (0 for ``j < 0``), robust deep into the tail."""
    if r < 0:
        raise ValueError(f"rate must be nonnegative, got {r!r}")
    if j < 0:
        return 0.0
    if r == 0.0:
        return -math.inf
    sf = float(_special.gammainc(j + 1.0, r))
    if sf > 1e-290:
        return math.log(sf)
    # gammainc only underflows when j is far above r, where the term ratio
    # r/(j+2) < 1 makes the remaining series geometric-fast.
    m = j + 1
    lead = m * math.log(r) - r - math.lgamma(m + 1.0)
    total = 1.0
    term = 1.0
    i = m + 1
    while True:
        term *= r / i
        total += term
        if term <= 1e-18 * total:
            break
        i += 1
    return lead + math.log(total)


def log_poisson_tail_table(r: float, j_max: int) -> np.ndarray:
    """``log P(Poisson(r) > j)`` for every ``j`` in ``0..j_max`` at once.

    Computed as a backward running log-sum-exp over the log pmf, truncated
    far enough past ``max(2r, j_max)`` that the discarded mass is negligible
    relative to every returned tail.
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
    return running[1 : j_max + 2].copy()


def bessel_f(u: int, y: float) -> float:
    """Bessel function of the first kind ``J_{2u}(2*sqrt(y))``, from scipy."""
    if u < 1 or u != int(u):
        raise ValueError(f"u must be a positive integer, got {u!r}")
    if y < 0:
        raise ValueError(f"y must be nonnegative, got {y!r}")
    return float(_special.jv(2 * u, 2.0 * math.sqrt(y)))


def integrate_poisson_kernel_bessel(u: int, y: float, upper: float) -> float:
    """Integral of ``e^(-a) a^u / u! * J_{2u}(2*sqrt(a*y))`` over ``[0, upper]``.

    Over ``[0, inf)`` the integral is ``e^(-y) y^u / u!``.  The integrand
    never exceeds 1 in magnitude, so an absolute tolerance stays meaningful
    at orders ``u`` where the integral without the ``1/u!`` reaches ``u!``.
    Raises :class:`ConvergenceError` when the error estimate exceeds 1e-9.
    """
    if u < 1 or u != int(u):
        raise ValueError(f"u must be a positive integer, got {u!r}")
    if y < 0:
        raise ValueError(f"y must be nonnegative, got {y!r}")
    if not upper > 0:
        raise ValueError(f"upper must be positive, got {upper!r}")
    log_fact = math.lgamma(u + 1.0)

    def integrand(a: float) -> float:
        if a <= 0.0:
            return 0.0
        return math.exp(u * math.log(a) - a - log_fact) * bessel_f(u, a * y)

    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(
            integrand, 0.0, float(upper), epsabs=1e-12, epsrel=1e-12, limit=400
        )
    if not err <= _QUAD_ABS_TOL:
        raise ConvergenceError(
            f"quadrature error estimate {err:.3e} exceeds {_QUAD_ABS_TOL:.1e} "
            f"for u={u}, y={y}, upper={upper}"
        )
    return value


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
