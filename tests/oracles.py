"""Reference evaluations shared by the test modules.

Weights in 256-bit arithmetic; the per-entry evaluation of a table's
signed-log weights in double precision that the batched one must match bit
for bit (:func:`coefficient_signed_log` and :func:`signed_log_sum_arrays`
compute one entry at a time, one numpy call per operation); and the
smoothed-expectation identity behind the weights, through scipy's Bessel
function and quadrature: :func:`smoothed_h_hat` evaluates the smoothed
per-symbol expectation both as the weights' power series and by
order-by-order quadrature of :func:`integrate_poisson_kernel_bessel`, and
:func:`check_quadrature_identity` and :func:`check_series_quadrature` hold
those routes to their closed form and to each other.  This is the one
module that imports scipy's Bessel and quadrature routines.
"""

import math
import warnings

import mpmath as mp
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import jv

from propest.estimators import EstimatorParams, build_coefficient_table
from propest.numerics import CANCELLATION_RTOL, log_factorials, log_poisson_tail_table
from propest.properties import PropertySpec, entropy, eval_fx_grid, support_coverage
from propest.selfcheck import CheckResult


def mp_poisson_tail(r, j):
    """``P(Poisson(r) > j)`` in the current precision, summed from its positive terms.

    The terms past ``j`` are added until, past the mode, one falls below the
    precision times the sum: ``1 - cdf`` cancels away once ``j`` is far past ``r``.
    """
    i, term, total = j + 1, mp.exp(-mp.mpf(r)) * mp.mpf(r) ** (j + 1) / mp.factorial(j + 1), mp.mpf(0)
    while i <= r or term > mp.eps * total:
        total += term
        i += 1
        term *= mp.mpf(r) / i
    return total


def mp_entropy_coefficient(v, params):
    """256-bit direct evaluation of the count-v weight for entropy."""
    with mp.workprec(256):
        t = mp.mpf(params.t_at(v))
        rate = mp.mpf(params.rate)
        total = mp.mpf(0)
        for u in range(1, min(params.u_max, v) + 1):
            p = u / (rate * t)
            if p > 1:
                p = mp.mpf(1)
            f = -p * mp.log(p) if p > 0 else mp.mpf(0)
            tail = mp_poisson_tail(params.r, v + u)
            total += (
                f
                * t**u
                * (t - 1) ** (v - u)
                * mp.binomial(v, u)
                * (-1) ** (v - u)
                * tail
            )
        return float(total)


def coefficient_signed_log(spec, v, params, qx, log_tail, log_fact):
    """Signed-log weight ``h_v * v!`` before clamping, plus cancellation flag."""
    t = params.t_at(v)
    u = np.arange(1, min(params.u_max, v) + 1)
    f = eval_fx_grid(spec, u / (params.rate * t), qx)
    with np.errstate(divide="ignore"):
        log_mag = (
            np.log(np.abs(f))
            + u * math.log(t / (t - 1.0))
            + v * math.log(t - 1.0)
            + log_fact[v]
            - log_fact[v - u]
            - log_fact[u]
            + log_tail[v + u]
        )
    parity = np.where((v - u) % 2 == 0, 1, -1)
    signs = np.sign(f).astype(np.int64) * parity
    return signed_log_sum_arrays(signs, log_mag)


def signed_log_sum_arrays(signs, log_mags):
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


def per_entry_table(tables, row):
    """Row ``row`` of a table set, ``(values, clamped, cancelled)``, one entry at a time.

    An entry the set's route covers (``v <= u_max`` and ``v <= rate * t_at(v)``)
    takes the route on its own, a one-entry array; any other the signed-log series.
    """
    n = tables.v_max + 1
    values, (clamped, cancelled) = np.zeros(n), np.zeros((2, n), dtype=bool)
    qx = tables.tables[row].q_x
    params = tables.params
    for v in range(1, n):
        t = params.t_at(v)
        if tables.route is not None and v <= params.u_max and v <= params.rate * t:
            (weight,) = tables.route(
                tables.spec, np.array([v]), np.array([t]), np.array([params.rate * t]),
                None if qx is None else np.array([qx]),
            )
            if weight and math.log(abs(weight)) > tables.log_clamp_bound:
                weight, clamped[v] = math.copysign(math.exp(tables.log_clamp_bound), weight), True
            values[v] = weight
            continue
        sign, log_mag, cancelled[v] = coefficient_signed_log(
            tables.spec, v, params, qx, tables.log_tail, tables.log_fact
        )
        if sign == 0:
            continue
        if log_mag > tables.log_clamp_bound:
            log_mag, clamped[v] = tables.log_clamp_bound, True
        values[v] = sign * math.exp(log_mag)
    return values, clamped, cancelled


# --- the smoothed-expectation identity, through scipy ---------------------

_QUAD_ABS_TOL = 1e-9
_HHAT_TAIL_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def bessel_f(u: int, y: float) -> float:
    """Bessel function of the first kind ``J_{2u}(2*sqrt(y))``, from scipy."""
    if u < 1 or u != int(u):
        raise ValueError(f"u must be a positive integer, got {u!r}")
    if y < 0:
        raise ValueError(f"y must be nonnegative, got {y!r}")
    return float(jv(2 * u, 2.0 * math.sqrt(y)))


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


def smoothed_h_hat(
    spec: PropertySpec,
    lam: float,
    params: EstimatorParams,
    q_x: float | None = None,
) -> tuple[float, float]:
    """Two independent evaluations of the smoothed per-symbol expectation.

    Returns ``(series, quadrature)``: the weight power series
    ``e^(-lam) * sum_v h_v lam^v`` truncated once its envelope tail drops
    below 1e-9, and the order-by-order quadrature of the smoothed integral
    on ``[0, r]``.  Each order ``u`` integrates the 1/u!-scaled kernel
    :func:`integrate_poisson_kernel_bessel`, whose integrand stays below 1
    in magnitude, so its absolute error bound holds at orders where the
    unscaled integral grows like ``u!``.  The two agree
    for exact arithmetic; comparing them cross-checks the entire
    coefficient pipeline.  Only meaningful with ``t_decay`` off and
    practical for small parameter settings.
    """
    if params.t_decay:
        raise ValueError(
            "smoothed expectation identity requires params with t_decay=False"
        )
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if lam == 0.0:
        return 0.0, 0.0
    table = build_coefficient_table(spec, params, q_x=q_x)
    qx, log_bound = table.q_x, table.log_clamp_bound
    log_tail = log_poisson_tail_table(lam, params.v_max)
    v_stop = min(max(16, 4 * params.s0), params.v_max)
    while (
        log_bound + log_tail[v_stop] >= math.log(_HHAT_TAIL_TOL)
        and v_stop < params.v_max
    ):
        v_stop = min(2 * v_stop, params.v_max)
    if log_bound + log_tail[v_stop] >= math.log(_HHAT_TAIL_TOL):
        raise ValueError(
            "params.v_max too small to truncate the series below the tail bound"
        )

    v = np.arange(1, v_stop + 1)
    log_weight = v * math.log(lam) - lam - log_factorials(v_stop + 1)[v]
    series = float(np.sum(table.weights(v) * np.exp(log_weight)))

    t = params.t
    y = lam * (t - 1.0)
    total = 0.0
    for u in range(1, params.u_max + 1):
        f = float(eval_fx_grid(spec, np.array([u / (params.rate * t)]), qx)[0])
        if f == 0.0:
            continue
        integral = integrate_poisson_kernel_bessel(u, y, upper=float(params.r))
        if integral == 0.0:
            continue
        log_scale = u * math.log(t / (t - 1.0))
        total += math.copysign(
            math.exp(math.log(abs(f)) + log_scale + math.log(abs(integral))),
            f * integral,
        )
    quadrature = math.exp(-lam) * total
    return series, quadrature


def _small_params(rate: float = 150.0, t: float = 3.0, s0: int = 1) -> EstimatorParams:
    return EstimatorParams(rate, t, s0, t_decay=False)


def check_quadrature_identity(deep: bool = False) -> CheckResult:
    """Integral of e^(-a) a^u / u! J_{2u}(2 sqrt(a y)) over [0, inf) equals e^(-y) y^u / u!.

    Deviations are relative to ``max(1/u!, target)``.  The quadrature stops
    at ``u + y + 50``: the rest is under 1e-11 of that scale on these grids.
    """
    us = range(1, 9) if deep else range(1, 6)
    ys = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0) if deep else (0.1, 1.0, 5.0, 20.0)
    worst = 0.0
    for u in us:
        inv_fact = 1.0 / math.factorial(u)
        for y in ys:
            target = math.exp(-y) * y**u * inv_fact
            value = integrate_poisson_kernel_bessel(u, y, upper=u + y + 50.0)
            worst = max(worst, abs(value - target) / max(inv_fact, target))
    return CheckResult(
        name="quadrature_identity",
        passed=worst < 1e-6,
        detail=f"worst relative deviation {worst:.3e} (tolerance 1e-6)",
    )


def check_series_quadrature(deep: bool = False) -> CheckResult:
    """Coefficient power series matches direct quadrature of the smoothed sum."""
    lams = (0.1, 0.5, 1.0, 2.0, 3.0, 5.0) if deep else (0.1, 0.5, 1.0, 2.0)
    cases = [(entropy(), _small_params())]
    if deep:
        cases.append((support_coverage(m=500.0), _small_params(rate=200.0, t=3.5, s0=2)))
    worst = 0.0
    for spec, params in cases:
        for lam in lams:
            series, quadrature = smoothed_h_hat(spec, lam, params)
            worst = max(worst, abs(series - quadrature))
    return CheckResult(
        name="series_quadrature_consistency",
        passed=worst < 1e-5,
        detail=f"worst |series - quadrature| {worst:.3e} (tolerance 1e-5)",
    )
