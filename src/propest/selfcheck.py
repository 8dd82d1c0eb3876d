"""Built-in numerical validation of the coefficient pipeline.

Each check pits an implementation path against an independent route to the
same quantity: the closed form of the Bessel-weighted integral, quadrature
against the coefficient power series (the Poisson-weighted sum of the table
entries, so a corrupted weight fails it), and the analytic envelope on the
coefficient magnitudes.  A corrupted build fails loudly here before it can
corrupt benchmark numbers.

The Bessel factor, its quadrature and the smoothed-expectation oracle live
here too, so this is the one module that imports scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import jv

from .estimators import EstimatorParams, build_coefficient_table
from .numerics import log_factorials, log_poisson_tail_table
from .properties import PropertySpec, entropy, eval_fx_grid, support_coverage

__all__ = ["CheckResult", "ConvergenceError", "bessel_f", "integrate_poisson_kernel_bessel",
           "run_selfcheck", "smoothed_h_hat"]

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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


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


def check_coefficient_bound(deep: bool = False) -> CheckResult:
    """Every tabulated weight respects the analytic envelope, unclamped."""
    cases = [(entropy(), _small_params())]
    if deep:
        cases.append((entropy(), _small_params(rate=500.0, t=4.0, s0=2)))
    worst_ratio = 0.0
    clamped = 0
    for spec, params in cases:
        table = build_coefficient_table(spec, params)
        top = float(np.max(np.abs(table.values)))  # completes the table and its flags
        worst_ratio = max(worst_ratio, top / math.exp(table.log_clamp_bound))
        clamped += int(table.clamped.sum())
    return CheckResult(
        name="coefficient_bound",
        passed=worst_ratio <= 1.0 and clamped == 0,
        detail=(
            f"largest |weight|/envelope {worst_ratio:.3e}, "
            f"{clamped} clamping events (expect 0 at these settings)"
        ),
    )


_CHECKS = (
    ("quadrature_identity", check_quadrature_identity),
    ("series_quadrature_consistency", check_series_quadrature),
    ("coefficient_bound", check_coefficient_bound),
)


def run_selfcheck(deep: bool = False) -> list[CheckResult]:
    """Run all checks; every result carries a one-line diagnostic.

    A check that raises is reported as failed, with the exception type and
    message as its diagnostic, and the remaining checks still run.
    """
    results = []
    for name, check in _CHECKS:
        try:
            results.append(check(deep))
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(name=name, passed=False, detail=detail))
    return results
