"""Built-in numerical validation of the coefficient pipeline.

Each check pits an implementation path against an independent route to the
same quantity: the closed form of the Bessel-weighted integral, quadrature
against the coefficient power series (the Poisson-weighted sum of the table
entries, so a corrupted weight fails it), and the analytic envelope on the
coefficient magnitudes.  A corrupted build fails loudly here before it can
corrupt benchmark numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .estimators import EstimatorParams, build_coefficient_table, smoothed_h_hat
from .properties import entropy, support_coverage

__all__ = ["CheckResult", "run_selfcheck"]


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
            value = numerics.integrate_poisson_kernel_bessel(u, y, upper=u + y + 50.0)
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
