"""Built-in numerical validation of the coefficient tables, on numpy and the standard library.

Both checks compare a table's float weights with one exact route,
:func:`exact_weights`: the same sum in ``decimal``, from the same ``t`` and
the same float values of ``f_x``, each taken exactly.  It also gives each
weight's condition number ``sum |term| / |sum term|``, the factor by which
the float sum can amplify its rounding, so a tolerance scaled by it fails a
corrupted entry and passes an honest one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from decimal import Decimal, getcontext, localcontext

import numpy as np

from .estimators import EstimatorParams, _log_envelope, build_coefficient_table, derive_params
from .properties import PropertySpec, entropy, eval_fx_grid, kl_divergence, support_coverage, support_size

__all__ = ["CheckResult", "exact_weights", "run_selfcheck"]

# The sum at count v runs at _DIGITS + _DIGITS_PER_COUNT * v digits, which must
# exceed log10(cond) + _GUARD_DIGITS.
_DIGITS, _DIGITS_PER_COUNT, _GUARD_DIGITS = 40, 0.45, 20


def _poisson_tails(r: int, j_max: int) -> list[Decimal]:
    """``P(Poisson(r) > j)`` for ``j`` in ``0..j_max``, as sums of positive terms, in the current context.

    Past ``max(j_max + 1, 2r)`` each pmf term is at most half the one before,
    so the sum stops at a term below the precision times the smallest tail.
    """
    pmf = [(-Decimal(r)).exp()]
    while len(pmf) <= max(j_max + 1, 2 * r) or pmf[-1] * 10 ** getcontext().prec > pmf[j_max + 1]:
        pmf.append(pmf[-1] * r / len(pmf))
    return list(itertools.accumulate(reversed(pmf)))[::-1][1 : j_max + 2]


def exact_weights(
    spec: PropertySpec, params: EstimatorParams, counts, q_x: float | None = None
) -> tuple[list[Decimal], list[Decimal]]:
    """The weights at ``counts`` in ``decimal``, and their condition numbers.

    The weight at ``v`` is ``sum_{u=1..min(v, u_max)} C(v,u) t^u (1-t)^(v-u)
    f(u/lambda) P(Poisson(r) > v+u)``, with ``t = params.t_at(v)``,
    ``lambda = rate * t`` and ``f`` from :func:`eval_fx_grid`, evaluated once
    per ``t``.  Each sum runs at ``40 + 0.45 v`` digits; a condition number
    that leaves 20 of them or fewer raises ``ValueError``.  A weight whose
    every term is zero has condition number 1.
    """
    counts = [int(v) for v in counts]
    weights, conds, fs = [], [], {}
    with localcontext() as ctx:
        ctx.prec = _DIGITS + math.ceil(_DIGITS_PER_COUNT * max(counts)) + 5  # 5 guard the tails' long sums
        tails = _poisson_tails(params.r, max(counts) + params.u_max)
        for v in counts:
            t = params.t_at(v)
            if t not in fs:
                f = eval_fx_grid(spec, np.arange(1, params.u_max + 1) / (params.rate * t), q_x)
                fs[t] = [Decimal(x) for x in f.tolist()]
            ctx.prec, t_dec = _DIGITS + math.ceil(_DIGITS_PER_COUNT * v), Decimal(t)
            terms = [
                math.comb(v, u) * t_dec**u * (1 - t_dec) ** (v - u) * fs[t][u - 1] * tails[v + u]
                for u in range(1, min(v, params.u_max) + 1)
            ]
            total, size = sum(terms), sum(map(abs, terms))
            cond = size / abs(total) if total else Decimal("Inf" if size else 1)
            if not ctx.prec > cond.log10() + _GUARD_DIGITS:
                raise ValueError(f"condition number {cond:.3e} at count {v} needs more than {ctx.prec} digits")
            weights.append(total)
            conds.append(cond)
    return weights, conds


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _cases(deep: bool) -> list[tuple[PropertySpec, EstimatorParams, float | None]]:
    """The tables checked: one small entropy table, and with ``deep`` more kinds, tunings and sizes."""
    cases = [(entropy(), EstimatorParams(150.0, 3.0, 1, t_decay=False), None)]
    if deep:
        kl = kl_divergence(np.full(10**4, 1e-4))
        kl_params = derive_params(1e4, kl, preset=False, alpha=0.5, s0_mult=4.0)  # an estimate's kl tuning
        cases += [
            # Weights past v = 212 exceed the 1e100 cap and are clamped (185 entries).
            (entropy(), EstimatorParams(500.0, 4.0, 2, t_decay=False), None),
            (support_coverage(500.0), EstimatorParams(200.0, 3.5, 2, t_decay=False), None),
            (support_size(1000), EstimatorParams(150.0, 3.0, 1, t_decay=False), None),
            # The README sweep's n = 59948 cell, whose first 60 entries hold its cancellation.
            (entropy(), derive_params(59948.0, entropy(), v_max=60), None),
            (kl, dataclasses.replace(kl_params, v_max=kl_params.u_max), 1e-4),
        ]
    return cases


def _table(spec, params, q_x):
    """A case's float weights and clamp flags, log cap and envelope, and exact weights and conds, from v = 1."""
    table = build_coefficient_table(spec, params, q_x=q_x)
    values, clamped = table.values[1:], table.clamped[1:]  # values completes the flags
    weights, conds = exact_weights(spec, params, range(1, table.v_max + 1), q_x)
    return values.tolist(), clamped.tolist(), table.log_clamp_bound, _log_envelope(spec, params), weights, conds


def check_weights_exact(tables) -> CheckResult:
    """Every unclamped float weight lies within ``1e-10 * cond`` of the exact one, relative."""
    worst, entries, untrusted = Decimal(0), 0, 0
    for values, clamped, _, _, weights, conds in tables:
        for value, clamp, weight, cond in zip(values, clamped, weights, conds):
            if not clamp:
                gap = abs(Decimal(value) - weight)
                worst = max(worst, gap / (cond * abs(weight)) if weight else Decimal("Inf" if gap else 0))
                entries += 1
                untrusted += float(cond) * 2**-52 > 1e-6
    return CheckResult("weights_exact", worst <= Decimal("1e-10"), (
        f"worst |table - exact| / (cond * |exact|) {worst:.3e} (tolerance 1e-10) over {entries} entries; "
        f"{untrusted} with cond * 2^-52 > 1e-6"))


def check_coefficient_bound(tables) -> CheckResult:
    """Exact weights stay under the uncapped envelope; the table clamps exactly those past its cap."""
    worst, beyond, mismatched = -math.inf, 0, 0
    with localcontext() as ctx:
        ctx.prec = 30
        for _, clamped, cap, envelope, weights, _ in tables:
            for clamp, weight in zip(clamped, weights):
                log_mag = float(abs(weight).ln()) if weight else -math.inf
                worst = max(worst, log_mag - envelope)
                beyond += log_mag > cap
                mismatched += (log_mag > cap) != clamp
    return CheckResult("coefficient_bound", worst <= 0.0 and mismatched == 0, (
        f"largest log(|exact| / envelope) {worst:.1f}; {beyond} exact weights past the cap, "
        f"{mismatched} entries whose clamp disagrees"))


_CHECKS = (("weights_exact", check_weights_exact), ("coefficient_bound", check_coefficient_bound))


def run_selfcheck(deep: bool = False) -> list[CheckResult]:
    """Run all checks; every result carries a one-line diagnostic.

    Each table is built and evaluated once per run.  A check that raises is
    reported as failed, with the exception type and message as its
    diagnostic, and the remaining checks still run.
    """
    cases, table = _cases(deep), functools.cache(_table)
    results = []
    for name, check in _CHECKS:
        try:
            results.append(check([table(*case) for case in cases]))
        except Exception as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
