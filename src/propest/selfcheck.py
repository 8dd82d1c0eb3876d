"""Built-in numerical validation of the coefficient tables, on numpy and the standard library.

``weights_exact`` and ``coefficient_bound`` read one list of tables,
:func:`_cases`, each built by :func:`build_coefficient_tables` as an
estimate builds it.  They compare its float weights with one exact route,
:func:`exact_weights`: the same sum in ``decimal``, from the same ``t``.
For an entry of the signed-log series it takes the same float values of
``f_x``, each exactly, and the weight's condition number
``sum |term| / |sum term|``, the factor by which the float sum can amplify
its rounding, so a tolerance scaled by it fails a corrupted entry and passes
an honest one.  An entry that a kind's weight route computes sums no series:
it is held to the weight of ``f_x`` itself, evaluated in ``decimal``, at a
fixed relative tolerance.  ``routes_series`` holds each route to the float
series where the series is well conditioned, with no ``decimal`` at all.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from decimal import Decimal, getcontext, localcontext

import numpy as np

from .estimators import (
    EstimatorParams,
    _coefficient_signed_logs,
    _log_envelope,
    build_coefficient_tables,
    derive_params,
)
from .properties import KINDS, PropertySpec, entropy, eval_fx_grid, kl_divergence, support_coverage, support_size

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


# f_x in decimal at x = u/lambda in (0, 1] with its log.  dist_to_uniform's kink is the
# float 1.0 / k that its float f uses, taken exactly: an exact 1/k would lie an ulp
# away, a gap the series amplifies about 2^v-fold.
_DECIMAL_FX = {
    "entropy": lambda spec, x, log_x, q_x: -x * log_x,
    "kl_divergence": lambda spec, x, log_x, q_x: x * (log_x - Decimal(q_x).ln()),
    "support_size": lambda spec, x, log_x, q_x: 1 / Decimal(spec.k),
    "power_sum": lambda spec, x, log_x, q_x: (Decimal(spec.a) * log_x).exp(),
    "support_coverage": lambda spec, x, log_x, q_x: (1 - (-Decimal(spec.m) * x).exp()) / Decimal(spec.m),
    "dist_to_uniform": lambda spec, x, log_x, q_x: abs(x - Decimal(1.0 / spec.k)) - Decimal(1.0 / spec.k),
    "l1_distance": lambda spec, x, log_x, q_x: abs(x - Decimal(q_x)) - Decimal(q_x),
}


def _log_integers(n: int) -> list[Decimal]:
    """``ln(u)`` for ``u`` in ``0..n`` (0 at ``u = 0``), in the current context: one ``ln`` per prime, sums for the rest."""
    logs = [Decimal(0)] * (n + 1)
    for u in range(2, n + 1):
        p = next((d for d in range(2, math.isqrt(u) + 1) if u % d == 0), u)
        logs[u] = Decimal(u).ln() if p == u else logs[p] + logs[u // p]
    return logs


def _decimal_fx(spec: PropertySpec, params: EstimatorParams, t: float, q_x: float | None, logs) -> list[Decimal]:
    """``f_x(u/lambda)`` for ``u`` in ``1..u_max``, each ``u/lambda`` clamped at 1, in the current context."""
    if spec.kind == "kl_divergence" and q_x == 0:
        raise ValueError("KL divergence undefined: q_x = 0 with p_x > 0")
    lam, fx = Decimal(params.rate * t), _DECIMAL_FX[spec.kind]
    log_lam = lam.ln()
    return [fx(spec, u / lam, logs[u] - log_lam, q_x) if u <= lam else fx(spec, Decimal(1), Decimal(0), q_x)
            for u in range(1, params.u_max + 1)]


def exact_weights(
    spec: PropertySpec, params: EstimatorParams, counts, q_x: float | None = None, exact_f: bool = False
) -> tuple[list[Decimal], list[Decimal]]:
    """The weights at ``counts`` in ``decimal``, and their condition numbers.

    The weight at ``v`` is ``sum_{u=1..min(v, u_max)} C(v,u) t^u (1-t)^(v-u)
    f(u/lambda) P(Poisson(r) > v+u)``, with ``t = params.t_at(v)`` and
    ``lambda = rate * t``, both floats taken exactly.  ``f`` comes from
    :func:`eval_fx_grid`, the floats the signed-log series sums; with
    ``exact_f`` it is evaluated in decimal instead, at ``u/lambda`` exactly,
    the function the weight routes compute.
    Either is evaluated once per ``t``.  Each sum runs at ``40 + 0.45 v``
    digits; a condition number that leaves 20 of them or fewer raises
    ``ValueError``.  A weight whose every term is zero has condition number 1.
    """
    counts = [int(v) for v in counts]
    weights, conds, fs, logs = [], [], {}, None
    with localcontext() as ctx:
        top = ctx.prec = _DIGITS + math.ceil(_DIGITS_PER_COUNT * max(counts)) + 5  # 5 guard the tails' long sums
        tails = _poisson_tails(params.r, max(counts) + params.u_max)
        for v in counts:
            t = params.t_at(v)
            if t not in fs and exact_f:
                ctx.prec = top
                logs = logs or _log_integers(params.u_max)
                fs[t] = _decimal_fx(spec, params, t, q_x, logs)
            elif t not in fs:
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


# Counts at which each route table is checked, with its u_max.
_ROUTE_COUNTS = (1, 2, 5, 10, 20, 40)
_ROUTE_RTOL = Decimal(2) ** -45


# The README's scale: its k = 10^4, a coverage horizon m = 2k, a = 2, and q uniform over k symbols.
_README_SPEC = {"k": 10**4, "m": 2e4, "a": 2.0, "q": np.full(10**4, 1e-4)}


def _route_cases() -> list[tuple[PropertySpec, EstimatorParams]]:
    """One table per tuning of each kind whose :class:`Kind` record has a weight route, at the README's scale.

    A kind with a preset is tuned by it at README n = 1e3 and 59948; one
    without takes an estimate's kl tuning, alpha 0.5 and s0_mult 4 at
    n = 1e4.  A kind that reads ``q`` takes it uniform, so that its table
    has one row, at mass 1e-4.
    """
    cases = []
    for kind, record in KINDS.items():
        if record.weights is not None:
            spec = PropertySpec(kind, **{name: _README_SPEC[name] for name in record.reads})
            if record.preset is None:
                cases.append((spec, derive_params(1e4, spec, preset=False, alpha=0.5, s0_mult=4.0)))
            else:
                cases += [(spec, derive_params(n, spec)) for n in (1e3, 59948.0)]
    return cases


def _cases(deep: bool) -> list[tuple[PropertySpec, EstimatorParams, tuple[int, ...] | None]]:
    """The tables checked, each with the counts read (None: every count from 1).

    One small entropy table and each table of :func:`_route_cases` at
    ``_ROUTE_COUNTS`` below its ``u_max`` and at ``u_max``; with ``deep``
    more kinds, tunings and sizes.
    """
    cases = [(entropy(), EstimatorParams(150.0, 3.0, 1, t_decay=False), None)]
    cases += [(spec, params, (*(v for v in _ROUTE_COUNTS if v < params.u_max), params.u_max))
              for spec, params in _route_cases()]
    if deep:
        kl = kl_divergence(np.full(10**4, 1e-4))
        kl_params = derive_params(1e4, kl, preset=False, alpha=0.5, s0_mult=4.0)  # an estimate's kl tuning
        cases += [
            # Weights past v = 212 exceed the 1e100 cap and are clamped (185 entries).
            (entropy(), EstimatorParams(500.0, 4.0, 2, t_decay=False), None),
            (support_coverage(500.0), EstimatorParams(200.0, 3.5, 2, t_decay=False), None),
            (support_size(1000), EstimatorParams(150.0, 3.0, 1, t_decay=False), None),
            # The README sweep's n = 59948 cell, whose first 60 entries take the entropy route.
            (entropy(), derive_params(59948.0, entropy(), v_max=60), None),
            (kl, dataclasses.replace(kl_params, v_max=kl_params.u_max), None),
        ]
    return cases


def _table(spec, params, counts):
    """A case's float weights and clamp flags at its counts, log cap and envelope, and exact weights and conds.

    The table is built as an estimate builds it, up to the largest count;
    it has one row, since a case's ``q`` is uniform.  A route entry, one that
    :meth:`CoefficientTables.routed` sends to the kind's route, has its
    exact weight evaluate ``f_x`` in decimal (``exact_f``) and no condition
    number (None).
    """
    counts = np.arange(1, params.v_max + 1) if counts is None else np.array(counts)
    tables = build_coefficient_tables(spec, params, int(counts.max()))
    (table,) = tables.tables
    values = table.weights(counts)  # computes the flags at counts
    exact = {}  # v: (exact weight, cond), cond None for a route entry
    for route in (False, True):
        at = counts[tables.routed(counts) == route].tolist()
        if at:
            weights, conds = exact_weights(spec, params, at, table.q_x, exact_f=route)
            exact.update(zip(at, zip(weights, [None] * len(at) if route else conds)))
    weights, conds = zip(*(exact[v] for v in counts.tolist()))
    return (values.tolist(), table.clamped[counts].tolist(), table.log_clamp_bound, _log_envelope(spec, params),
            weights, conds)


def check_weights_exact(tables) -> CheckResult:
    """Unclamped float weights lie within ``1e-10 * cond`` (series) or 2^-45 (route) of the exact ones, relative."""
    worst, route_worst, entries, routes, untrusted = Decimal(0), Decimal(0), 0, 0, 0
    for values, clamped, _, _, weights, conds in tables:
        for value, clamp, weight, cond in zip(values, clamped, weights, conds):
            if clamp:
                continue
            gap = abs(Decimal(value) - weight)
            if cond is None:
                route_worst = max(route_worst, gap / abs(weight) if weight else Decimal("Inf" if gap else 0))
                routes += 1
            else:
                worst = max(worst, gap / (cond * abs(weight)) if weight else Decimal("Inf" if gap else 0))
                entries += 1
                untrusted += float(cond) * 2**-52 > 1e-6
    return CheckResult("weights_exact", worst <= Decimal("1e-10") and route_worst <= _ROUTE_RTOL, (
        f"worst |table - exact| / (cond * |exact|) {worst:.3e} (tolerance 1e-10) over {entries} series entries, "
        f"{untrusted} with cond * 2^-52 > 1e-6; worst |table - exact| / |exact| {float(route_worst):.3e} "
        f"(tolerance 2^-45) over {routes} route entries"))


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


# The counts at which each route is held to the float series: there the series sums a few
# terms, and its worst relative gap to a route is 3.51e-13 (entropy, README n = 1e3, v = 10).
_SERIES_COUNTS = np.arange(1, 11)
_SERIES_RTOL = 1e-12


def check_routes_series() -> CheckResult:
    """Route entries at ``v`` in 1..10 lie within 1e-12 of the float signed-log series, relative.

    The tables of :func:`_route_cases`, built here with no ``decimal``; a
    table that takes no entry from its route fails the check, which would
    hold the series to itself.
    """
    worst, routed, cases = 0.0, 0, _route_cases()
    v = _SERIES_COUNTS  # a set this long holds prefixes of the full set's tail and factorials
    for spec, params in cases:
        tables = build_coefficient_tables(spec, params, int(v.max()))
        (table,) = tables.tables
        routed += bool(tables.routed(v).all())
        q = None if table.q_x is None else np.full(len(v), table.q_x)
        t = np.array([params.t_at(x) for x in v.tolist()])
        series = [sign * math.exp(log_mag) for sign, log_mag, _ in
                  _coefficient_signed_logs(spec, params, v, q, tables.log_tail, tables.log_fact, t)]
        values = table.weights(v)
        worst = max(worst, float(np.max(np.abs(values - series) / np.abs(values))))
    return CheckResult("routes_series", worst <= _SERIES_RTOL and routed == len(cases), (
        f"worst |route - series| / |route| {worst:.3e} (tolerance 1e-12) at v = 1..10 of "
        f"{routed} of {len(cases)} tables routed there"))


def run_selfcheck(deep: bool = False) -> list[CheckResult]:
    """Run all checks; every result carries a one-line diagnostic.

    ``weights_exact`` and ``coefficient_bound`` read each table of
    :func:`_cases`, built and evaluated once per run; ``routes_series``
    builds its own.  A check that raises is reported as failed, with the
    exception type and message as its diagnostic, and the remaining checks
    still run.
    """
    cases, table = _cases(deep), functools.cache(_table)
    runs = [(name, lambda check=check: check([table(*case) for case in cases]))
            for name, check in (("weights_exact", check_weights_exact), ("coefficient_bound", check_coefficient_bound))]
    results = []
    for name, run in [*runs, ("routes_series", check_routes_series)]:
        try:
            results.append(run())
        except Exception as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
