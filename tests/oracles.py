"""Reference evaluations shared by the test modules.

Weights in 256-bit arithmetic, and the per-entry evaluation of a table's
signed-log weights in double precision that the batched one must match bit
for bit: :func:`coefficient_signed_log` and :func:`signed_log_sum_arrays`
compute one entry at a time, one numpy call per operation.
"""

import math

import mpmath as mp
import numpy as np

from propest.numerics import CANCELLATION_RTOL
from propest.properties import eval_fx_grid


def mp_entropy_coefficient(v, params):
    """256-bit direct evaluation of the count-v weight for entropy."""
    with mp.workprec(256):
        t = mp.mpf(params.t_at(v))
        rate = mp.mpf(params.rate)
        r = params.r
        total = mp.mpf(0)
        for u in range(1, min(params.u_max, v) + 1):
            p = u / (rate * t)
            if p > 1:
                p = mp.mpf(1)
            f = -p * mp.log(p) if p > 0 else mp.mpf(0)
            tail = 1 - mp.exp(-mp.mpf(r)) * mp.fsum(
                mp.mpf(r) ** j / mp.factorial(j) for j in range(v + u + 1)
            )
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
    """Row ``row`` of a table set, ``(values, clamped, cancelled)``, one entry at a time."""
    n = tables.v_max + 1
    values, (clamped, cancelled) = np.zeros(n), np.zeros((2, n), dtype=bool)
    qx = tables.tables[row].q_x
    for v in range(1, n):
        sign, log_mag, cancelled[v] = coefficient_signed_log(
            tables.spec, v, tables.params, qx, tables.log_tail, tables.log_fact
        )
        if sign == 0:
            continue
        if log_mag > tables.log_clamp_bound:
            log_mag, clamped[v] = tables.log_clamp_bound, True
        values[v] = sign * math.exp(log_mag)
    return values, clamped, cancelled
