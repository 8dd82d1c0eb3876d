"""Property estimators: plug-in baselines and the two-stream amplified estimator.

The amplified estimator splits symbols by their count in a second, independent
stream.  Frequently seen symbols are handled by the plug-in rule on the first
stream.  Rarely seen symbols are handled by a linear estimator whose weight
for a symbol observed ``v`` times emulates the expected plug-in value under a
``t``-fold larger sample: the weights come from expanding a smoothed version
of that expectation as a power series in the unknown per-symbol mean, so that
``weight[v] = h_v * v!`` makes the series unbiased term by term.  A Poisson
tail factor of level ``r`` attenuates high orders, and the orders themselves
are truncated at ``u_max``.  All weights are evaluated in signed log space and
clamped to an analytic envelope, since the raw terms overflow doubles long
before the weights themselves become relevant.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .distributions import SPLIT_MODES, Histogram, SplitSample
from .numerics import (
    integrate_poisson_kernel_bessel,
    log_factorials,
    log_poisson_tail_table,
    signed_log_sum_arrays,
)
from .properties import KINDS, PropertySpec, eval_fx_grid, eval_fx_many, lipschitz

__all__ = [
    "AmplifiedEstimate",
    "CoefficientTable",
    "CoefficientTables",
    "EstimatorParams",
    "ParameterError",
    "amplified_estimate",
    "amplified_estimate_detailed",
    "build_coefficient_table",
    "build_coefficient_tables",
    "derive_params",
    "empirical",
    "modified_empirical",
    "smoothed_h_hat",
]

_LOG_DECAY = math.log(1.5)
_DECAY_FLOOR = 1.5

MIN_TOTAL_N = 150.0
MIN_T = 2.5
# Ceiling on v_max + u_max, the length of the longest arrays a table allocates.
MAX_TABLE_SIZE = 10**7

# Weights are clamped to at most 1e100 in magnitude, whatever the envelope.
_LOG_CLAMP_CEILING = math.log(1e100)


class ParameterError(ValueError):
    """Estimator parameters out of their admissible range."""


def _round_half_up(x: float, name: str) -> int:
    if not math.isfinite(x):
        raise ParameterError(f"derived {name}={x!r} is not finite")
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class EstimatorParams:
    """Tuning of the amplified estimator.

    ``rate`` is the per-stream Poisson rate entering every count ratio.
    The series truncation ``u_max`` and the tail level ``r`` are derived
    from ``t`` and ``s0``.  ``v_max`` (default ``max(4r, 200)``) is the
    length of :func:`build_coefficient_table`'s tables.  An estimate reads
    no count past ``u_max``, so its tables hold ``min(v_max, u_max)`` entries.
    """

    rate: float
    t: float
    s0: int
    u_max: int = field(init=False)
    r: int = field(init=False)
    t_decay: bool = True
    v_max: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:
            raise ParameterError(f"rate must be positive and finite, got {self.rate!r}")
        if not self.t > MIN_T:
            raise ParameterError(f"amplification t must exceed {MIN_T}, got {self.t!r}")
        if not 1 <= self.s0 < math.inf or self.s0 != int(self.s0):
            raise ParameterError(f"s0 must be a positive integer, got {self.s0!r}")
        t, s0 = float(self.t), int(self.s0)
        if not math.isfinite(self.rate * t):
            raise ParameterError(f"rate * t is not finite (rate {self.rate!r}, t {t!r})")
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "u_max", _round_half_up(2 * s0 * t + 2 * s0 - 1, "u_max"))
        object.__setattr__(self, "r", _round_half_up(10 * s0 * t + 10 * s0, "r"))
        if self.v_max is None:
            object.__setattr__(self, "v_max", max(4 * self.r, 200))
        if not 1 <= self.v_max < math.inf or self.v_max != int(self.v_max):
            raise ParameterError(f"v_max must be a positive integer, got {self.v_max!r}")
        if self.v_max + self.u_max > MAX_TABLE_SIZE:
            raise ParameterError(f"v_max + u_max = {self.v_max + self.u_max} exceeds {MAX_TABLE_SIZE}")

    def t_at(self, v: int) -> float:
        """Effective amplification used for the coefficient at count ``v``.

        With decay on, ``t`` shrinks by a factor 1.5 per unit of ``v`` down
        to a floor of 1.5, taming the growth of high-order weights.
        """
        if not self.t_decay:
            return self.t
        damp = self.t * math.exp(-(v - 1) * _LOG_DECAY)
        return damp if damp > _DECAY_FLOOR else _DECAY_FLOOR


def derive_params(
    total_n: float,
    spec: PropertySpec,
    preset: bool = True,
    alpha: float | None = None,
    s0_mult: float | None = None,
    split_mode: str = "two_stream",
    t_decay: bool = True,
    v_max: int | None = None,
) -> EstimatorParams:
    """Tune the amplified estimator for a total sampling budget ``total_n``.

    Preset mode reads the tuning ``KINDS[spec.kind].preset`` and takes no
    ``alpha`` or ``s0_mult``; manual mode (``preset=False``) uses
    ``t = log(n)^(1-alpha) + 1`` and ``s0 = round(s0_mult * log(n)^0.2)``.
    The per-stream rate is ``total_n * SPLIT_MODES[split_mode]``.
    """
    if not MIN_TOTAL_N <= total_n < math.inf:
        raise ParameterError(f"need a finite total_n >= {MIN_TOTAL_N:g}, got {total_n!r}")
    if split_mode not in SPLIT_MODES:
        raise ParameterError(f"unknown split mode {split_mode!r}")
    log_n = math.log(total_n)
    if preset:
        if alpha is not None or s0_mult is not None:
            raise ParameterError("alpha and s0_mult apply only with preset=False")
        if (tuning := KINDS[spec.kind].preset) is None:
            raise ParameterError(f"no preset tuning for {spec.kind}; "
                                 "pass preset=False with explicit alpha and s0_mult")
        coeff, expo, mult = tuning
    else:
        if alpha is None or s0_mult is None:
            raise ParameterError("manual tuning requires both alpha and s0_mult")
        if not 0.0 <= alpha <= 1.0:
            raise ParameterError(f"alpha must be in [0, 1], got {alpha!r}")
        if not s0_mult > 0:
            raise ParameterError(f"s0_mult must be positive, got {s0_mult!r}")
        coeff, expo, mult = 1.0, 1.0 - alpha, s0_mult
    t = coeff * log_n**expo + 1.0
    if not t > MIN_T:
        raise ParameterError(
            f"derived amplification t={t:.4g} must exceed {MIN_T}; "
            "increase total_n or lower alpha"
        )
    s0 = max(1, _round_half_up(mult * log_n**0.2, "s0"))
    return EstimatorParams(float(total_n) * SPLIT_MODES[split_mode], t, s0, t_decay=t_decay, v_max=v_max)


# ---------------------------------------------------------------------------
# coefficient machinery
# ---------------------------------------------------------------------------


def _log_clamp_bound(spec: PropertySpec, params: EstimatorParams) -> float:
    """Log of the analytic weight envelope, capped at 1e100."""
    nt = params.rate * params.t
    lip = lipschitz(spec, min(1.0, 1.0 / nt))
    if lip == 0.0:
        return -math.inf
    bound = math.log(lip) + math.log(params.u_max) - math.log(nt) + 2.0 * params.r * (
        params.t - 1.0
    )
    return min(bound, _LOG_CLAMP_CEILING)


def _shared_state(spec: PropertySpec, params: EstimatorParams, length: int) -> tuple:
    """What every table of ``(spec, params)``, ``length`` entries long, shares.

    The log weight envelope, the log Poisson tail at level ``r`` and the
    log factorials, both up to ``length + params.u_max``, the largest
    ``v + u`` such a table reads; both are bit for bit prefixes of longer ones.
    """
    j_max = length + params.u_max
    log_tail = log_poisson_tail_table(float(params.r), j_max)
    return _log_clamp_bound(spec, params), log_tail, log_factorials(j_max + 1)


def _coefficient_signed_log(
    spec: PropertySpec,
    v: int,
    params: EstimatorParams,
    qx: float | None,
    log_tail: np.ndarray,
    log_fact: np.ndarray,
) -> tuple[int, float, bool]:
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


class CoefficientTable:
    """Small-branch weights ``h_v * v!`` for counts ``1..v_max``, filled on first read.

    :meth:`weights` computes only the entries it is asked for and keeps them.
    Only ``values`` completes the table: reading it computes every entry
    still missing.  ``clamped`` and ``cancelled`` are read-only views of the
    flags computed so far, marking counts whose weight hit the envelope or
    lost all significance to cancellation; ``computed`` says which entries
    those are, and every entry at ``v`` is final once ``weights(v)`` returns.
    ``n_flagged`` counts the computed entries marked clamped or cancelled.
    ``values[0]`` is 0 (an unseen symbol contributes nothing).  Entries are
    computed under a per-table lock, so concurrent estimates can share one
    table.  ``shared`` is :func:`_shared_state`, computed once per table set.
    """

    def __init__(
        self,
        spec: PropertySpec,
        params: EstimatorParams,
        v_max: int,
        shared: tuple,
        q_x: float | None = None,
    ) -> None:
        self.spec = spec
        self.params = params
        self.q_x = q_x
        self.log_clamp_bound, self._log_tail, self._log_fact = shared
        self._values = np.zeros(v_max + 1)
        self._clamped = np.zeros(v_max + 1, dtype=bool)
        self._cancelled = np.zeros(v_max + 1, dtype=bool)
        self._computed = np.zeros(v_max + 1, dtype=bool)
        self._computed[0] = True
        self.n_flagged = 0
        self._lock = threading.Lock()

    @property
    def v_max(self) -> int:
        return len(self._values) - 1

    def weights(self, v):
        """``values[v]`` for counts ``v`` in ``0..v_max``.

        Computes only the entries of ``v`` not computed yet, and keeps them.
        """
        v = np.asarray(v)
        with self._lock:
            missing = v[~self._computed[v]]
            if missing.size:
                self._compute(np.unique(missing))
            return self._values[v]

    def _compute(self, vs: np.ndarray) -> None:
        for v in vs.tolist():
            sign, log_mag, cancel = _coefficient_signed_log(
                self.spec, v, self.params, self.q_x, self._log_tail, self._log_fact
            )
            self._cancelled[v] = cancel
            if sign == 0:
                continue
            if log_mag > self.log_clamp_bound:
                log_mag = self.log_clamp_bound
                self._clamped[v] = True
            self._values[v] = sign * math.exp(log_mag)
        self._computed[vs] = True
        self.n_flagged += int(np.count_nonzero(self._clamped[vs] | self._cancelled[vs]))

    @property
    def computed(self) -> np.ndarray:
        """The counts ``v >= 1`` whose entries have been computed so far."""
        with self._lock:
            return np.flatnonzero(self._computed[1:]) + 1

    @property
    def values(self) -> np.ndarray:
        """Every weight, read-only; the table is complete once this returns."""
        with self._lock:
            self._compute(np.flatnonzero(~self._computed))
        return _read_only(self._values)

    @property
    def clamped(self) -> np.ndarray:
        return _read_only(self._clamped)

    @property
    def cancelled(self) -> np.ndarray:
        return _read_only(self._cancelled)


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def _resolve_context(spec: PropertySpec, q_x: float | None) -> float | None:
    if spec.q is None:
        if q_x is not None:
            raise ValueError(f"{spec.kind} weights do not depend on a reference mass q_x")
        return None
    if q_x is None:
        raise ValueError(f"{spec.kind} weights depend on the reference mass q_x")
    if not 0.0 <= q_x <= 1.0:
        raise ValueError(f"reference mass q_x must be in [0, 1], got {q_x!r}")
    return float(q_x)


def build_coefficient_table(
    spec: PropertySpec, params: EstimatorParams, q_x: float | None = None
) -> CoefficientTable:
    """Table of ``h_v * v!`` for ``v = 1..params.v_max``, by default past ``u_max``.

    Weights past ``u_max`` serve the coefficient dump and the self-checks,
    never an estimate.  Each entry is computed when first read.
    """
    shared = _shared_state(spec, params, params.v_max)
    return CoefficientTable(spec, params, params.v_max, shared, _resolve_context(spec, q_x))


@dataclass(frozen=True)
class CoefficientTables:
    """Weight tables for every distinct reference mass of a property.

    Symmetric properties share a single table.  For l1/kl one table is built
    per distinct value of ``q``, deduplicated.
    """

    spec: PropertySpec
    params: EstimatorParams
    tables: tuple[CoefficientTable, ...]
    unique_q: np.ndarray | None = None

    def table_for_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Index of the table owning each symbol.

        For l1/kl ``symbols`` may also be a boolean mask over ``q``.
        """
        if self.unique_q is None:
            return np.zeros(len(symbols), dtype=np.int64)
        return np.searchsorted(self.unique_q, self.spec.q[symbols])


def build_coefficient_tables(
    spec: PropertySpec, params: EstimatorParams, v_max: int | None = None
) -> CoefficientTables:
    """The table set an estimate needs, each ``v_max`` (default ``min(params.v_max, u_max)``) long.

    The tables share one envelope, log Poisson tail and log-factorial array.
    """
    v_max = min(params.v_max, params.u_max) if v_max is None else v_max
    if not 1 <= v_max <= params.v_max:
        raise ValueError(f"v_max must be in 1..{params.v_max}, got {v_max!r}")
    shared = _shared_state(spec, params, v_max)
    if spec.q is None:
        return CoefficientTables(spec, params, (CoefficientTable(spec, params, v_max, shared),))
    unique_q = np.unique(spec.q)
    tables = tuple(
        CoefficientTable(spec, params, v_max, shared, _resolve_context(spec, float(qx)))
        for qx in unique_q
    )
    return CoefficientTables(spec, params, tables, unique_q)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _count_vectors(spec: PropertySpec, *hists: Histogram) -> list[np.ndarray]:
    """The count vectors of ``hists``, zero-padded to one length.

    For l1/kl that length is ``len(q)``, so that a boolean mask over a vector
    also selects the symbols' reference masses from ``q``.  A nonzero count
    at an id beyond ``q``, or beyond the ``k`` symbols of support_size and
    dist_to_uniform, is refused.
    """
    vectors = [hist.array for hist in hists]
    size = max(len(c) for c in vectors)
    if spec.k is not None and any(c[spec.k:].any() for c in vectors):
        raise ValueError(f"{spec.kind} with k={spec.k} admits no symbol id beyond 0..{spec.k - 1}")
    if spec.q is not None:
        size = len(spec.q)
        if any(c[size:].any() for c in vectors):
            raise ValueError(
                f"{spec.kind} symbol ids must lie in 0..{size - 1}, the indices of q"
            )
        vectors = [c[:size] for c in vectors]
    return [c if len(c) == size else np.pad(c, (0, size - len(c))) for c in vectors]


def _plug_in(hist: Histogram, scale: float, spec: PropertySpec) -> float:
    (counts,) = _count_vectors(spec, hist)
    seen = counts > 0
    values = eval_fx_many(spec, seen, np.compress(seen, counts) / scale)
    return float(values.sum()) + spec.report_offset


def empirical(hist: Histogram, spec: PropertySpec) -> float:
    """Plug-in estimate at the empirical frequencies ``N_x / N``.

    The empty histogram reports the offset alone (the estimate of the
    offset-form sum is zero).
    """
    return _plug_in(hist, hist.total, spec)


def modified_empirical(hist: Histogram, rate: float, spec: PropertySpec) -> float:
    """Plug-in estimate at ``N_x / rate`` with ratios above 1 clamped."""
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate!r}")
    return _plug_in(hist, rate, spec)


@dataclass(frozen=True)
class AmplifiedEstimate:
    """An amplified estimate with its branch decomposition and diagnostics.

    ``n_clamped`` and ``n_cancelled`` count the small-branch symbols whose
    weight was clamped or cancelled; ``n_overflow`` those whose count lies
    beyond ``u_max`` or beyond the table, and which contribute zero.
    """

    value: float
    small_sum: float
    large_sum: float
    report_offset: float
    n_small: int
    n_large: int
    n_overflow: int
    n_clamped: int
    n_cancelled: int


def amplified_estimate_detailed(
    sample: SplitSample,
    spec: PropertySpec,
    params: EstimatorParams,
    tables: CoefficientTables | None = None,
) -> AmplifiedEstimate:
    """Amplified estimate of ``f(p)`` from a split sample, with diagnostics.

    Symbols whose second-stream count is at most ``s0`` contribute their
    table weight at the first-stream count (zero for unseen symbols, and
    zero with an overflow tick for counts beyond the table or ``u_max``,
    past which weights mean nothing).  The others contribute the plug-in
    value ``f_x(N_x / rate)``.  ``tables``, if given, fit ``spec`` and ``params``.

    Each branch is summed by numpy's pairwise ``sum``, whose bits depend on
    the order of its terms: the symbols seen in the first stream, ascending,
    then one exact zero per symbol seen only in the second stream.
    """
    if abs(params.rate - sample.rate) > 1e-9 * max(1.0, params.rate):
        raise ValueError(
            f"params.rate={params.rate!r} does not match sample.rate={sample.rate!r}"
        )
    if tables is None:
        tables = build_coefficient_tables(spec, params)
    elif tables.params != params or (tables.spec is not spec and tables.spec != spec):
        raise ValueError("tables were built for other params or another property than the estimate's")

    c1, c2 = _count_vectors(spec, sample.first, sample.second)
    seen1 = c1 > 0
    large2 = c2 > params.s0
    small, large = seen1 & ~large2, seen1 & large2
    # A symbol seen only in the second stream adds an exact +0.0 to its
    # branch, so only their number is kept; see the docstring on order.
    only2 = ~seen1 & (c2 > 0)
    only2_large = int(np.count_nonzero(only2 & large2))
    only2_small = int(np.count_nonzero(only2)) - only2_large

    # np.compress gathers through a dense, irregular mask several times
    # faster than boolean indexing does.
    v_small = np.compress(small, c1)
    read_max = min(tables.tables[0].v_max, params.u_max)
    overflow = int(np.count_nonzero(v_small > read_max))
    weights = np.zeros(len(v_small) + only2_small)
    seen_weights = weights[: len(v_small)]
    if len(tables.tables) == 1:
        picks = [(tables.tables[0], v_small <= read_max if overflow else slice(None))]
    else:
        # Group the symbols by owning table, so that only the tables owning
        # one are visited, and each visit gathers its own symbols only.
        idx = np.flatnonzero(v_small <= read_max)
        owner = tables.table_for_symbols(small)[idx]
        order = np.argsort(owner, kind="stable")
        owners, starts = np.unique(owner[order], return_index=True)
        picks = zip([tables.tables[j] for j in owners.tolist()], np.split(idx[order], starts[1:]))
    n_clamped = n_cancelled = 0
    for table, pick in picks:
        v = v_small[pick]
        seen_weights[pick] = table.weights(v)
        if not table.n_flagged:
            continue
        # weights() has computed every entry at v, so its flags are final.
        n_clamped += int(np.count_nonzero(table.clamped[v]))
        n_cancelled += int(np.count_nonzero(table.cancelled[v]))
    small_sum = float(weights.sum())

    large_values = eval_fx_many(spec, large, np.compress(large, c1) / params.rate)
    if only2_large:
        large_values = np.concatenate((large_values, np.zeros(only2_large)))
    large_sum = float(large_values.sum())

    return AmplifiedEstimate(
        value=small_sum + large_sum + spec.report_offset,
        small_sum=small_sum,
        large_sum=large_sum,
        report_offset=spec.report_offset,
        n_small=len(weights),
        n_large=len(large_values),
        n_overflow=overflow,
        n_clamped=n_clamped,
        n_cancelled=n_cancelled,
    )


def amplified_estimate(
    sample: SplitSample,
    spec: PropertySpec,
    params: EstimatorParams,
    tables: CoefficientTables | None = None,
) -> float:
    """Amplified estimate of ``f(p)`` from a split sample."""
    return amplified_estimate_detailed(sample, spec, params, tables).value


# ---------------------------------------------------------------------------
# smoothed-expectation oracle
# ---------------------------------------------------------------------------

_HHAT_TAIL_TOL = 1e-9


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
    :func:`~propest.numerics.integrate_poisson_kernel_bessel`, whose
    integrand stays below 1 in magnitude, so its absolute error bound holds
    at orders where the unscaled integral grows like ``u!``.  The two agree
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
