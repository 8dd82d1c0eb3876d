"""Property estimators: plug-in baselines and the two-stream amplified estimator.

The amplified estimator splits symbols by their count in a second, independent
stream.  Frequently seen symbols are handled by the plug-in rule on the first
stream.  Rarely seen symbols are handled by a linear estimator whose weight
for a symbol observed ``v`` times emulates the expected plug-in value under a
``t``-fold larger sample: the weights come from expanding a smoothed version
of that expectation as a power series in the unknown per-symbol mean, so that
``weight[v] = h_v * v!`` makes the series unbiased term by term.  A Poisson
tail factor of level ``r`` attenuates high orders, and the orders themselves
are truncated at ``u_max``.  Where the tail factor is 1 and the series is not
truncated, a weight is the formal mean of ``f(U / lambda)`` under ``U ~
Binomial(v, t)``; for the kinds with a route (``Kind.weights``) it is computed
that way, without the alternating series, whose terms add up to ~2^v times
the weight.  Every other weight is the series, evaluated in signed log space
since the raw terms overflow doubles long before the weights themselves
become relevant.  All weights are clamped to an analytic envelope.  A property's weights live in
one :class:`CoefficientTables`, computed when first read: a row per distinct
reference mass when ``q`` has several, one row otherwise.  A read computes
all its missing entries, across rows, in one array pass, with the bits of
each entry computed alone.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .distributions import SPLIT_MODES, Histogram, SplitSample
from .numerics import log_factorials, log_poisson_tail_table, signed_log_sums
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
]

_LOG_DECAY = math.log(1.5)
_DECAY_FLOOR = 1.5

MIN_TOTAL_N = 150.0
MIN_T = 2.5
# Ceiling on max(2r, v_max + u_max), past which a table's log Poisson tail and
# log factorials, the longest arrays it allocates, would run.
MAX_TABLE_SIZE = 10**7

# Weights are clamped to at most 1e100 in magnitude, whatever the envelope.
_LOG_CLAMP_CEILING = math.log(1e100)

# Terms in one chunk of the grid that computes a table's weights: a bound on its memory.
_GRID_TERMS = 1 << 16


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
        object.__setattr__(self, "v_max", int(self.v_max))
        if self.v_max + self.u_max > MAX_TABLE_SIZE:
            raise ParameterError(f"v_max + u_max = {self.v_max + self.u_max} exceeds {MAX_TABLE_SIZE}")
        if 2 * self.r > MAX_TABLE_SIZE:
            raise ParameterError(f"Poisson tail reach 2r = {2 * self.r} exceeds {MAX_TABLE_SIZE}")

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


def _log_envelope(spec: PropertySpec, params: EstimatorParams) -> float:
    """Log of the analytic weight envelope, uncapped; a table clamps at the least of it and 1e100."""
    nt = params.rate * params.t
    lip = lipschitz(spec, min(1.0, 1.0 / nt))
    if lip == 0.0:
        return -math.inf
    return math.log(lip) + math.log(params.u_max) - math.log(nt) + 2.0 * params.r * (
        params.t - 1.0
    )


def _coefficient_signed_logs(
    spec: PropertySpec,
    params: EstimatorParams,
    v: np.ndarray,
    q_x: np.ndarray | None,
    log_tail: np.ndarray,
    log_fact: np.ndarray,
    t: np.ndarray,
) -> list[tuple[int, float, bool]]:
    """Signed-log weights ``h_v * v!`` at counts ``v`` before clamping, plus cancellation flags.

    ``q_x`` holds each entry's reference mass if the kind reads one, and
    ``t`` its amplification ``params.t_at(v)``.  All terms form one flat
    grid, entry ``i`` the segment ``u = 1..min(u_max, v[i])``, in chunks of
    about ``_GRID_TERMS`` terms.  Each term takes its operands in the
    one-entry order, so batching moves no bit.
    """
    nt, log_ratio, log_tm1 = np.array(
        [(params.rate * x, math.log(x / (x - 1.0)), math.log(x - 1.0)) for x in t.tolist()]).T
    lengths = np.minimum(v, params.u_max)
    starts = np.cumsum(lengths) - lengths
    firsts = np.flatnonzero(np.diff((starts + lengths - 1) // _GRID_TERMS, prepend=-1)).tolist()
    out = []
    for a, b in zip(firsts, firsts[1:] + [len(v)]):
        seg = np.repeat(np.arange(a, b), lengths[a:b])
        u = np.arange(starts[a] + 1, starts[a] + 1 + len(seg)) - starts[seg]
        vu = v[seg]
        f = eval_fx_grid(spec, u / nt[seg], None if q_x is None else q_x[seg])
        with np.errstate(divide="ignore"):
            log_mag = (
                np.log(np.abs(f))
                + u * log_ratio[seg]
                + vu * log_tm1[seg]
                + log_fact[vu]
                - log_fact[vu - u]
                - log_fact[u]
                + log_tail[vu + u]
            )
        signs = np.sign(f).astype(np.int64) * np.where((vu - u) % 2 == 0, 1, -1)
        out += signed_log_sums(signs, log_mag, lengths[a:b])
    return out


def _tail_is_one(params: EstimatorParams) -> bool:
    """Whether ``P(Poisson(r) > j)`` is 1 to within a rounding for every ``j <= 2 u_max``.

    A Chernoff bound: ``P(Poisson(r) <= j) <= exp(-r + j (1 + log(r/j)))``
    for ``j < r``, and the exponent must lie below -40.
    """
    j, r = 2 * params.u_max, params.r
    return j < r and -r + j * (1.0 + math.log(r / j)) < -40.0


class CoefficientTables:
    """Small-branch weights ``h_v * v!`` of a property, a row per reference mass, each computed on first read.

    The rows are ``masses``: for l1/kl the distinct values of ``q``,
    ascending, and for any other kind ``None``, one row without a mass.  A
    kind that reads ``q`` needs masses, each in [0, 1]; any other kind
    refuses them.  ``unique_q`` holds the masses of a set with several rows
    and is ``None`` for a one-row set, whose entries are keyed by count
    alone.  Row entries are the weights at counts ``0..v_max``; count 0
    weighs 0 (an unseen symbol contributes nothing).  The rows share the log
    clamp bound ``log_clamp_bound``, the least of the log envelope and
    ``log(1e100)``.  ``route`` is the kind's ``Kind.weights`` when every
    tail factor at ``v + u <= 2 u_max`` is 1 (:func:`_tail_is_one`), else
    None; :meth:`routed` says which entries take it.  Every other entry is
    the signed-log series, which reads the log Poisson tail at level ``r``
    and the log factorials up to ``v_max + u_max``, the largest ``v + u`` a
    row reads; both are bit for bit prefixes of longer ones, built when an
    entry first needs them.  Either way :meth:`_store` clamps the entry and
    sets its flags.  Weights and their flags are ``(rows, v_max + 1)`` arrays
    held flat, entry ``(row, v)`` at key ``row * (v_max + 1) + v``, computed
    under one lock so that concurrent estimates can share the set.
    ``tables`` views each row as a :class:`CoefficientTable`.
    """

    def __init__(
        self, spec: PropertySpec, params: EstimatorParams, v_max: int, masses: np.ndarray | list | None = None
    ) -> None:
        if spec.q is None:
            if masses is not None:
                raise ValueError(f"{spec.kind} weights do not depend on a reference mass q_x")
        elif masses is None:
            raise ValueError(f"{spec.kind} weights depend on the reference mass q_x")
        else:
            masses = np.asarray(masses, dtype=float)
            outside = masses[~((masses >= 0.0) & (masses <= 1.0))]
            if outside.size:
                raise ValueError(f"reference mass q_x must be in [0, 1], got {outside[-1].item()!r}")
        self.spec, self.params, self.v_max, self._masses = spec, params, v_max, masses
        self._q_x = [None] if masses is None else masses.tolist()
        self.unique_q = masses if len(self._q_x) > 1 else None
        self.log_clamp_bound = min(_log_envelope(spec, params), _LOG_CLAMP_CEILING)
        self.route = KINDS[spec.kind].weights if _tail_is_one(params) else None
        size = len(self._q_x) * (v_max + 1)
        self._values = np.zeros(size)
        self._clamped, self._cancelled, self._computed = np.zeros((3, size), dtype=bool)
        self._computed[:: v_max + 1] = True
        self._flagged = False  # whether any entry computed so far is clamped or cancelled
        self._lock = threading.Lock()

    def read(self, rows, v: np.ndarray) -> tuple[np.ndarray, int, int]:
        """The weights at ``(rows, v)``, and how many of them are clamped and cancelled.

        ``rows`` is one row or an array aligned with the counts ``v``; a
        one-row set ignores it.  Only the entries not computed yet are
        computed, and kept.
        """
        keys = v if self.unique_q is None else rows * (self.v_max + 1) + v
        with self._lock:
            missing = keys[~self._computed[keys]]
            if missing.size:
                self._compute(np.unique(missing))
            weights = self._values[keys]
        if not self._flagged:
            return weights, 0, 0
        # Every entry at keys is computed, so its flags are final.
        return weights, int(np.count_nonzero(self._clamped[keys])), int(np.count_nonzero(self._cancelled[keys]))

    @functools.cached_property
    def log_tail(self) -> np.ndarray:
        return log_poisson_tail_table(float(self.params.r), self.v_max + self.params.u_max)

    @functools.cached_property
    def log_fact(self) -> np.ndarray:
        return log_factorials(self.v_max + self.params.u_max + 1)

    def routed(self, v, lam=None) -> np.ndarray:
        """Which counts ``v`` take the route: the set has one, ``v <= u_max`` and ``v <= lam = rate * t_at(v)``."""
        v = np.asarray(v)
        if self.route is None:
            return np.zeros(v.shape, dtype=bool)
        if lam is None:
            lam = self.params.rate * np.array([self.params.t_at(x) for x in v.tolist()])
        return (v <= self.params.u_max) & (v <= lam)

    def _compute(self, keys: np.ndarray) -> None:
        rows, v = np.divmod(keys, self.v_max + 1)
        q_x = None if self.spec.q is None else self._masses[rows]
        t = np.array([self.params.t_at(x) for x in v.tolist()])
        on = self.routed(v, self.params.rate * t)
        if on.any():
            weights = self.route(self.spec, v[on], t[on], self.params.rate * t[on], None if q_x is None else q_x[on])
            with np.errstate(divide="ignore"):
                self._store(keys[on], weights, np.log(np.abs(weights)), False)
        if not on.all():
            off = ~on
            signed_logs = _coefficient_signed_logs(
                self.spec, self.params, v[off], None if q_x is None else q_x[off], self.log_tail, self.log_fact, t[off])
            # One math.exp per entry: np.exp may round differently.
            weights = [sign * math.exp(min(log_mag, self.log_clamp_bound)) for sign, log_mag, _ in signed_logs]
            _, log_mags, cancelled = zip(*signed_logs)
            self._store(keys[off], np.array(weights), np.array(log_mags), np.array(cancelled))
        self._computed[keys] = True

    def _store(self, keys: np.ndarray, weights: np.ndarray, log_mags: np.ndarray, cancelled) -> None:
        """Keep ``weights``, each clamped where its log magnitude passes ``log_clamp_bound``, with its flags."""
        over = log_mags > self.log_clamp_bound
        self._values[keys] = np.where(over, np.sign(weights) * math.exp(self.log_clamp_bound), weights)
        self._clamped[keys], self._cancelled[keys] = over, cancelled
        self._flagged = self._flagged or bool(over.any() or np.any(cancelled))

    @functools.cached_property
    def tables(self) -> tuple[CoefficientTable, ...]:
        return tuple(CoefficientTable(self, row) for row in range(len(self._q_x)))

    def table_for_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """The row of each symbol; ``symbols`` may also be a boolean mask (over ``q``, for l1/kl)."""
        if self.unique_q is None:
            return np.zeros(np.count_nonzero(symbols) if symbols.dtype == bool else len(symbols), dtype=np.int64)
        return np.searchsorted(self.unique_q, self.spec.q[symbols])


class CoefficientTable:
    """Row ``row`` of a :class:`CoefficientTables`: the weights at reference mass ``q_x``.

    :meth:`weights` computes only the entries it is asked for and keeps them.
    Only ``values`` completes the row: reading it computes every entry
    still missing.  ``clamped`` and ``cancelled`` are read-only views of the
    flags computed so far, marking counts whose weight hit the envelope or
    lost all significance to cancellation; ``computed`` says which entries
    those are, and every entry at ``v`` is final once ``weights(v)`` returns.
    """

    def __init__(self, tables: CoefficientTables, row: int) -> None:
        self.v_max, self.log_clamp_bound, self.q_x = tables.v_max, tables.log_clamp_bound, tables._q_x[row]
        self._tables, self._row = tables, row
        self._span = slice(row * (self.v_max + 1), (row + 1) * (self.v_max + 1))

    def weights(self, v):
        """``values[v]`` for counts ``v`` in ``0..v_max``, computing only those missing; others raise ValueError."""
        v = np.asarray(v)
        if v.size and not 0 <= v.min() <= v.max() <= self.v_max:
            raise ValueError(f"counts must lie in 0..{self.v_max}, got {v.min().item()}..{v.max().item()}")
        return self._tables.read(self._row, v)[0]

    @property
    def computed(self) -> np.ndarray:
        """The counts ``v >= 1`` whose entries have been computed so far."""
        with self._tables._lock:
            return np.flatnonzero(self._tables._computed[self._span][1:]) + 1

    @property
    def values(self) -> np.ndarray:
        """Every weight, read-only; the row is complete once this returns."""
        self.weights(np.arange(self.v_max + 1))
        return _read_only(self._tables._values[self._span])

    @property
    def clamped(self) -> np.ndarray:
        return _read_only(self._tables._clamped[self._span])

    @property
    def cancelled(self) -> np.ndarray:
        return _read_only(self._tables._cancelled[self._span])


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def build_coefficient_table(
    spec: PropertySpec, params: EstimatorParams, q_x: float | None = None
) -> CoefficientTable:
    """Table of ``h_v * v!`` for ``v = 1..params.v_max``, by default past ``u_max``.

    The single row of a one-row :class:`CoefficientTables` at mass ``q_x``.
    Weights past ``u_max`` serve the coefficient dump and the self-checks,
    never an estimate.  Each entry is computed when first read.
    """
    return CoefficientTables(spec, params, params.v_max, None if q_x is None else [q_x]).tables[0]


def build_coefficient_tables(
    spec: PropertySpec, params: EstimatorParams, v_max: int | None = None
) -> CoefficientTables:
    """The table set an estimate needs, its rows ``v_max`` (default ``min(params.v_max, u_max)``) long.

    For l1/kl one row per distinct value of ``q``, 0 included: a seen symbol of
    mass 0 is refused at its own row.  One row for every other kind.
    """
    v_max = min(params.v_max, params.u_max) if v_max is None else v_max
    if not (1 <= v_max <= params.v_max and v_max == int(v_max)):
        raise ValueError(f"v_max must be in 1..{params.v_max}, got {v_max!r}")
    return CoefficientTables(spec, params, int(v_max), None if spec.q is None else np.unique(spec.q))


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
    weight was clamped or cancelled; a weight from its kind's route is never
    cancelled, only a series weight is.  ``n_overflow`` counts those whose
    count lies beyond ``u_max`` or beyond the table, and which contribute zero.
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
    value ``f_x(N_x / rate)``.  ``tables``, if given, fit ``spec`` and ``params``;
    the small branch reads them in one :meth:`CoefficientTables.read`, at
    each symbol's count and, when ``q`` has several masses, its row.

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
    read_max = min(tables.v_max, params.u_max)
    overflow = int(np.count_nonzero(v_small > read_max))
    pick = v_small <= read_max if overflow else slice(None)
    rows = 0 if tables.unique_q is None else tables.table_for_symbols(small)[pick]
    weights = np.zeros(len(v_small) + only2_small)
    weights[: len(v_small)][pick], n_clamped, n_cancelled = tables.read(rows, v_small[pick])
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
