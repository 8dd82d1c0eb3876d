"""Benchmark distributions, Poissonized sampling, and sample splitting.

Families with unbounded support (zipf, poisson, geometric) are restricted to
the first ``k`` symbols and renormalized.  Poissonized samples are generated
directly as independent per-symbol Poisson counts, which is exactly
equivalent to drawing ``Poisson(n)`` i.i.d. symbols and tallying them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import log1p, log_factorials

__all__ = [
    "FAMILIES",
    "Family",
    "SPLIT_MODES",
    "Distribution",
    "Histogram",
    "SplitSample",
    "make_distribution",
    "sample_histogram",
    "split_sample",
]

# Per-stream Poisson rate of each split mode, as a multiple of the budget.
SPLIT_MODES = {"two_stream": 1.0, "thinned": 0.5, "shared": 1.0}


@dataclass(frozen=True)
class Distribution:
    """An explicit probability vector over symbols ``0..k-1``."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64).copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Counts of one sample stream: ``array[x]`` is the count of symbol id ``x``.

    ``array`` is a read-only ``int64`` view of the given vector (an ``int64``
    vector is not copied); ``total`` is its sum.
    """

    array: np.ndarray
    total: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        given = np.asarray(self.array)
        if given.ndim != 1:
            raise ValueError("counts must be a 1-D vector indexed by symbol id")
        # Refused before the cast to int64, which would wrap or warn on them.
        if given.size and (given.min() < 0 or given.dtype.kind in "fu" and not given.max() < 2**63
                           or given.dtype.kind == "f" and not np.array_equal(given, np.trunc(given))):
            raise ValueError("counts must be integers in 0..2^63-1")
        array = given.astype(np.int64, copy=False)
        array = array.view()
        array.flags.writeable = False
        object.__setattr__(self, "array", array)
        total = int(array.sum())
        if array.size and array.max() > (2**63 - 1) // array.size:  # the int64 sum may have wrapped
            total = sum(array.tolist())
            if total >= 2**63:
                raise ValueError("counts must total at most 2^63-1")
        object.__setattr__(self, "total", total)

    @classmethod
    def from_array(cls, count_vector: np.ndarray) -> "Histogram":
        """The same as ``Histogram(count_vector)``."""
        return cls(count_vector)

    @property
    def counts(self) -> dict:
        """``{id: count}`` for the nonzero ids, ascending; built on each access."""
        (ids,) = np.nonzero(self.array)
        return dict(zip(ids.tolist(), self.array[ids].tolist()))


@dataclass(frozen=True)
class SplitSample:
    """A pair of count streams plus the per-stream Poisson rate."""

    first: Histogram
    second: Histogram
    rate: float


def _normalize_log(log_mass: np.ndarray) -> np.ndarray:
    p = np.exp(log_mass - log_mass.max())
    return p / p.sum()


@dataclass(frozen=True)
class Family:
    """A family's one parameter, if any: its key in ``params``, default and ``simulate``
    flag, and the ``high`` end of the open interval ``(0, high)`` its value must lie in.
    """

    param: str | None = None
    default: float | None = None
    flag: str | None = None
    high: float = math.inf


FAMILIES = {
    "uniform": Family(),
    "dirichlet": Family("concentration", 2.0, "--dirichlet-conc"),
    "zipf": Family("power", 1.5, "--zipf-power"),
    "binomial": Family("prob", 0.3, "--binom-prob", high=1.0),
    "poisson": Family("mean", 3000.0, "--poisson-mean"),
    "geometric": Family("prob", 0.99, "--geom-prob", high=1.0),
}


def make_distribution(
    family: str,
    k: int,
    params: dict | None = None,
    rng: np.random.Generator | int | None = None,
) -> Distribution:
    """Construct one of the benchmark families over ``k`` symbols.

    Conventions: zipf puts mass ``rank^(-power)`` on ranks 1..k; geometric
    puts ``(1-prob)^(x-1) * prob`` on 1..k; poisson and binomial live on
    0..k-1 (binomial with k-1 trials).  The dirichlet family draws one
    vector from a symmetric Dirichlet prior and therefore consumes ``rng``.
    ``params`` holds at most the family's one parameter (see :data:`FAMILIES`).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {tuple(FAMILIES)}")
    if k < 1 or k != int(k):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    k = int(k)
    record = FAMILIES[family]
    params = dict(params or {})
    value = params.pop(record.param, record.default)
    if params:
        raise ValueError(f"{family} does not read {', '.join(map(repr, params))}")
    if record.param is not None:
        value = float(value)
        if not 0 < value < record.high:
            raise ValueError(f"{family} {record.param} must lie in (0, {record.high:g}), got {value!r}")

    if family == "uniform":
        probs = np.full(k, 1.0 / k)
        probs /= probs.sum()
    elif family == "dirichlet":
        if rng is None:
            raise ValueError("dirichlet family requires an rng or seed")
        probs = np.random.default_rng(rng).dirichlet(np.full(k, value))  # a Generator is kept as it is
        probs = probs / probs.sum()
    elif family == "zipf":
        probs = _normalize_log(-value * np.log(np.arange(1, k + 1, dtype=np.float64)))
    elif family == "binomial":
        # scipy.stats.binom's log-pmf formula, with the bits of its gammaln and log1p.
        x, log_fact = np.arange(k, dtype=np.float64), log_factorials(k)
        log_pmf = log_fact[k - 1] - (log_fact + log_fact[::-1])
        probs = _normalize_log(log_pmf + x * math.log(value) + (k - 1 - x) * log1p(-value))
    elif family == "poisson":
        x = np.arange(k, dtype=np.float64)
        probs = _normalize_log(x * math.log(value) - log_factorials(k) - value)
    else:  # geometric
        x = np.arange(1, k + 1, dtype=np.float64)
        probs = _normalize_log((x - 1.0) * math.log1p(-value) + math.log(value))

    return Distribution(probs)


def sample_histogram(
    dist: Distribution,
    n: float,
    poissonized: bool = True,
    *,
    rng: np.random.Generator,
) -> Histogram:
    """Draw one count histogram of expected (or exact) size ``n``.

    Poissonized mode draws independent ``Poisson(n * p_x)`` counts per
    symbol; fixed mode draws exactly ``n`` i.i.d. symbols.
    """
    if not n > 0:
        raise ValueError(f"sample size must be positive, got {n!r}")
    if poissonized:
        counts = rng.poisson(dist.probs * float(n))
    else:
        counts = rng.multinomial(int(round(n)), dist.probs)
    return Histogram(counts)


def split_sample(
    dist: Distribution,
    budget: float,
    mode: str = "two_stream",
    *,
    rng: np.random.Generator,
) -> SplitSample:
    """Produce the two count streams consumed by the amplified estimator.

    ``two_stream`` draws two independent Poissonized streams of rate
    ``budget`` each (expected total ``2 * budget``).  ``thinned`` draws one
    stream of rate ``budget`` and routes each sample to a side by a fair
    coin, so each side has rate ``budget / 2``.  ``shared`` reuses a single
    rate-``budget`` stream as both sides; the sides are then fully dependent,
    which trades theory for sample thrift.  Side rates: :data:`SPLIT_MODES`.
    """
    if mode not in SPLIT_MODES:
        raise ValueError(f"unknown split mode {mode!r}; choose from {tuple(SPLIT_MODES)}")
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    rate = float(budget) * SPLIT_MODES[mode]
    if mode == "thinned":
        counts = rng.poisson(dist.probs * float(budget))
        first = rng.binomial(counts, 0.5)
        return SplitSample(first=Histogram(first), second=Histogram(counts - first), rate=rate)
    first = sample_histogram(dist, budget, poissonized=True, rng=rng)
    second = first if mode == "shared" else sample_histogram(dist, budget, poissonized=True, rng=rng)
    return SplitSample(first=first, second=second, rate=rate)
