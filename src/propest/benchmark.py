"""Monte-Carlo benchmark harness.

Sweeps estimators over a grid of sampling budgets and reports the mean
squared error against the exact property value.  Every trial derives its own
seed from (master seed, budget, estimator, trial index), so results are
bit-reproducible regardless of which estimators run, in which order, or on
how many threads.
"""

from __future__ import annotations

import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .distributions import (
    SPLIT_MODES,
    Distribution,
    make_distribution,
    sample_histogram,
    split_sample,
)
from .estimators import (
    amplified_estimate,
    build_coefficient_tables,
    derive_params,
    empirical,
    modified_empirical,
)
from .properties import PropertySpec, exact_value

__all__ = [
    "ESTIMATORS",
    "ExperimentConfig",
    "ResultRow",
    "CSV_HEADER",
    "mse",
    "realized_distribution",
    "results_to_csv",
    "run_experiment",
    "trial_seed",
]

ESTIMATORS = (
    "amplified",
    "empirical",
    "empirical_plus",
    "empirical_plusplus",
    "modified_empirical",
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def trial_seed(master_seed: int, n: int, estimator_id: str, trial_index: int) -> int:
    """Derive a 64-bit per-trial seed by counter-style mixing.

    Stable across releases: changing it would silently change every
    published benchmark number.
    """
    s = _splitmix64(int(master_seed) & _MASK64)
    for part in (int(n) & _MASK64, _fnv1a64(estimator_id.encode("utf-8")), int(trial_index) & _MASK64):
        s = _splitmix64(s ^ _splitmix64(part))
    return s


def mse(estimates: Sequence[float], truth: float) -> float:
    """Mean squared deviation of the estimates from the exact value."""
    if len(estimates) == 0:
        raise ValueError("mse of an empty estimate list")
    diff = np.asarray(estimates, dtype=np.float64) - truth
    return float(np.mean(diff * diff))


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark sweep: a property, a distribution, and an n-grid.

    ``alpha`` and ``s0_mult``, given together, switch the amplified
    estimator to manual tuning (both None means preset tuning).
    ``poissonized`` governs the plug-in family's draws; the amplified
    estimator's split sample is Poissonized by construction.
    """

    spec: PropertySpec
    family: str
    k: int
    n_grid: tuple[int, ...]
    trials: int
    seed: int
    estimators: tuple[str, ...] = ("amplified", "empirical")
    split_mode: str = "two_stream"
    dist_params: dict | None = None
    poissonized: bool = True
    alpha: float | None = None
    s0_mult: float | None = None
    t_decay: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.trials) and self.trials == int(self.trials) >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        object.__setattr__(self, "trials", int(self.trials))
        # The seed is written to the CSV, so it must be the integer every trial draws from.
        if not (isinstance(self.seed, int) or (math.isfinite(self.seed) and self.seed == int(self.seed))):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if not all(math.isfinite(n) and n == int(n) for n in self.n_grid):
            raise ValueError(f"n_grid entries must be integers, got {self.n_grid!r}")
        grid = tuple(int(n) for n in self.n_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])) or not grid:
            raise ValueError("n_grid must be nonempty and strictly increasing")
        if any(n <= 0 for n in grid):
            raise ValueError("n_grid entries must be positive")
        object.__setattr__(self, "n_grid", grid)
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}; choose from {ESTIMATORS}")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError(f"estimators repeated: {list(self.estimators)}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.split_mode not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {self.split_mode!r}")
        if (self.alpha is None) != (self.s0_mult is None):
            raise ValueError("alpha and s0_mult must be given together")


@dataclass(frozen=True)
class ResultRow:
    """Aggregated outcome of one (n, estimator) cell."""

    property: str
    distribution: str
    k: int
    n: int
    estimator: str
    trials: int
    mse: float
    mean_estimate: float
    true_value: float
    seed: int
    error: str | None = None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _formats(cls, skip: str) -> dict[str, Callable[[object], str]]:
    """Each field of dataclass ``cls`` but ``skip``, in order, with the function that writes
    its value by declared type: 17 significant digits for a float, 0/1 for a bool, else ``str``.
    """
    write = {"float": _fmt, "bool": lambda v: str(int(v))}
    return {f.name: write.get(f.type, str) for f in fields(cls) if f.name != skip}


_CSV_FORMATS = _formats(ResultRow, "error")
CSV_HEADER = ",".join(_CSV_FORMATS)


def _plug_in_budget(estimator: str, n: int) -> int:
    if estimator == "empirical_plus":
        return int(round(n * math.sqrt(math.log(n))))
    if estimator == "empirical_plusplus":
        return int(round(n * math.log(n)))
    return n


def _make_trial_fn(cfg: ExperimentConfig, dist, n: int, estimator: str) -> Callable[[int], float]:
    spec = cfg.spec
    if estimator == "amplified":
        params = derive_params(
            n,
            spec,
            preset=cfg.alpha is None,
            alpha=cfg.alpha,
            s0_mult=cfg.s0_mult,
            split_mode=cfg.split_mode,
            t_decay=cfg.t_decay,
        )
        tables = build_coefficient_tables(spec, params)

        def run(trial: int) -> float:
            rng = np.random.default_rng(trial_seed(cfg.seed, n, estimator, trial))
            sample = split_sample(dist, n, mode=cfg.split_mode, rng=rng)
            return amplified_estimate(sample, spec, params, tables)

        return run

    budget = _plug_in_budget(estimator, n)

    def run(trial: int) -> float:
        rng = np.random.default_rng(trial_seed(cfg.seed, n, estimator, trial))
        hist = sample_histogram(dist, budget, poissonized=cfg.poissonized, rng=rng)
        if estimator == "modified_empirical":
            return modified_empirical(hist, budget, spec)
        return empirical(hist, spec)

    return run


def realized_distribution(cfg: ExperimentConfig) -> Distribution:
    """The distribution a sweep of ``cfg`` samples from, fixed by its master seed."""
    dist_rng = np.random.default_rng(trial_seed(cfg.seed, 0, "distribution", 0))
    return make_distribution(cfg.family, cfg.k, cfg.dist_params, rng=dist_rng)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[ResultRow]:
    """Run the full sweep and aggregate one row per (n, estimator) cell.

    A cell that raises ValueError anywhere (while its parameters are derived,
    its sample is sized or its trials run) is marked failed (nan aggregates,
    ``error`` set) and the sweep goes on.  The distribution, including a
    Dirichlet draw, is :func:`realized_distribution`, fixed once per experiment.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    dist = realized_distribution(cfg)
    truth = exact_value(cfg.spec, dist.probs)

    rows: list[ResultRow] = []
    with ThreadPoolExecutor(max_workers=threads) as pool:  # starts no thread unless mapped over
        each_trial = pool.map if threads > 1 else map
        for n in cfg.n_grid:
            for estimator in cfg.estimators:
                base = dict(
                    property=cfg.spec.kind,
                    distribution=cfg.family,
                    k=cfg.k,
                    n=n,
                    estimator=estimator,
                    trials=cfg.trials,
                    true_value=truth,
                    seed=cfg.seed,
                )
                try:
                    estimates = list(each_trial(_make_trial_fn(cfg, dist, n, estimator), range(cfg.trials)))
                except ValueError as exc:
                    rows.append(ResultRow(mse=math.nan, mean_estimate=math.nan, error=str(exc), **base))
                    continue
                rows.append(ResultRow(mse=mse(estimates, truth), mean_estimate=float(np.mean(estimates)), **base))
    return rows


def results_to_csv(rows: Sequence[ResultRow]) -> str:
    """Render rows as CSV text (LF line endings): every :class:`ResultRow` field but ``error``."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(",".join(write(getattr(row, name)) for name, write in _CSV_FORMATS.items()) + "\n")
    return out.getvalue()
