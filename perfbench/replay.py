"""Traced replays: the same calls propest makes, each timed from outside.

``SweepReplay`` repeats ``run_experiment`` call for call, in its order and
with the same ``trial_seed`` per trial, so its CSV must match the CSV of the
untraced ``simulate`` byte for byte.  ``TableUse`` counts the useful work of
the coefficient tables from their public arrays and the sample counts.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from workloads import make_spec, parse_n_grid


def dense(hist, k: int) -> np.ndarray:
    """Per-symbol count vector of a Histogram keyed by integer symbols."""
    out = np.zeros(k, dtype=np.int64)
    n = len(hist.counts)
    keys = np.fromiter(hist.counts.keys(), dtype=np.int64, count=n)
    out[keys] = np.fromiter(hist.counts.values(), dtype=np.int64, count=n)
    return out


class TableUse:
    """Reads of one table set, counted as ``amplified_estimate_detailed`` makes them.

    A symbol reads entry ``n1`` when ``n2 <= s0`` and ``1 <= n1 <= v_max``;
    with ``n1 > v_max`` it overflows.  A read is flagged when the entry is
    marked clamped or cancelled.
    """

    def __init__(self, tables) -> None:
        self.tables = tables
        self.read_mask = [np.zeros(t.v_max + 1, dtype=bool) for t in tables.tables]
        self.flagged_reads = 0
        self.overflow = 0

    @property
    def entries_built(self) -> int:
        return sum(t.v_max for t in self.tables.tables)

    @property
    def entries_read(self) -> int:
        return int(sum(m.sum() for m in self.read_mask))

    def count(self, n1: np.ndarray, n2: np.ndarray) -> None:
        v_max = self.tables.tables[0].v_max
        small = (n2 <= self.tables.params.s0) & (n1 >= 1)
        self.overflow += int(np.count_nonzero(small & (n1 > v_max)))
        (syms,) = np.nonzero(small & (n1 <= v_max))
        owner = self.tables.table_for_symbols(syms)
        for j, table in enumerate(self.tables.tables):
            v = n1[syms[owner == j]]
            self.read_mask[j][v] = True
            self.flagged_reads += int(np.count_nonzero(table.clamped[v] | table.cancelled[v]))


class SweepReplay:
    """One traced replay of a sweep workload.

    Covers the estimators the workloads use: amplified, empirical and
    empirical_plus.
    """

    def __init__(self, propest, cfg: dict, tracer) -> None:
        self.p = propest
        self.cfg = cfg
        self.tracer = tracer
        self.spec = make_spec(propest, cfg["property"], cfg["k"])
        self.table_uses: list[TableUse] = []
        self.cells: list[dict] = []
        self.seen: list[int] = []
        self.trials = 0
        self.failed = 0
        self._lock = threading.Lock()

    def run(self) -> str:
        p, cfg, spec, span = self.p, self.cfg, self.spec, self.tracer.call
        dist_rng = np.random.default_rng(span("benchmark.trial_seed", p.trial_seed, cfg["master_seed"], 0, "distribution", 0))
        dist = span("distributions.make_distribution", p.make_distribution, cfg["dist"], cfg["k"], {}, rng=dist_rng)
        truth = span("properties.exact_value", p.exact_value, spec, dist.probs)
        rows = []
        for n in parse_n_grid(cfg["n_grid"]):
            for estimator in cfg["estimators"]:
                with self.tracer.span("cell", n=n, estimator=estimator):
                    rows.append(self._cell(dist, truth, n, estimator))
        return span("benchmark.results_to_csv", p.benchmark.results_to_csv, rows)

    def _cell(self, dist, truth, n, estimator):
        p, cfg, spec, span = self.p, self.cfg, self.spec, self.tracer.call
        base = dict(
            property=spec.kind, distribution=cfg["dist"], k=cfg["k"], n=n,
            estimator=estimator, trials=cfg["trials"], true_value=truth, seed=cfg["master_seed"],
        )
        use = None
        try:
            if estimator == "amplified":
                params = span(
                    "estimators.derive_params", p.derive_params, n, spec,
                    preset=cfg["alpha"] is None, alpha=cfg["alpha"], s0_mult=cfg["s0_mult"],
                    split_mode="two_stream",
                )
                tables = span("estimators.build_coefficient_tables", p.build_coefficient_tables, spec, params)
                use = TableUse(tables)
                self.table_uses.append(use)
        except (p.ParameterError, ValueError) as exc:
            self.trials += cfg["trials"]
            self.failed += cfg["trials"]
            return p.benchmark.ResultRow(mse=math.nan, mean_estimate=math.nan, error=str(exc), **base)

        def trial(t: int) -> float:
            with self.tracer.span("trial", n=n, estimator=estimator, trial=t):
                tseed = span("benchmark.trial_seed", p.trial_seed, cfg["master_seed"], n, estimator, t)
                rng = np.random.default_rng(tseed)
                if use is not None:
                    sample = span("distributions.split_sample", p.split_sample, dist, n, mode="two_stream", rng=rng)
                    value = span("estimators.amplified_estimate_detailed", p.amplified_estimate_detailed,
                                 sample, spec, params, tables).value
                    n1, n2 = dense(sample.first, cfg["k"]), dense(sample.second, cfg["k"])
                    with self._lock:
                        self.seen += [len(sample.first.counts), len(sample.second.counts)]
                        use.count(n1, n2)
                else:
                    # run_experiment's sample size for empirical_plus.
                    budget = int(round(n * math.sqrt(math.log(n)))) if estimator == "empirical_plus" else n
                    hist = span("distributions.sample_histogram", p.sample_histogram, dist, budget,
                                poissonized=True, rng=rng)
                    value = span("estimators.empirical", p.empirical, hist, spec)
                    with self._lock:
                        self.seen.append(len(hist.counts))
                return value

        threads = cfg["threads"]
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                estimates = list(pool.map(trial, range(cfg["trials"])))
        else:
            estimates = [trial(t) for t in range(cfg["trials"])]
        self.trials += len(estimates)
        self.failed += sum(1 for v in estimates if not math.isfinite(v))
        with self.tracer.span("benchmark.aggregate"):
            row = p.benchmark.ResultRow(
                mse=p.benchmark.mse(estimates, truth), mean_estimate=float(np.mean(estimates)), **base
            )
        if use is not None:
            errs = np.abs(np.asarray(estimates) - truth)
            worst = int(np.argmax(errs))
            self.cells.append({
                "n": n, "worst_trial": worst,
                "trial_seed": p.trial_seed(cfg["master_seed"], n, estimator, worst),
                "abs_err": float(errs[worst]), "median_abs_err": float(np.median(errs)),
                "flagged_reads": use.flagged_reads, "overflow": use.overflow,
            })
        return row
