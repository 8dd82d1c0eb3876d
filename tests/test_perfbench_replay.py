"""The benchmark's traced replay still reproduces ``run_experiment``.

``perfbench/replay.py`` repeats a sweep call for call from outside the
package and reads ``table_for_symbols``, ``Histogram.counts`` and the table
flags on the way, and reading the flags must not compute table entries.  An estimator change that breaks any of these, or makes
the replay's CSV drift from the untraced sweep, fails here in about a second
instead of in a benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import propest
from propest.benchmark import ExperimentConfig, results_to_csv, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return {name: importlib.import_module(name) for name in ("replay", "spans", "workloads")}


@pytest.mark.parametrize("workload", ["readme_sweep", "wide_support"])
def test_replay_csv_matches_run_experiment(workload, perfbench):
    workloads = perfbench["workloads"]
    cfg = workloads.TINY[workload]
    replayed = perfbench["replay"].SweepReplay(propest, cfg, perfbench["spans"].Tracer()).run()
    rows = run_experiment(
        ExperimentConfig(
            spec=workloads.make_spec(propest, cfg["property"], cfg["k"]),
            family=cfg["dist"],
            k=cfg["k"],
            n_grid=workloads.parse_n_grid(cfg["n_grid"]),
            trials=cfg["trials"],
            seed=cfg["master_seed"],
            estimators=tuple(cfg["estimators"]),
            alpha=cfg["alpha"],
            s0_mult=cfg["s0_mult"],
        ),
        threads=cfg["threads"],
    )
    assert replayed == results_to_csv(rows)


def test_replay_computes_only_the_entries_it_reads(perfbench):
    cfg = perfbench["workloads"].TINY["readme_sweep"]
    replay = perfbench["replay"].SweepReplay(propest, cfg, perfbench["spans"].Tracer())
    replay.run()
    assert replay.table_uses
    for use in replay.table_uses:
        for table, read in zip(use.tables.tables, use.read_mask):
            assert table.computed.tolist() == np.flatnonzero(read).tolist()
