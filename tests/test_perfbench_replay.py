"""The benchmark's traced replay still reproduces ``run_experiment``.

``perfbench/replay.py`` repeats a sweep call for call from outside the
package and reads ``table_for_symbols``, ``Histogram.counts`` and the table
flags on the way.  An estimator change that breaks any of these, or makes
the replay's CSV drift from the untraced sweep, fails here in about a second
instead of in a benchmark run.
"""

import importlib
from pathlib import Path

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
