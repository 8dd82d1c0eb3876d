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
from propest import estimators
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


def test_workload_tables_build_no_tail_or_factorials(perfbench, monkeypatch):
    """Every table set a benchmark workload builds reads entries ``1..v_max`` from its route alone.

    The sets of both sweeps over their n grids and of eight ``cli_estimate``
    passes: each has a tail of 1 and ``u_max`` within 1.5 times its rate, and
    its entries are read while the Poisson tail and the log factorials raise.
    """
    def refuse(*args):
        raise AssertionError("a Poisson tail or factorial array was built")

    workloads = perfbench["workloads"]
    sets = []
    for name in ("readme_sweep", "wide_support"):
        cfg = workloads.WORKLOADS[name]
        spec = workloads.make_spec(propest, cfg["property"], cfg["k"])
        tuning = dict(preset=cfg["alpha"] is None, alpha=cfg["alpha"], s0_mult=cfg["s0_mult"])
        sets += [(spec, propest.derive_params(n, spec, **tuning)) for n in workloads.parse_n_grid(cfg["n_grid"])]
    cfg = workloads.WORKLOADS["cli_estimate"]
    for pass_index in range(8):
        for req in workloads.request_schedule(cfg, 1, pass_index):
            spec = workloads.make_spec(propest, req["property"], cfg["k"])
            sets.append((spec, propest.derive_params(req["rate"], spec, **workloads.request_tuning(cfg, req))))
    monkeypatch.setattr(estimators, "log_poisson_tail_table", refuse)
    monkeypatch.setattr(estimators, "log_factorials", refuse)
    for spec, params in sets:
        assert estimators._tail_is_one(params) and params.u_max <= 1.5 * params.rate, (spec.kind, params.rate)
        for table in propest.build_coefficient_tables(spec, params).tables:
            assert np.isfinite(table.weights(np.arange(1, table.v_max + 1))).all()
    assert len(sets) == 10 + 2 + 8 * cfg["requests"]
