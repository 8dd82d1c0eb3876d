"""Runs one workload in a fresh interpreter and writes its figures as JSON.

Usage, from the root of a propest checkout:

    python3 perfbench/worker.py JOB.json

``run.py`` writes the job file: the workload config, the seed, the seconds to
measure, the trace flag and the result path.  propest is imported from the
checkout's ``src`` directory and nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from replay import SweepReplay, TableUse
from spans import Tracer
from speed import SpeedProbe
from workloads import (
    MIN_TABLE_BUILDS,
    draw_counts,
    make_spec,
    parse_n_grid,
    percentile,
    request_argv,
    request_schedule,
    request_tuning,
    sweep_argv,
    write_counts,
)

LAYERS = ("numerics", "properties", "distributions", "estimators", "benchmark", "cli")


def import_propest():
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import propest
    import propest.cli

    where = Path(propest.__file__).resolve().parent
    if where != src / "propest":
        raise SystemExit(f"propest was imported from {where}, not from {src}")
    return propest


class Outcome:
    """Metrics of one run plus the operations attempted and failed."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.report: dict = {}

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def pctl(self, name: str, samples, q: float, scale: float = 1.0) -> None:
        self.metrics[name] = percentile(samples, q) * scale
        self.samples[name] = [len(samples), q]

    def as_dict(self) -> dict:
        return {
            "metrics": self.metrics, "samples": self.samples, "attempted": self.attempted,
            "failed": self.failed, "errors": self.errors, "report": self.report,
        }


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def read_csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def check_sweep_csv(p, cfg: dict, text: str, reference: str | None, out: Outcome) -> None:
    """Count the trials of a simulate CSV, failing those of bad or changed cells."""
    cells = len(parse_n_grid(cfg["n_grid"])) * len(cfg["estimators"])
    out.attempted += cells * cfg["trials"]
    lines = text.splitlines()
    if not lines or lines[0] != p.benchmark.CSV_HEADER or len(lines) != cells + 1:
        out.fail(cells * cfg["trials"], "simulate CSV is missing or malformed")
        return
    ref = reference.splitlines() if reference is not None else lines
    for line, ref_line in zip(lines[1:], ref[1:]):
        fields = line.split(",")
        if not (math.isfinite(float(fields[6])) and math.isfinite(float(fields[7]))):
            out.fail(cfg["trials"], f"non-finite cell: {line}")
        elif line != ref_line:
            out.fail(cfg["trials"], f"cell changed between runs: {line} != {ref_line}")


def sweep_accuracy(text: str, out: Outcome) -> None:
    amp, emp = {}, {}
    for f in read_csv_rows(text):
        (amp if f[4] == "amplified" else emp if f[4] == "empirical" else {})[int(f[3])] = float(f[6])
    ratios = [amp[n] / emp[n] for n in amp if n in emp and emp[n] > 0]
    out.metrics["amplified_mse_max"] = max(amp.values())
    out.metrics["mse_ratio_gmean"] = math.exp(statistics.fmean(math.log(r) for r in ratios))


# Plug-in value and exact value of each swept property, written with numpy
# alone so that they check propest's instead of repeating it.
PLUG_IN = {
    "entropy": lambda freqs, k: float(-np.sum(freqs * np.log(freqs))),
    "support_size": lambda freqs, k: freqs.size / k,
}


def sweep_distribution(p, cfg: dict):
    """The distribution ``run_experiment`` draws for the sweep's master seed."""
    rng = np.random.default_rng(p.trial_seed(cfg["master_seed"], 0, "distribution", 0))
    return p.make_distribution(cfg["dist"], cfg["k"], {}, rng=rng)


def check_plug_in_cell(p, cfg: dict, text: str, out: Outcome) -> None:
    """Recompute the true value and the first ``empirical`` cell independently.

    The draws reuse propest's distribution and trial seeds; the estimate,
    the exact value and the aggregation do not use propest.
    """
    rows = [f for f in read_csv_rows(text) if f[4] == "empirical"]
    if not rows:
        return
    row = rows[0]
    n, k, fx = int(row[3]), cfg["k"], PLUG_IN[cfg["property"]]
    probs = sweep_distribution(p, cfg).probs
    truth = fx(probs[probs > 0], k)
    estimates = []
    for t in range(cfg["trials"]):
        counts = np.random.default_rng(p.trial_seed(cfg["master_seed"], n, "empirical", t)).poisson(probs * n)
        counts = counts[counts > 0]
        estimates.append(fx(counts / counts.sum(), k))
    err = np.asarray(estimates) - truth
    expected = {"true_value": (truth, 8), "mse": (float(np.mean(err * err)), 6), "mean_estimate": (float(np.mean(estimates)), 7)}
    for name, (value, col) in expected.items():
        if not math.isclose(float(row[col]), value, rel_tol=1e-9, abs_tol=1e-12):
            out.fail(cfg["trials"], f"empirical cell n={n}: {name}={row[col]}, recomputed {value!r}")


def run_simulate(p, cfg: dict, path: Path, out: Outcome, probe: SpeedProbe | None = None,
                 times: list | None = None) -> tuple[float, str]:
    """One ``simulate`` call; timed by ``probe`` into ``times`` when given."""
    t0 = time.perf_counter()
    with probe.timed(times) if probe else contextlib.nullcontext():
        rc = p.cli.main(sweep_argv(cfg, str(path)))
    wall = time.perf_counter() - t0
    if rc != 0:
        out.errors.append(f"simulate exited {rc}")
        return wall, ""
    return wall, path.read_text(encoding="utf-8")


def report_times(name: str, times: list, out: Outcome) -> list[float]:
    """Rescaled times of ``times``; the raw wall times go to the report."""
    out.report[f"{name}_wall_s"] = [wall for _, wall in times]
    return [rescaled for rescaled, _ in times]


def sweep_e2e(p, cfg: dict, seed: int, seconds: float, out_dir: Path, out: Outcome) -> None:
    times, reference, probe = [], None, SpeedProbe()
    start = time.perf_counter()
    while True:
        with probe.running():
            wall, text = run_simulate(p, cfg, out_dir / "sweep.csv", out, probe, times)
        check_sweep_csv(p, cfg, text, reference, out)
        reference = text if reference is None else reference
        if time.perf_counter() - start + wall > seconds:
            break
    sweep_s = statistics.median(report_times("sweep", times, out))
    out.metrics["sweep_s"] = sweep_s
    # A sweep has no per-estimate request to time from outside; its time per
    # estimate is its rescaled time over the trials it runs, table builds included.
    trials = len(parse_n_grid(cfg["n_grid"])) * len(cfg["estimators"]) * cfg["trials"]
    out.metrics["estimate_p50_ms"] = out.metrics["estimate_p75_ms"] = sweep_s * 1e3 / trials
    out.report["sweeps"] = len(times)
    if out.failed == 0:
        sweep_accuracy(reference, out)
        check_plug_in_cell(p, cfg, reference, out)


def layer_shares(tracer: Tracer, denominator: float) -> dict:
    """Self time of each layer as a share of ``denominator`` seconds."""
    busy = tracer.layer_busy()
    return {f"{layer}.share": busy.get(layer, 0.0) / denominator for layer in LAYERS}


def table_metrics(uses: list[TableUse], out: Outcome) -> None:
    built = sum(u.entries_built for u in uses)
    read = sum(u.entries_read for u in uses)
    out.metrics.update({
        "estimators.table_builds": float(len(uses)),
        "estimators.table_entries_built": float(built),
        "estimators.table_entries_read": float(read),
        "estimators.table_read_ratio": read / built if built else 0.0,
        "estimators.flagged_weight_reads": float(sum(u.flagged_reads for u in uses)),
        "estimators.overflow_symbols": float(sum(u.overflow for u in uses)),
    })


def sweep_traced(p, cfg: dict, seed: int, seconds: float, out_dir: Path, out: Outcome) -> Tracer:
    threads = cfg["threads"]
    cpu0 = cpu_seconds()
    untraced_wall, untraced_csv = run_simulate(p, cfg, out_dir / "sweep.csv", out)
    cpu_util = (cpu_seconds() - cpu0) / (untraced_wall * threads)

    tracer = Tracer()
    replay = SweepReplay(p, cfg, tracer)
    with tracer.count_inner_calls(p.estimators):
        t0 = time.perf_counter()
        with tracer.span("workload", workload=cfg["kind"]):
            replay_csv = replay.run()
        replay_wall = time.perf_counter() - t0
    out.attempted += replay.trials
    out.failed += replay.failed
    if untraced_csv != replay_csv:
        mismatched = sum(a != b for a, b in zip(replay_csv.splitlines(), untraced_csv.splitlines()))
        out.fail(max(1, mismatched) * cfg["trials"], "traced replay CSV differs from simulate CSV")

    out.metrics.update(layer_shares(tracer, replay_wall * threads))
    builds = tracer.durations("estimators.build_coefficient_tables")
    out.metrics["estimators.table_build_s"] = sum(builds)
    out.metrics["numerics.in_table_build_s"] = tracer.inner_total("numerics", "estimators.build_coefficient_tables")
    # Repeat builds of the same tables until their median keeps MIN_BEYOND
    # samples beyond it; the repeats feed only that median.
    while replay.table_uses and len(builds) < MIN_TABLE_BUILDS:
        use = replay.table_uses[len(builds) % len(replay.table_uses)]
        t0 = time.perf_counter()
        p.build_coefficient_tables(replay.spec, use.tables.params)
        builds.append(time.perf_counter() - t0)
    out.pctl("estimators.table_build_ms.p50", builds, 0.5, 1e3)
    table_metrics(replay.table_uses, out)

    split = tracer.durations("distributions.split_sample")
    out.pctl("distributions.split_sample_ms.p50", split, 0.5, 1e3)
    out.pctl("cli.estimate_overhead_ms.p50", [], 0.5, 1e3)
    out.metrics.update({
        "distributions.split_sample_s": sum(split),
        "distributions.sample_histogram_s": tracer.total("distributions.sample_histogram"),
        "distributions.seen_symbols_mean": statistics.fmean(replay.seen) if replay.seen else 0.0,
        "distributions.make_distribution_s": tracer.total("distributions.make_distribution"),
        "properties.exact_value_s": tracer.total("properties.exact_value"),
        "estimators.amplified_estimate_s": tracer.total("estimators.amplified_estimate_detailed"),
        "estimators.empirical_s": tracer.total("estimators.empirical"),
        "benchmark.aggregate_s": tracer.total("benchmark.aggregate"),
        "benchmark.results_to_csv_s": tracer.total("benchmark.results_to_csv"),
        "benchmark.worst_trial_abs_err": max((c["abs_err"] for c in replay.cells), default=0.0),
        "benchmark.cpu_util": cpu_util,
        "trace.overhead_frac": replay_wall / untraced_wall - 1.0,
    })
    out.report.update(cells=replay.cells, untraced_wall=untraced_wall, replay_wall=replay_wall)
    return tracer


# ---------------------------------------------------------------------------
# cli_estimate
# ---------------------------------------------------------------------------


def call_cli(p, argv: list[str]) -> tuple[int, dict]:
    """One in-process ``propest`` call; returns the exit code and key=value reply."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = p.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    reply = dict(line.split("=", 1) for line in stdout.getvalue().splitlines() if "=" in line)
    return rc, reply


def prepare_pass(p, cfg: dict, seed: int, pass_index: int, dists: dict, out_dir: Path) -> list[dict]:
    """Write the count files of one pass and return its requests in send order."""
    items = []
    for req in request_schedule(cfg, seed, pass_index):
        first, second = draw_counts(cfg, dists[req["dist"]].probs, req, pass_index)
        path1 = out_dir / f"r{req['index']}-a.csv"
        write_counts(path1, first)
        path2 = None
        if not req["shared"]:
            path2 = out_dir / f"r{req['index']}-b.csv"
            write_counts(path2, second)
        argv = request_argv(cfg, req, str(path1), None if path2 is None else str(path2))
        items.append(dict(req, argv=argv, first=first, second=second))
    return items


def library_estimate(p, cfg: dict, item: dict):
    """``amplified_estimate_detailed`` on the request's counts, outside the CLI.

    The table stops at the largest count a small-branch symbol has.  Its
    entries are computed exactly as in the full table, so the estimate is
    the same to the last bit at a fraction of the cost.
    """
    spec = make_spec(p, item["property"], cfg["k"])
    params = p.derive_params(item["rate"], spec, **request_tuning(cfg, item))
    small = item["first"][(item["second"] <= params.s0) & (item["first"] >= 1)]
    v_max = min(params.v_max, max(1, int(small.max(initial=1))))
    tables = p.build_coefficient_tables(spec, params, v_max)
    first = p.Histogram.from_array(item["first"])
    second = first if item["shared"] else p.Histogram.from_array(item["second"])
    sample = p.SplitSample(first=first, second=second, rate=item["rate"])
    return spec, p.amplified_estimate_detailed(sample, spec, params, tables)


def check_reply(item: dict, rc: int, reply: dict, expected: float, out: Outcome) -> float | None:
    """The reply's estimate if the request succeeded and matches ``expected``."""
    out.attempted += 1
    where = f"request {item['index']} ({item['property']}, {item['dist']}, rate={item['rate']:.6g})"
    if rc != 0 or "estimate" not in reply:
        out.fail(1, f"{where}: exit code {rc}")
        return None
    value = float(reply["estimate"])
    if not math.isfinite(value):
        out.fail(1, f"{where}: non-finite estimate {reply['estimate']}")
        return None
    if reply["estimate"] != format(expected, ".17g"):
        out.fail(1, f"{where}: estimate={reply['estimate']} but the library gives {expected!r}")
        return None
    return value


def make_dists(p, cfg: dict) -> dict:
    return {name: p.make_distribution(name, cfg["k"]) for name in cfg["dists"]}


def requests_e2e(p, cfg: dict, seed: int, seconds: float, out_dir: Path, out: Outcome) -> None:
    dists = make_dists(p, cfg)
    times, pass_times, errors, probe = [], [], {}, SpeedProbe()
    start = time.perf_counter()
    pass_index = 0
    while True:
        items = prepare_pass(p, cfg, seed, pass_index, dists, out_dir)
        replies = []
        with probe.running():
            for item in items:
                with probe.timed(times):
                    replies.append(call_cli(p, item["argv"]))
        pass_times.append(times[-len(items):])
        for item, (rc, reply) in zip(items, replies):
            spec, detail = library_estimate(p, cfg, item)
            value = check_reply(item, rc, reply, detail.value, out)
            if pass_index == 0 and value is not None:
                truth = p.exact_value(spec, dists[item["dist"]].probs)
                plug_in = p.empirical(p.Histogram.from_array(item["first"]), spec)
                group = errors.setdefault((item["property"], item["dist"]), ([], []))
                group[0].append((value - truth) ** 2)
                group[1].append((plug_in - truth) ** 2)
        pass_index += 1
        if time.perf_counter() - start + sum(wall for _, wall in pass_times[-1]) > seconds:
            break
    out.report["passes"] = pass_index
    out.report["pass_wall_s"] = [sum(wall for _, wall in t) for t in pass_times]
    out.metrics["sweep_s"] = statistics.median(sum(rescaled for rescaled, _ in t) for t in pass_times)
    latencies = report_times("request", times, out)
    out.pctl("estimate_p50_ms", latencies, 0.5, 1e3)
    out.pctl("estimate_p75_ms", latencies, 0.75, 1e3)
    if out.failed == 0:
        amp = {g: statistics.fmean(e[0]) for g, e in errors.items()}
        emp = {g: statistics.fmean(e[1]) for g, e in errors.items()}
        out.metrics["amplified_mse_max"] = max(amp.values())
        out.metrics["mse_ratio_gmean"] = math.exp(statistics.fmean(math.log(amp[g] / emp[g]) for g in amp))


def requests_traced(p, cfg: dict, seed: int, seconds: float, out_dir: Path, out: Outcome) -> Tracer:
    """One untraced pass, then the same requests again with spans.

    The traced pass spans the calls the CLI makes into estimators
    (``derive_params`` and ``amplified_estimate_detailed``, which builds the
    table), so the ``cli.main`` span's self time is the CLI's own overhead.
    """
    t0 = time.perf_counter()
    dists = make_dists(p, cfg)
    make_distribution_s = time.perf_counter() - t0
    items = prepare_pass(p, cfg, seed, 0, dists, out_dir)
    cpu0 = cpu_seconds()
    untraced_wall = 0.0
    for item in items:
        t0 = time.perf_counter()
        call_cli(p, item["argv"])
        untraced_wall += time.perf_counter() - t0
    cpu_util = (cpu_seconds() - cpu0) / untraced_wall

    tracer = Tracer()
    uses, seen, worst, exact_value_s = [], [], 0.0, 0.0
    for item in items:
        results = []
        with tracer.count_inner_calls(p.estimators), \
                tracer.span_calls(p.cli, ("derive_params", "amplified_estimate_detailed"), results), \
                tracer.span_calls(p.estimators, ("build_coefficient_tables",), results), \
                tracer.span("request", index=item["index"], rate=item["rate"]), \
                tracer.span("cli.main"):
            rc, reply = call_cli(p, item["argv"])
        spec, detail = library_estimate(p, cfg, item)
        value = check_reply(item, rc, reply, detail.value, out)
        second = item["first"] if item["shared"] else item["second"]
        for name, tables in results:
            if name == "estimators.build_coefficient_tables":
                uses.append(TableUse(tables))
                uses[-1].count(item["first"], second)
        seen += [int(np.count_nonzero(item["first"]))] + ([] if item["shared"] else [int(np.count_nonzero(second))])
        t0 = time.perf_counter()
        truth = p.exact_value(spec, dists[item["dist"]].probs)
        exact_value_s += time.perf_counter() - t0
        if value is not None:
            worst = max(worst, abs(value - truth))
    cli_total = tracer.total("cli.main")
    overheads = tracer.self_durations("cli.main")
    out.metrics.update(layer_shares(tracer, cli_total))
    builds = tracer.durations("estimators.build_coefficient_tables")
    out.metrics["estimators.table_build_s"] = sum(builds)
    out.metrics["numerics.in_table_build_s"] = tracer.inner_total("numerics", "estimators.build_coefficient_tables")
    out.pctl("estimators.table_build_ms.p50", builds, 0.5, 1e3)
    table_metrics(uses, out)
    out.pctl("distributions.split_sample_ms.p50", [], 0.5, 1e3)
    out.pctl("cli.estimate_overhead_ms.p50", overheads, 0.5, 1e3)
    out.metrics.update({
        "distributions.split_sample_s": 0.0,
        "distributions.sample_histogram_s": 0.0,
        "distributions.seen_symbols_mean": statistics.fmean(seen),
        "distributions.make_distribution_s": make_distribution_s,
        "properties.exact_value_s": exact_value_s,
        "estimators.amplified_estimate_s": sum(tracer.self_durations("estimators.amplified_estimate_detailed")),
        "estimators.empirical_s": 0.0,
        "benchmark.aggregate_s": 0.0,
        "benchmark.results_to_csv_s": 0.0,
        "benchmark.worst_trial_abs_err": worst,
        "benchmark.cpu_util": cpu_util,
        "trace.overhead_frac": cli_total / untraced_wall - 1.0,
    })
    return tracer


RUNNERS = {
    ("sweep", False): sweep_e2e,
    ("sweep", True): sweep_traced,
    ("requests", False): requests_e2e,
    ("requests", True): requests_traced,
}


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as f:
        job = json.load(f)
    p = import_propest()
    cfg = job["config"]
    out_dir = Path(job["out_dir"])
    out = Outcome()
    runner = RUNNERS[(cfg["kind"], bool(job["trace"]))]
    tracer = runner(p, cfg, job["seed"], job["seconds"], out_dir, out)
    if tracer is None:
        out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer.write(out_dir / "trace.json", {"workload": job["workload"], "report": out.report})
    with open(job["result"], "w", encoding="utf-8") as f:
        json.dump(out.as_dict(), f)


if __name__ == "__main__":
    main()
