"""Self-test of the benchmark on tiny configurations; runs in well under a minute.

Usage, from the root of a propest checkout:

    python3 perfbench/selftest.py

For every workload in ``TINY`` it runs the benchmark with tracing off and on
and checks that every metric of BENCHMARK.json is printed with its unit,
that every correctness check passed, and that each reported percentile keeps
at least ten samples beyond it.  Then it checks that the benchmark refuses,
with a non-zero exit and no result line, to run without propest's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
from workloads import MIN_BEYOND, TINY, WORKLOADS

# Percentiles of a layer that is not on the workload's path: no samples, 0.
NOT_ON_PATH = {
    ("readme_sweep", "cli.estimate_overhead_ms.p50"),
    ("wide_support", "cli.estimate_overhead_ms.p50"),
    ("cli_estimate", "distributions.split_sample_ms.p50"),
}


def check_result(name: str, trace: bool, res: dict, spec: dict) -> list[str]:
    problems = []
    expected = spec["per_layer" if trace else "end_to_end"]
    if list(res["metrics"]) != [m["name"] for m in expected]:
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(res['metrics'])}")
    for m in expected:
        got = res["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{m['name']}: {got}")
    if not res["correct"] or res["failed"]:
        problems.append(f"correctness checks failed ({res['failed']} of {res['attempted']})")
    for metric, (n, q) in res["samples"].items():
        if n == 0 and (name, metric) in NOT_ON_PATH:
            continue
        if n * (1.0 - q) < MIN_BEYOND:
            problems.append(f"{metric}: {n} samples leave fewer than {MIN_BEYOND} beyond q={q}")
    return problems


def check_refuses_without_sources(root: Path) -> list[str]:
    bare = root / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "readme_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without propest sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if set(TINY) != set(WORKLOADS) or set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        problems.append("workloads of BENCHMARK.json, WORKLOADS and TINY differ")
    for name, cfg in TINY.items():
        for trace in (False, True):
            t0 = time.monotonic()
            res = run.run(root, name, cfg, seed=3, seconds=1.0, trace=trace)
            found = check_result(name, trace, res, spec)
            problems += [f"{name} trace={int(trace)}: {p}" for p in found]
            print(f"{name} trace={int(trace)}: {'ok' if not found else 'FAILED'} "
                  f"in {time.monotonic() - t0:.1f}s")
    problems += check_refuses_without_sources(root)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
