"""propest benchmark: one workload per call, one JSON line of figures.

Usage, from the root of a propest checkout:

    python3 perfbench/run.py --workload readme_sweep --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json and ``--trace 1``
the per-layer metrics, from a separate traced replay.  The workload itself
runs in a fresh interpreter (``worker.py``); set-up time and the import
breakdown come from further fresh interpreters.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
1 when any correctness check failed, and 2 when the checkout has no propest
sources or the benchmark itself broke.  Everything the run writes goes under
``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0
SETUP_RUNS = 3
# Probe kernels run in each set-up child after the import.
SETUP_PROBES = 40
IMPORT_MODULES = {"import.propest_ms": "propest", "import.scipy_stats_ms": "scipy.stats", "import.numpy_ms": "numpy"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def python(root: Path, args: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=root, env=child_env(root), timeout=timeout, **kwargs
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} did not finish in time") from exc


# Runs in the child: the import, then the speed probe of ``speed.py`` on the
# same core (see there), which puts the import time on the nominal-speed scale.
IMPORT_PROBE = (
    "import time, propest; t = time.monotonic_ns(); "
    "import sys; sys.path.insert(0, sys.argv[1]); import speed; "
    "print(t); print(propest.__file__); "
    f"print(speed.speed_factor(speed.kernel() for _ in range({SETUP_PROBES})))"
)


def import_once(root: Path, deadline: float) -> float:
    """Seconds from starting a fresh interpreter to ``import propest`` done,
    rescaled to a core of nominal speed."""
    t0 = time.monotonic_ns()
    proc = python(root, ["-c", IMPORT_PROBE, str(HERE)], deadline, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"import propest failed:\n{proc.stderr}")
    stamp, where, factor = proc.stdout.split()
    if Path(where).resolve().parent != (root / "src" / "propest").resolve():
        raise BenchError(f"propest was imported from {where}, not from the checkout")
    return (int(stamp) - t0) / 1e9 * float(factor)


def setup_seconds(root: Path, deadline: float) -> float:
    """Median of SETUP_RUNS fresh imports; the median drops the one that
    compiles bytecode or reads cold files in a new checkout."""
    return statistics.median(import_once(root, deadline) for _ in range(SETUP_RUNS))


def import_costs(stderr: str) -> dict:
    """Cumulative ms per IMPORT_MODULES entry from ``-X importtime`` output.

    Lines come children first, indented two spaces per level.  A module
    counts with its submodules; where the package line itself is missing
    (scipy loads ``scipy.stats`` lazily), its outermost submodules count.
    """
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        children = pending.pop(depth + 1, [])
        pending.setdefault(depth, []).append((name.strip(), int(cum) / 1e3, children))

    def cost(nodes, module: str) -> float:
        return sum(
            ms if name == module or name.startswith(module + ".") else cost(children, module)
            for name, ms, children in nodes
        )

    roots = [node for nodes in pending.values() for node in nodes]
    return {metric: cost(roots, module) for metric, module in IMPORT_MODULES.items()}


def import_breakdown(root: Path, deadline: float) -> dict:
    """Median ``-X importtime`` cost of propest, scipy.stats and numpy, in ms."""
    runs = []
    for _ in range(SETUP_RUNS):
        proc = python(root, ["-X", "importtime", "-c", "import propest"], deadline,
                      capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"import propest failed:\n{proc.stderr}")
        runs.append(import_costs(proc.stderr))
    return {metric: statistics.median(r[metric] for r in runs) for metric in IMPORT_MODULES}


def run_worker(root: Path, name: str, cfg: dict, seed: int, seconds: float, trace: bool,
               deadline: float) -> dict:
    out_dir = root / ".bench_build" / "perfbench" / f"{name}-{'trace' if trace else 'e2e'}"
    out_dir.mkdir(parents=True, exist_ok=True)
    job = {
        "workload": name, "config": cfg, "seed": seed, "seconds": seconds, "trace": trace,
        "out_dir": str(out_dir), "result": str(out_dir / "result.json"),
    }
    job_path = out_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    Path(job["result"]).unlink(missing_ok=True)
    proc = python(root, [str(HERE / "worker.py"), str(job_path)], deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker for {name} exited {proc.returncode}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def load_metric_specs(root: Path, trace: bool) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run(root: Path, name: str, cfg: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object that ``main`` prints."""
    if not (root / "src" / "propest" / "__init__.py").is_file():
        raise BenchError(f"no propest sources under {root / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    extra = import_breakdown(root, deadline) if trace else {"setup_s": setup_seconds(root, deadline)}
    result = run_worker(root, name, cfg, seed, seconds, trace, deadline)
    metrics = dict(result["metrics"], **extra)
    attempted, failed = result["attempted"], result["failed"]
    if not trace:
        metrics["ok_frac"] = 1.0 - failed / attempted if attempted else 0.0
    errors = result["errors"]
    out = {}
    for m in load_metric_specs(root, trace):
        value = metrics.get(m["name"])
        if value is None or not math.isfinite(value):
            if failed == 0:
                raise BenchError(f"metric {m['name']} was not measured")
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    for key, walls in result["report"].items():
        if key.endswith("_wall_s"):
            print(f"{key} (raw, not rescaled): median {statistics.median(walls):.4g} of {len(walls)}",
                  file=sys.stderr)
    for cell in result["report"].get("cells", []):
        print("worst amplified trial: " + json.dumps(cell), file=sys.stderr)
    return {
        "correct": failed == 0 and attempted > 0 and not errors,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": out,
        "samples": result["samples"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        res = run(root, args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    res.pop("samples")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
