"""Workload definitions and the inputs they hand to propest.

Each workload is a plain dict so that the parent process can pass it to a
fresh worker interpreter as JSON.  ``WORKLOADS`` holds the measured
configurations; ``TINY`` holds the same workloads shrunk for the self-test.

Why these workloads:

* ``readme_sweep`` is the ROADMAP yardstick verbatim (entropy on zipf,
  k=10000, ten log-spaced n from 1e3 to 1e5, 100 trials, master seed 7).
  Coefficient-table builds dominate it, and its n=59948 cell holds the
  trial-64 outlier of the cancellation defect.  The master seed is pinned
  to 7: the accuracy figures and the outlier are defined at that seed.
* ``wide_support`` is support size on a uniform million-symbol
  distribution.  Turning count vectors into dicts and the per-symbol
  estimate dominate it and tables are a few per cent.  It runs one
  thread: the sweep holds the GIL nearly throughout (two threads kept
  about one core busy and ran no faster), and with both virtual CPUs busy
  the shared host took away up to a quarter of their time for minutes at
  a stretch, so the same code's sweep time moved between 26 and 51 s.
* ``cli_estimate`` is a closed loop of one client calling
  ``propest estimate`` in-process on count files.  Every request has its own
  rate, so every request builds a fresh table that it reads once: the
  write-heavy use of the table layer, and the only workload that parses
  files or uses string symbols.  The count data is pinned (data seed 7)
  so that its accuracy figures are deterministic; the workload seed
  permutes the request order.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = {
    "readme_sweep": {
        "kind": "sweep",
        "property": "entropy",
        "dist": "zipf",
        "k": 10_000,
        "n_grid": "1000:100000:10",
        "trials": 100,
        "master_seed": 7,
        "estimators": ["amplified", "empirical", "empirical_plus"],
        "threads": 1,
        "alpha": None,
        "s0_mult": None,
    },
    "wide_support": {
        "kind": "sweep",
        "property": "support_size",
        "dist": "uniform",
        "k": 1_000_000,
        "n_grid": "100000,1000000",
        "trials": 10,
        "master_seed": 7,
        "estimators": ["amplified", "empirical"],
        "threads": 1,
        "alpha": None,
        "s0_mult": None,
    },
    "cli_estimate": {
        "kind": "requests",
        "k": 10_000,
        "dists": ["zipf", "uniform"],
        "rate_lo": 1e3,
        "rate_hi": 1e5,
        "requests": 40,
        "data_seed": 7,
        "kl_alpha": 0.5,
        "kl_s0_mult": 4.0,
        "v_max": None,
    },
}

# Same shapes, small enough for the self-test to finish in seconds.  Manual
# tuning and --v-max keep the coefficient tables a few hundred entries long.
_TINY_SWEEP = dict(k=100, n_grid="200,400", trials=10, alpha=0.5, s0_mult=2.0)
TINY = {
    "readme_sweep": dict(WORKLOADS["readme_sweep"], **_TINY_SWEEP),
    "wide_support": dict(WORKLOADS["wide_support"], **_TINY_SWEEP),
    "cli_estimate": dict(
        WORKLOADS["cli_estimate"], k=100, rate_lo=200.0, rate_hi=1000.0, v_max=300
    ),
}

# Percentiles must keep at least this many samples beyond them.
MIN_BEYOND = 10
# Table builds timed in a traced run, so that their median keeps MIN_BEYOND.
MIN_TABLE_BUILDS = 2 * MIN_BEYOND


def parse_n_grid(text: str) -> tuple[int, ...]:
    """The n grid exactly as ``propest simulate --n-grid`` reads it."""
    if ":" in text:
        lo, hi, pts = (int(tok) for tok in text.split(":"))
        return tuple(int(n) for n in np.unique(np.round(np.geomspace(lo, hi, pts)).astype(int)))
    return tuple(int(tok) for tok in text.split(","))


def make_spec(propest, prop: str, k: int):
    """The PropertySpec the CLI builds for ``--property prop --k k``."""
    if prop == "entropy":
        return propest.PropertySpec("entropy")
    if prop == "support_size":
        return propest.PropertySpec("support_size", k=k)
    if prop == "kl":
        return propest.PropertySpec("kl_divergence", q=np.full(k, 1.0 / k))
    raise ValueError(f"unknown property {prop!r}")


def sweep_argv(cfg: dict, out: str) -> list[str]:
    argv = [
        "simulate",
        "--property", cfg["property"],
        "--dist", cfg["dist"],
        "--k", str(cfg["k"]),
        "--n-grid", cfg["n_grid"],
        "--trials", str(cfg["trials"]),
        "--seed", str(cfg["master_seed"]),
        "--estimators", ",".join(cfg["estimators"]),
        "--threads", str(cfg["threads"]),
    ]
    if cfg["alpha"] is not None:
        argv += ["--alpha", repr(cfg["alpha"]), "--s0-mult", repr(cfg["s0_mult"])]
    return argv + ["--out", out]


PROPERTIES = ("entropy", "support_size", "kl")


def request_schedule(cfg: dict, seed: int, pass_index: int) -> list[dict]:
    """The requests of one pass, in the order the client sends them.

    Request ``i`` cycles through the three properties, the two
    distributions (in blocks of three) and, every fourth request, omits
    ``--counts2``.  Rates are log-spaced over ``[rate_lo, rate_hi]``; later
    passes shift every rate by a different fraction of one grid step, so no
    (property, rate) pair ever repeats.  The workload seed only permutes the
    order in which the requests are sent.
    """
    n = cfg["requests"]
    offset = 0.5 if pass_index == 0 else math.fmod(0.5 + pass_index * 0.6180339887498949, 1.0)
    lo, hi = math.log10(cfg["rate_lo"]), math.log10(cfg["rate_hi"])
    reqs = [
        {
            "index": i,
            "property": PROPERTIES[i % 3],
            "dist": cfg["dists"][(i // 3) % len(cfg["dists"])],
            "shared": i % 4 == 3,
            "rate": float(10 ** (lo + (hi - lo) * (i + offset) / n)),
        }
        for i in range(n)
    ]
    order = np.random.default_rng([seed, pass_index]).permutation(n)
    return [reqs[j] for j in order]


def request_argv(cfg: dict, req: dict, counts: str, counts2: str | None) -> list[str]:
    argv = ["estimate", "--property", req["property"], "--counts", counts]
    if counts2 is not None:
        argv += ["--counts2", counts2]
    argv += ["--rate", format(req["rate"], ".17g")]
    if req["property"] != "entropy":
        argv += ["--k", str(cfg["k"])]
    if req["property"] == "kl":
        argv += ["--q", "uniform", "--alpha", repr(cfg["kl_alpha"]), "--s0-mult", repr(cfg["kl_s0_mult"])]
    if cfg["v_max"] is not None:
        argv += ["--v-max", str(cfg["v_max"])]
    return argv


def request_tuning(cfg: dict, req: dict) -> dict:
    """``derive_params`` keywords matching :func:`request_argv`."""
    kl = req["property"] == "kl"
    return dict(
        preset=not kl,
        alpha=cfg["kl_alpha"] if kl else None,
        s0_mult=cfg["kl_s0_mult"] if kl else None,
        split_mode="two_stream",
        v_max=cfg["v_max"],
    )


def draw_counts(cfg: dict, probs: np.ndarray, req: dict, pass_index: int):
    """Two Poisson count vectors at the request's rate, from the data seed."""
    rng = np.random.default_rng([cfg["data_seed"], pass_index, req["index"]])
    first = rng.poisson(probs * req["rate"])
    second = rng.poisson(probs * req["rate"])
    return first, (first if req["shared"] else second)


def write_counts(path, counts: np.ndarray) -> None:
    """Write ``symbol,count`` lines for the nonzero entries, ascending symbol."""
    (nz,) = np.nonzero(counts)
    np.savetxt(path, np.column_stack([nz, counts[nz]]), fmt="%d", delimiter=",")


def percentile(samples, q: float) -> float:
    """The ``q``-quantile, refused when fewer than MIN_BEYOND samples lie beyond it.

    An empty sample set means the layer is not on the workload's path; it
    reports 0.
    """
    if len(samples) == 0:
        return 0.0
    if len(samples) * (1.0 - q) < MIN_BEYOND:
        raise ValueError(
            f"{len(samples)} samples leave fewer than {MIN_BEYOND} beyond the {q:g} quantile"
        )
    return float(np.percentile(np.asarray(samples, dtype=np.float64), 100.0 * q))
