"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-3 are identity and oracle checks at small parameter settings
(with 256-bit reference arithmetic where stated); criterion 4 shows that the
series/quadrature check of criterion 2 fails on a corrupted weight.
Criteria 5-7 are statistical reproductions at desk scale with fixed seeds;
their tolerances absorb Monte-Carlo noise.  Criterion 8 re-runs 5-7 and compares CSV bytes
across parallelism levels.  Criterion 9 holds every weight the README sweep's
large-n cells read to its exact value.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion lines.
"""

import math
import statistics
import time
from decimal import Decimal

import numpy as np
import pytest

from propest.benchmark import (
    ExperimentConfig,
    results_to_csv,
    run_experiment,
    trial_seed,
)
from propest.distributions import make_distribution, sample_histogram, split_sample
from propest.estimators import (
    EstimatorParams,
    _log_envelope,
    amplified_estimate,
    build_coefficient_table,
    build_coefficient_tables,
    derive_params,
    empirical,
)
from propest import estimators
from propest.properties import (
    KINDS,
    distance_to_uniformity,
    entropy,
    kl_divergence,
    l1_distance,
    power_sum,
    support_coverage,
    support_size,
)
from propest.selfcheck import exact_weights

from oracles import check_series_quadrature, integrate_poisson_kernel_bessel, mp_entropy_coefficient, smoothed_h_hat

SEED = 29

SMALL = dict(rate=150.0, t=3.0, s0=1)


def small_params(t_decay=False):
    return EstimatorParams(t_decay=t_decay, **SMALL)


def test_criterion_1_integral_identity():
    start = time.time()
    worst = 0.0
    for u in range(1, 6):
        inv_fact = 1.0 / math.factorial(u)
        for y in (0.1, 1.0, 5.0, 20.0):
            target = math.exp(-y) * y**u * inv_fact
            value = integrate_poisson_kernel_bessel(u, y, upper=u + y + 50.0)
            dev = abs(value - target) / max(inv_fact, target)
            worst = max(worst, dev)
            assert dev < 1e-6, f"u={u} y={y}: deviation {dev:.3e}"
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"criterion 1 integral identity: PASS (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_series_quadrature_consistency():
    start = time.time()
    params = small_params()
    worst = 0.0
    for lam in (0.1, 0.5, 1.0, 2.0):
        series, quad = smoothed_h_hat(entropy(), lam, params)
        gap = abs(series - quad)
        worst = max(worst, gap)
        assert gap < 1e-5, f"lam={lam}: |series - quadrature| = {gap:.3e}"
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"criterion 2 series/quadrature: PASS (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_coefficient_correctness():
    start = time.time()
    params = small_params()
    spec = entropy()
    envelope = math.exp(_log_envelope(spec, params))
    worst = 0.0
    for v in range(1, 21):
        value = build_coefficient_table(spec, params).weights(v)
        oracle = mp_entropy_coefficient(v, params)
        if abs(value) < 1e-12 and abs(oracle) < 1e-12:
            continue
        rel = abs(value - oracle) / abs(oracle)
        worst = max(worst, rel)
        assert rel < 1e-8, f"v={v}: relative error {rel:.3e}"
        assert abs(value) <= envelope * (1 + 1e-12), f"v={v}: envelope violated"
        assert abs(oracle) <= envelope * (1 + 1e-12)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"criterion 3 coefficients vs 256-bit: PASS (worst rel {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_4_corrupted_weight_fails_series_quadrature(monkeypatch):
    start = time.time()
    assert check_series_quadrature().passed
    real = estimators._coefficient_signed_logs
    gaps = {}
    for bad_v in (1, 3, 8, 16):
        def corrupted(spec, params, v, *args, bad_v=bad_v):
            # one entry off by a relative 1e-2
            return [
                (sign, log_mag + (math.log1p(1e-2) if count == bad_v else 0.0), cancelled)
                for count, (sign, log_mag, cancelled) in zip(v.tolist(), real(spec, params, v, *args))
            ]

        monkeypatch.setattr(estimators, "_coefficient_signed_logs", corrupted)
        result = check_series_quadrature()
        assert not result.passed, f"v={bad_v} corrupted, check passed: {result.detail}"
        gaps[bad_v] = result.detail.split()[4]  # "worst |series - quadrature| GAP (...)"
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(
        "criterion 4 corrupted weight fails series/quadrature: PASS "
        f"(gaps {', '.join(f'v={v} {g}' for v, g in gaps.items())}, {elapsed:.2f}s)"
    )


# --- statistical criteria -------------------------------------------------

AMPLIFICATION_CFG = ExperimentConfig(
    spec=entropy(),
    family="zipf",
    k=1000,
    n_grid=(1000, 3162, 10000),
    trials=50,
    seed=SEED,
    estimators=("amplified", "empirical", "empirical_plus"),
    split_mode="shared",
    t_decay=True,
)

SUPPORT_CFG = ExperimentConfig(
    spec=support_size(1000),
    family="uniform",
    k=1000,
    n_grid=(1000,),
    trials=50,
    seed=SEED,
    estimators=("amplified", "empirical"),
)

CONSISTENCY_CFG = ExperimentConfig(
    spec=entropy(),
    family="uniform",
    k=100,
    n_grid=(10**6,),
    trials=100,
    seed=SEED,
    estimators=("empirical",),
    poissonized=False,
)


@pytest.fixture(scope="module")
def amplification_rows():
    start = time.time()
    rows = run_experiment(AMPLIFICATION_CFG)
    return rows, time.time() - start


def test_criterion_5_entropy_amplification(amplification_rows):
    rows, elapsed = amplification_rows
    cell = {(r.n, r.estimator): r for r in rows}
    for n in AMPLIFICATION_CFG.n_grid:
        amp = cell[(n, "amplified")].mse
        emp = cell[(n, "empirical")].mse
        assert amp <= emp, f"n={n}: MSE(amplified)={amp:.5g} > MSE(empirical)={emp:.5g}"
    amp_1e4 = cell[(10000, "amplified")].mse
    plus_1e4 = cell[(10000, "empirical_plus")].mse
    assert amp_1e4 <= 2 * plus_1e4, (
        f"MSE(amplified)={amp_1e4:.5g} exceeds twice "
        f"MSE(empirical at n*sqrt(log n))={plus_1e4:.5g}"
    )
    assert elapsed < 180.0
    ratios = [
        cell[(n, "amplified")].mse / cell[(n, "empirical")].mse
        for n in AMPLIFICATION_CFG.n_grid
    ]
    print(
        "criterion 5 entropy amplification: PASS "
        f"(MSE ratios vs empirical {[f'{r:.2f}' for r in ratios]}, "
        f"ratio vs empirical+ at n=10000 {amp_1e4 / plus_1e4:.2f}, {elapsed:.1f}s)"
    )


@pytest.fixture(scope="module")
def support_rows():
    start = time.time()
    rows = run_experiment(SUPPORT_CFG)
    return rows, time.time() - start


def test_criterion_6_support_size_bias(support_rows):
    rows, elapsed = support_rows
    cell = {r.estimator: r for r in rows}
    mean_emp = cell["empirical"].mean_estimate
    target = 1.0 - math.exp(-1.0)
    assert abs(mean_emp - target) < 0.03, f"mean empirical {mean_emp:.4f} vs {target:.4f}"
    assert cell["amplified"].mse < cell["empirical"].mse
    assert elapsed < 60.0
    print(
        "criterion 6 support-size bias: PASS "
        f"(mean empirical {mean_emp:.4f} ~ {target:.4f}, "
        f"MSE f*={cell['amplified'].mse:.4f} < f^E={cell['empirical'].mse:.4f}, {elapsed:.1f}s)"
    )


@pytest.fixture(scope="module")
def consistency_rows():
    start = time.time()
    rows = run_experiment(CONSISTENCY_CFG)
    return rows, time.time() - start


def test_criterion_7_empirical_consistency(consistency_rows):
    rows, elapsed = consistency_rows
    # per-trial hit count; the harness trial seeding is replayed exactly
    cfg = CONSISTENCY_CFG
    dist = make_distribution("uniform", cfg.k)
    hits = 0
    for trial in range(cfg.trials):
        rng = np.random.default_rng(trial_seed(cfg.seed, 10**6, "empirical", trial))
        hist = sample_histogram(dist, 10**6, poissonized=False, rng=rng)
        if abs(empirical(hist, entropy()) - math.log(100)) < 0.01:
            hits += 1
    assert hits >= 95, f"only {hits}/100 trials within 0.01 of log(100)"
    (row,) = rows
    assert abs(row.mean_estimate - math.log(100)) < 0.01
    assert elapsed < 60.0
    print(f"criterion 7 empirical consistency: PASS ({hits}/100 hits, {elapsed:.1f}s)")


def test_criterion_8_determinism(amplification_rows, support_rows, consistency_rows):
    start = time.time()
    for cfg, (rows, _) in (
        (AMPLIFICATION_CFG, amplification_rows),
        (SUPPORT_CFG, support_rows),
        (CONSISTENCY_CFG, consistency_rows),
    ):
        baseline = results_to_csv(rows)
        again = results_to_csv(run_experiment(cfg, threads=1))
        threaded = results_to_csv(run_experiment(cfg, threads=3))
        assert again == baseline, f"rerun differs for {cfg.spec.kind}"
        assert threaded == baseline, f"threads=3 differs for {cfg.spec.kind}"
        assert baseline.encode("utf-8").count(b"\r") == 0
    elapsed = time.time() - start
    print(f"criterion 8 determinism: PASS (byte-identical reruns at threads 1 and 3, {elapsed:.1f}s)")


# A kind without a weight route reads the float series, off by ~1e-10 relative at v = 20.
NO_ROUTE = pytest.mark.xfail(raises=AssertionError, strict=True,
                             reason="no weight route until ROADMAP stages 21b and 21c")


# One case per kind: the README sweep's two cells where the alternating series failed for
# entropy (v=59 at n=59948 was off by a factor of 744) and one past its grid, and README
# n = 1e4 for the rest.  A kind without a preset takes an estimate's kl tuning.
UNIFORM_Q = np.full(10_000, 1e-4)
MANUAL = dict(preset=False, alpha=0.5, s0_mult=4.0)
CRITERION_9 = {
    "entropy": (entropy(), (35938, 59948, 300000), {}),
    "support_size": (support_size(10_000), (10_000,), {}),
    "support_coverage": (support_coverage(2e4), (10_000,), {}),
    "power_sum": (power_sum(2.0), (10_000,), {}),
    "dist_to_uniform": (distance_to_uniformity(10_000), (10_000,), {}),
    "l1_distance": (l1_distance(UNIFORM_Q), (10_000,), MANUAL),
    "kl_divergence": (kl_divergence(UNIFORM_Q), (10_000,), MANUAL),
}
assert set(CRITERION_9) == set(KINDS), "criterion 9 has no case for some kind"


@pytest.mark.parametrize("spec, ns, tuning", [pytest.param(*CRITERION_9[kind], id=kind) for kind in KINDS])
def test_criterion_9_weights_read_are_exact(spec, ns, tuning, request):
    if KINDS[spec.kind].weights is None:
        request.applymarker(NO_ROUTE)
    # The weights that 100 trials at seed 7 read on zipf k=10000 at each n.
    # Each weight is compared once, however often read.
    start = time.time()
    dist = make_distribution("zipf", 10_000, {}, rng=np.random.default_rng(trial_seed(7, 0, "distribution", 0)))
    errors = []
    for n in ns:
        params = derive_params(n, spec, **tuning)
        tables = build_coefficient_tables(spec, params)
        for trial in range(100):
            rng = np.random.default_rng(trial_seed(7, n, "amplified", trial))
            amplified_estimate(split_sample(dist, n, mode="two_stream", rng=rng), spec, params, tables)
        (table,) = tables.tables
        read = table.computed  # a table computes only the entries read
        exact, _ = exact_weights(spec, params, read, table.q_x, exact_f=True)
        for v, value, weight in zip(read.tolist(), table.weights(read).tolist(), exact):
            error = abs(Decimal(value) - weight) / abs(weight)
            assert error <= Decimal(2) ** -45, f"n={n} v={v}: relative error {error:.3e}"
            errors.append(error)
    worst, median = max(errors), statistics.median(errors)
    assert worst <= 8 * median, f"largest error {worst:.3e} is more than 8 times the median {median:.3e}"
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"criterion 9 weights read are exact, {spec.kind}: PASS ({len(errors)} weights, worst {worst:.2e}, "
          f"median {median:.2e}, {elapsed:.1f}s)")
