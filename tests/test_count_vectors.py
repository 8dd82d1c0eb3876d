"""Count vectors end to end: pinned outputs, no dict on the path, a dict reference.

The pinned CSV text and ``estimate`` replies were produced by the dict-based
histograms this package used before it carried count vectors; the
``dense_uniform`` pin, the one sweep whose count vectors are mostly nonzero,
by the count-vector estimator that still gathered symbol-index lists, before
it switched to boolean masks.  The amplified cells and replies were re-pinned
when the Poisson tail table came to be normalised by its own computed mass,
which moved every weight in its last bits, and again when entropy, kl and
support_size weights, then support_coverage's, came to be computed by their
routes instead of the alternating series, which moved each weight by the
series' rounding error.  They fix the
order in which per-symbol values are summed: numpy's pairwise ``sum`` rounds
differently under any other order, so a reordering changes the last digits.
"""

import contextlib
import io
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propest import cli
from propest.benchmark import ExperimentConfig, results_to_csv, run_experiment
from propest.distributions import Histogram, SplitSample
from propest.estimators import (
    AmplifiedEstimate,
    EstimatorParams,
    amplified_estimate_detailed,
    build_coefficient_tables,
    derive_params,
    empirical,
    modified_empirical,
)
from propest.properties import PropertySpec, eval_fx_many


def dirichlet_q(k, seed):
    q = np.random.default_rng(seed).dirichlet(np.full(k, 1.0))
    return q / q.sum()


SWEEPS = {
    "two_stream": dict(
        spec=PropertySpec("entropy"), family="zipf", k=2000, n_grid=(1000, 4000),
        trials=20, seed=7, estimators=("amplified", "empirical", "empirical_plus"),
    ),
    "thinned": dict(
        spec=PropertySpec("support_size", k=3000), family="uniform", k=3000,
        n_grid=(2000, 6000), trials=20, seed=11,
        estimators=("amplified", "modified_empirical"), split_mode="thinned",
    ),
    "shared": dict(
        spec=PropertySpec("support_coverage", m=2000.0), family="geometric", k=1000,
        n_grid=(1000, 3000), trials=20, seed=13,
        estimators=("amplified", "empirical_plusplus"), split_mode="shared",
        dist_params={"prob": 0.01},
    ),
    "fixed_size": dict(
        spec=PropertySpec("power_sum", a=2.0), family="binomial", k=500, n_grid=(500, 2000),
        trials=20, seed=17,
        estimators=("empirical", "empirical_plusplus", "modified_empirical"),
        poissonized=False,
    ),
    "kl_dirichlet": dict(
        spec=PropertySpec("kl_divergence", q=dirichlet_q(300, 5)), family="dirichlet",
        k=300, n_grid=(1000, 3000), trials=20, seed=19,
        estimators=("amplified", "empirical", "modified_empirical"), alpha=0.5, s0_mult=4.0,
    ),
    "l1_dirichlet": dict(
        spec=PropertySpec("l1_distance", q=dirichlet_q(300, 6)), family="dirichlet",
        k=300, n_grid=(1000,), trials=20, seed=23, estimators=("amplified", "empirical"),
        split_mode="thinned", alpha=0.5, s0_mult=4.0,
    ),
    # Dense: about 63% of the 50000 symbols are seen in each stream.
    "dense_uniform": dict(
        spec=PropertySpec("entropy"), family="uniform", k=50000, n_grid=(50000,),
        trials=5, seed=29, estimators=("amplified", "empirical"),
    ),
}

HEADER = "property,distribution,k,n,estimator,trials,mse,mean_estimate,true_value,seed\n"

PINNED_CSV = {
    "two_stream": (
        "entropy,zipf,2000,1000,amplified,20,0.018025913438571954,2.9226254135683063,2.9893623552075468,7\n"
        "entropy,zipf,2000,1000,empirical,20,0.04691543034503929,2.780309613493777,2.9893623552075468,7\n"
        "entropy,zipf,2000,1000,empirical_plus,20,0.022700106524410419,2.8445825492492443,2.9893623552075468,7\n"
        "entropy,zipf,2000,4000,amplified,20,0.0025648095544964001,2.9804672639534688,2.9893623552075468,7\n"
        "entropy,zipf,2000,4000,empirical,20,0.010772969048549968,2.8934299432523027,2.9893623552075468,7\n"
        "entropy,zipf,2000,4000,empirical_plus,20,0.0038481020107903794,2.9310820192816798,2.9893623552075468,7\n"
    ),
    "thinned": (
        "support_size,uniform,3000,2000,amplified,20,0.0038409874909683716,1.0506252700994527,1.0000000000000002,11\n"
        "support_size,uniform,3000,2000,modified_empirical,20,0.26295830555555566,0.4872833333333334,1.0000000000000002,11\n"
        "support_size,uniform,3000,6000,amplified,20,0.028098017136771229,1.1532820183497201,1.0000000000000002,11\n"
        "support_size,uniform,3000,6000,modified_empirical,20,0.018705133333333349,0.86333333333333351,1.0000000000000002,11\n"
    ),
    "shared": (
        "support_coverage,geometric,1000,1000,amplified,20,8.881197369091731e-05,0.1708903287253935,0.17796164777433171,13\n"
        "support_coverage,geometric,1000,1000,empirical_plusplus,20,6.1556675950323497e-05,0.17020539573560733,0.17796164777433171,13\n"
        "support_coverage,geometric,1000,3000,amplified,20,2.5370285403952705e-05,0.17397567128864772,0.17796164777433171,13\n"
        "support_coverage,geometric,1000,3000,empirical_plusplus,20,5.6615508217592612e-06,0.17594816643240041,0.17796164777433171,13\n"
    ),
    "fixed_size": (
        "power_sum,binomial,500,500,empirical,20,4.2445563314839634e-06,0.029414000000000003,0.027552934409677089,17\n"
        "power_sum,binomial,500,500,empirical_plusplus,20,2.9310780475888915e-07,0.027851890034328662,0.027552934409677089,17\n"
        "power_sum,binomial,500,500,modified_empirical,20,6.1203076210970819e-06,0.029744,0.027552934409677089,17\n"
        "power_sum,binomial,500,2000,empirical,20,4.8551078076291144e-07,0.028061375,0.027552934409677089,17\n"
        "power_sum,binomial,500,2000,empirical_plusplus,20,5.3857427402671679e-08,0.027672258119880878,0.027552934409677089,17\n"
        "power_sum,binomial,500,2000,modified_empirical,20,3.7456850260835618e-07,0.028003225000000003,0.027552934409677089,17\n"
    ),
    "kl_dirichlet": (
        "kl_divergence,dirichlet,300,1000,amplified,20,0.0080278051658820536,0.84802271584549938,0.79066040658362269,19\n"
        "kl_divergence,dirichlet,300,1000,empirical,20,0.029372995978192186,0.95567385725057752,0.79066040658362269,19\n"
        "kl_divergence,dirichlet,300,1000,modified_empirical,20,0.026728601789196442,0.9381087948041833,0.79066040658362269,19\n"
        "kl_divergence,dirichlet,300,3000,amplified,20,0.0039454172107762685,0.83522186821832012,0.79066040658362269,19\n"
        "kl_divergence,dirichlet,300,3000,empirical,20,0.0037449173055312444,0.84723106082856137,0.79066040658362269,19\n"
        "kl_divergence,dirichlet,300,3000,modified_empirical,20,0.0056009287777003883,0.85045444343091992,0.79066040658362269,19\n"
    ),
    "l1_dirichlet": (
        "l1_distance,dirichlet,300,1000,amplified,20,0.0073588454798835436,0.9334224485509367,0.85576488905726222,23\n"
        "l1_distance,dirichlet,300,1000,empirical,20,0.0080981279841168645,0.94101202223889646,0.85576488905726222,23\n"
    ),
    "dense_uniform": (
        "entropy,uniform,50000,50000,amplified,5,0.0038373924316369512,10.761011067504857,10.819778284410287,29\n"
        "entropy,uniform,50000,50000,empirical,5,0.32902196803653727,10.246180823563529,10.819778284410287,29\n"
    ),
}

PINNED_ESTIMATE = [
    'estimate=3.8382752810729732\nproperty=entropy\nestimator=amplified\nsplit_mode=two_stream\nrate=1500\nt=10.824646311753618\ns0=24\nu_max=567\nr=2838\nt_decay=1\nsmall_sum=2.4503191084478968\nlarge_sum=1.3879561726250764\nreport_offset=0\nn_small=281\nn_large=10\nn_overflow=0\nn_clamped=0\nn_cancelled=0\n',
    'estimate=3.8383890931894209\nproperty=entropy\nestimator=amplified\nsplit_mode=shared\nrate=1500\nt=10.824646311753618\ns0=24\nu_max=567\nr=2838\nt_decay=1\nsmall_sum=2.4849332819867813\nlarge_sum=1.3534558112026398\nreport_offset=0\nn_small=224\nn_large=9\nn_overflow=0\nn_clamped=0\nn_cancelled=0\n',
    'estimate=3.1756244615444271\nproperty=kl_divergence\nestimator=amplified\nsplit_mode=two_stream\nrate=1500\nt=3.7042966529377472\ns0=6\nu_max=55\nr=282\nt_decay=1\nsmall_sum=-0.09908691597338054\nlarge_sum=3.2747113775178076\nreport_offset=0\nn_small=265\nn_large=26\nn_overflow=0\nn_clamped=0\nn_cancelled=0\n',
    'estimate=1.5039479121000132\nproperty=l1_distance\nestimator=empirical\n',
    'estimate=3.2768831382115859\nproperty=kl_divergence\nestimator=modified_empirical\nrate=1500\n',
]


def estimate_argvs(tmp_path):
    """Count files of a zipf-like sample, labelled ``w<id>`` and by plain id."""
    rng = np.random.default_rng(3)
    k = 400
    p = np.arange(1, k + 1, dtype=float) ** -1.2
    p /= p.sum()
    q = rng.dirichlet(np.full(k, 1.0))
    q /= q.sum()
    c1, c2 = rng.poisson(p * 1500), rng.poisson(p * 1500)
    files = {}
    for name, counts, label in (
        ("a1", c1, "w{}"), ("a2", c2, "w{}"), ("b1", c1, "{}"), ("b2", c2, "{}"),
    ):
        files[name] = str(tmp_path / f"{name}.csv")
        with open(files[name], "w", encoding="utf-8") as f:
            f.writelines(f"{label.format(i)},{counts[i]}\n" for i in np.flatnonzero(counts))
    files["q"] = str(tmp_path / "q.txt")
    with open(files["q"], "w", encoding="utf-8") as f:
        f.writelines(format(x, ".17g") + "\n" for x in q)
    kl_manual = ("--alpha", "0.5", "--s0-mult", "4")
    return [
        ["--property", "entropy", "--counts", files["a1"], "--counts2", files["a2"],
         "--rate", "1500"],
        ["--property", "entropy", "--counts", files["a1"], "--rate", "1500"],
        ["--property", "kl", "--q-file", files["q"], "--counts", files["b1"],
         "--counts2", files["b2"], "--rate", "1500", *kl_manual],
        ["--property", "l1", "--q-file", files["q"], "--counts", files["b1"],
         "--estimator", "empirical"],
        ["--property", "kl", "--q-file", files["q"], "--counts", files["b1"],
         "--estimator", "modified_empirical", "--rate", "1500"],
    ]


def run_estimate(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["estimate", *argv]) == 0
    return out.getvalue()


@pytest.fixture
def no_counts_dict(monkeypatch):
    def refuse(self):
        raise AssertionError("Histogram.counts read on the estimate path")

    monkeypatch.setattr(Histogram, "counts", property(refuse))


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_pinned(name, no_counts_dict):
    rows = run_experiment(ExperimentConfig(**SWEEPS[name]))
    assert results_to_csv(rows) == HEADER + PINNED_CSV[name]


def test_sweep_csv_pinned_on_two_threads(no_counts_dict):
    rows = run_experiment(ExperimentConfig(**SWEEPS["kl_dirichlet"]), threads=2)
    assert results_to_csv(rows) == HEADER + PINNED_CSV["kl_dirichlet"]


def test_estimate_replies_pinned(tmp_path, no_counts_dict):
    for argv, expected in zip(estimate_argvs(tmp_path), PINNED_ESTIMATE):
        assert run_estimate(argv) == expected


# ---------------------------------------------------------------------------
# the dict-based algorithm the count vectors replaced, kept as a reference
# ---------------------------------------------------------------------------


def as_dict(vector):
    return {i: int(c) for i, c in enumerate(vector) if c > 0}


def ref_plug_in(counts, scale, spec):
    if not counts:
        return spec.report_offset
    idx = np.array(list(counts), dtype=np.int64)
    values = eval_fx_many(spec, idx, np.fromiter(counts.values(), np.int64) / scale)
    return float(values.sum()) + spec.report_offset


def ref_amplified(first, second, rate, spec, params, tables):
    symbols = list(first) + [s for s in second if s not in first]
    if not symbols:
        offset = spec.report_offset
        return AmplifiedEstimate(offset, 0.0, 0.0, offset, 0, 0, 0, 0, 0)
    n1 = np.array([first.get(s, 0) for s in symbols], dtype=np.int64)
    n2 = np.array([second.get(s, 0) for s in symbols], dtype=np.int64)
    idx = np.array(symbols, dtype=np.int64)
    small = n2 <= params.s0
    v_small = n1[small]
    v_max = min(tables.tables[0].v_max, params.u_max)
    in_range = (v_small >= 1) & (v_small <= v_max)
    weights = np.zeros(len(v_small))
    n_clamped = n_cancelled = 0
    owner = tables.table_for_symbols(idx[small])
    for j, table in enumerate(tables.tables):
        pick = in_range & (owner == j)
        v = v_small[pick]
        weights[pick] = table.values[v]
        n_clamped += int(np.count_nonzero(table.clamped[v]))
        n_cancelled += int(np.count_nonzero(table.cancelled[v]))
    small_sum = float(weights.sum())
    large_sum = float(eval_fx_many(spec, idx[~small], n1[~small] / rate).sum())
    return AmplifiedEstimate(
        small_sum + large_sum + spec.report_offset, small_sum, large_sum,
        spec.report_offset, int(np.count_nonzero(small)), int(np.count_nonzero(~small)),
        int(np.count_nonzero(v_small > v_max)), n_clamped, n_cancelled,
    )


def bits(result):
    fields = astuple(result) if isinstance(result, AmplifiedEstimate) else (result,)
    return [struct.pack("<d", x) if isinstance(x, float) else x for x in fields]


L1_Q = dirichlet_q(40, 1)
KL_Q = dirichlet_q(40, 2)
# The tables end at u_max: 19 for the first setting, 7 for the next three,
# where t_decay flags v=2 of support_size as cancelled, 546 for the README
# tuning at n=1000, whose entries take the entropy route and are never
# flagged, and 155 for power_sum at a non-integer exponent without decay,
# whose series entries cancel from v=23 and clamp from v=123 on (all but
# v=150).  The counts straddle each of these.
CASES = [
    (PropertySpec("entropy"), EstimatorParams(500.0, 4.0, 2, t_decay=False)),
    (PropertySpec("support_size", k=50), EstimatorParams(150.0, 3.0, 1)),
    (PropertySpec("l1_distance", q=L1_Q), EstimatorParams(150.0, 3.0, 1)),
    (PropertySpec("kl_divergence", q=KL_Q), EstimatorParams(150.0, 3.0, 1)),
    (PropertySpec("entropy"), derive_params(1000.0, PropertySpec("entropy"))),
    (PropertySpec("power_sum", a=1.5), EstimatorParams(1000.0, 5.0, 13, t_decay=False)),
]
TABLES = [build_coefficient_tables(spec, params) for spec, params in CASES]

counts = st.one_of(
    st.just(0), st.integers(1, 9), st.integers(17, 25), st.integers(35, 40),
    st.integers(121, 125), st.integers(153, 157), st.integers(376, 382), st.integers(543, 550),
)
vectors = st.lists(counts, max_size=len(L1_Q))


@given(case=st.integers(0, len(CASES) - 1), first=vectors, second=vectors,
       shared=st.booleans())
@example(case=0, first=[19, 20, 2], second=[0, 0, 0, 9], shared=False)
@example(case=4, first=[379, 37, 547, 2, 546, 5], second=[0, 0, 0, 30], shared=False)
@example(case=5, first=[123, 23, 156, 2, 155, 5], second=[0, 0, 0, 30], shared=False)
@example(case=1, first=[2, 0, 3], second=[], shared=True)
# Symbols seen only in the second stream on both sides of s0.
@example(case=0, first=[5, 0, 0, 0, 20], second=[0, 1, 9, 2, 0], shared=False)
@example(case=3, first=[2, 0, 0, 8], second=[0, 1, 5, 0], shared=False)
# Second vector longer than the first, and the reverse.
@example(case=1, first=[3, 1], second=[0, 2, 0, 7, 1], shared=False)
@example(case=2, first=[3], second=[0, 0, 5, 1, 2], shared=False)
@example(case=3, first=[1, 0, 4, 2, 6], second=[2], shared=False)
@settings(max_examples=300, deadline=None)
def test_matches_dict_reference(case, first, second, shared):
    spec, params = CASES[case]
    h1 = Histogram(np.array(first, dtype=np.int64))
    h2 = h1 if shared else Histogram(np.array(second, dtype=np.int64))
    d1 = as_dict(first)
    d2 = d1 if shared else as_dict(second)
    assert bits(empirical(h1, spec)) == bits(ref_plug_in(d1, h1.total, spec))
    assert bits(modified_empirical(h1, 37.0, spec)) == bits(ref_plug_in(d1, 37.0, spec))
    got = amplified_estimate_detailed(SplitSample(h1, h2, params.rate), spec, params, TABLES[case])
    want = ref_amplified(d1, d2, params.rate, spec, params, TABLES[case])
    assert bits(got) == bits(want)


def test_reference_sees_every_kind_of_read():
    # The case-5 example above reads clean, cancelled and clamped entries
    # and overflows past u_max; case 4 reads route entries and overflows;
    # the support_size case flags v=2.
    spec, params = CASES[5]
    got = ref_amplified(as_dict([123, 23, 156, 2, 155, 5]), {3: 30}, params.rate, spec, params, TABLES[5])
    assert (got.n_small, got.n_overflow, got.n_clamped, got.n_cancelled) == (5, 1, 2, 3)
    spec, params = CASES[4]
    got = ref_amplified(as_dict([379, 37, 547, 2, 546, 5]), {3: 30}, params.rate, spec, params, TABLES[4])
    assert (got.n_small, got.n_overflow, got.n_clamped, got.n_cancelled) == (5, 1, 0, 0)
    spec, params = CASES[1]
    assert ref_amplified({0: 2}, {}, params.rate, spec, params, TABLES[1]).n_cancelled == 1
