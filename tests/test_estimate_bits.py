"""Estimate bits for every kind, inputs left untouched, and an estimate's traced memory.

The pins are ``float.hex`` of each estimate on one hand-built sample per kind
of ``KINDS``, recorded before the estimates stopped allocating throwaway
full-length arrays; any change to which ufuncs run on which operands, or to
the order of a pairwise sum, moves them.  The sample has both branches of
the amplified estimator, symbols seen only in the second stream on each
side of ``s0``, a count past ``u_max`` and a ratio above 1.  One manual
tuning serves every kind: entropy, support_size, support_coverage and kl
weights take their routes, the others the signed-log series.

numpy reports its buffers to ``tracemalloc``, so the traced peak of an
estimate above its inputs repeats exactly; its bound per symbol catches a
full-length temporary brought back.
"""

import tracemalloc

import numpy as np
import pytest

from propest.distributions import Histogram, SplitSample
from propest.estimators import (
    amplified_estimate,
    amplified_estimate_detailed,
    build_coefficient_tables,
    derive_params,
    empirical,
    modified_empirical,
)
from propest.properties import (
    KINDS,
    distance_to_uniformity,
    entropy,
    eval_fx_grid,
    eval_fx_many,
    exact_value,
    kl_divergence,
    l1_distance,
    power_sum,
    support_coverage,
    support_size,
)

RATE = 2000.0
# Symbol 10 is unseen in both streams and has reference mass 0.
Q = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 0, 8, 9, 7, 9, 3], dtype=float) / 75.0
SPECS = {
    "entropy": entropy(),
    "support_size": support_size(16),
    "support_coverage": support_coverage(50.0),
    "power_sum": power_sum(1.5),
    "dist_to_uniform": distance_to_uniformity(16),
    "l1_distance": l1_distance(Q),
    "kl_divergence": kl_divergence(Q),
}
# With s0 = 6 and u_max = 56: ids 0-5 and 12-15 are small (5 overflows), 6, 7 and 11
# large (11 at ratio 1.25), 8 and 9 seen only in the second stream, one on each side of s0.
FIRST = np.array([1, 2, 3, 5, 20, 60, 9, 40, 0, 0, 0, 2500, 7, 11, 13, 4])
SECOND = np.array([0, 1, 6, 2, 3, 0, 7, 12, 3, 9, 0, 30, 2, 4, 5, 0])


def _params(spec):
    return derive_params(RATE, spec, preset=False, alpha=0.5, s0_mult=4.0)


def _estimates(kind: str) -> dict:
    """Every estimate of the kind's sample: floats as ``float.hex``, counts as ints."""
    spec = SPECS[kind]
    first = Histogram(FIRST)
    detail = amplified_estimate_detailed(SplitSample(first, Histogram(SECOND), RATE), spec, _params(spec))
    out = {"empirical": empirical(first, spec), "modified_empirical": modified_empirical(first, RATE, spec)}
    out.update((name, getattr(detail, name)) for name in detail.__dataclass_fields__)
    return {name: value.hex() if isinstance(value, float) else value for name, value in out.items()}


# Every kind's sample has 11 small and 4 large terms, one of them overflowing.
_COUNTS = dict(n_small=11, n_large=4, n_overflow=1, n_clamped=0, n_cancelled=0)
PINS = {
    "entropy": dict(
        empirical="0x1.7951ae2a7adffp-2", modified_empirical="0x1.88015b62fdaecp-2",
        value="0x1.1d8398488204dp-2", small_sum="0x1.68fdc79dbc137p-3", large_sum="0x1.a412d1e68fec7p-4",
        report_offset="0x0.0p+0", **_COUNTS,
    ),
    "support_size": dict(
        empirical="0x1.a000000000000p-1", modified_empirical="0x1.a000000000000p-1",
        value="0x1.98a8f55620c5ap-1", small_sum="0x1.38a8f55620c5ap-1", large_sum="0x1.8000000000000p-3",
        report_offset="0x0.0p+0", **_COUNTS,
    ),
    "support_coverage": dict(
        empirical="0x1.1baa03970f909p-4", modified_empirical="0x1.4b05161a09c79p-4",
        value="0x1.0bd55ca876284p-4", small_sum="0x1.d67f91429cfa2p-6", large_sum="0x1.2c6af0af9dd37p-5",
        report_offset="0x0.0p+0", **_COUNTS,
    ),
    "power_sum": dict(
        empirical="0x1.d228087b2503ap-1", modified_empirical="0x1.02c287a3800fbp+0",
        value="0x1.016b89d37ba23p+0", small_sum="0x1.3cc8567b0a9a8p-9", large_sum="0x1.00cd25a83e1cep+0",
        report_offset="0x0.0p+0", **_COUNTS,
    ),
    "dist_to_uniform": dict(
        empirical="0x1.be81323e34a2bp+0", modified_empirical="0x1.c99999999999ap+0",
        value="0x1.d147ae1480c42p+0", small_sum="-0x1.0e560417d718cp-5", large_sum="0x1.b374bc6a7ef9ep-1",
        report_offset="0x1.0000000000000p+0", **_COUNTS,
    ),
    "l1_distance": dict(
        empirical="0x1.a7e42ed4646c1p+0", modified_empirical="0x1.b2fc962fc962fp+0",
        value="0x1.baaaaaaab0846p+0", small_sum="-0x1.0e560417d83eap-5", large_sum="0x1.863ab596de8cap-1",
        report_offset="0x1.0000000000000p+0", **_COUNTS,
    ),
    "kl_divergence": dict(
        empirical="0x1.e31aef97ff880p+0", modified_empirical="0x1.098a9f47722b0p+1",
        value="0x1.0eb609e08d9abp+1", small_sum="-0x1.65ec05c0b6d00p-4", large_sum="0x1.19e56a0e93513p+1",
        report_offset="0x0.0p+0", **_COUNTS,
    ),
}


def test_tuning_puts_the_sample_where_the_pins_need_it():
    params = _params(entropy())
    assert (params.s0, params.u_max) == (6, 56)
    assert set(SPECS) == set(KINDS)
    for kind, spec in SPECS.items():
        assert (build_coefficient_tables(spec, params).route is None) == (KINDS[kind].weights is None), kind


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_estimate_bits(kind):
    assert _estimates(kind) == PINS[kind]


def test_entropy_terms_keep_their_signed_zeros():
    """p == 0 gives +0.0 and p == 1 gives -(1 * log 1) == -0.0, each term's sign as before."""
    assert eval_fx_grid(entropy(), np.array([0.0, 1.0, 0.0])).tobytes() == np.array([0.0, -0.0, 0.0]).tobytes()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_has_one_zero_rule(kind):
    """p == 0 gives +0.0; the positive entries of a mixed array have the bits they have alone."""
    spec = SPECS[kind]
    p = FIRST / RATE  # exact zeros at ids 8-10, where Q[10] == 0, and a ratio above 1
    qx = Q if "q" in KINDS[kind].reads else None
    mixed = eval_fx_grid(spec, p, qx)
    pos = p > 0
    assert mixed[~pos].tobytes() == np.zeros(np.count_nonzero(~pos)).tobytes()
    alone = eval_fx_grid(spec, p[pos], None if qx is None else qx[pos])
    assert mixed[pos].tobytes() == alone.tobytes()
    if qx is not None:  # a zero mass is refused only where its p is positive
        assert eval_fx_grid(spec, np.zeros(3), 0.0).tobytes() == np.zeros(3).tobytes()
        refused = np.array([0.0, 0.5, 0.0]), np.array([0.5, 0.0, 0.5])
        if kind == "kl_divergence":
            with pytest.raises(ValueError, match="q_x = 0 with p_x > 0"):
                eval_fx_grid(spec, *refused)
        else:
            eval_fx_grid(spec, *refused)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_inputs_stay_untouched(kind):
    """A read-only input gives the bits of a writable copy, and neither changes."""
    spec = SPECS[kind]
    ids = np.flatnonzero(Q)  # kl refuses a seen symbol of mass 0
    calls = {
        "eval_fx_many": lambda a: eval_fx_many(spec, ids, a).tobytes(),
        "exact_value": lambda a: exact_value(spec, a).hex(),
        "modified_empirical": lambda a: modified_empirical(Histogram(a), RATE, spec).hex(),
    }
    for name, given in (
        ("eval_fx_many", FIRST[ids] / RATE),  # exact zeros and a ratio above 1
        ("eval_fx_many", Q[ids]),  # every p in (0, 1]
        ("exact_value", FIRST / FIRST.sum()),  # exact zeros
        ("modified_empirical", FIRST),  # exact zeros and a ratio above 1
    ):
        read_only, copy, before = given.copy(), given.copy(), given.tobytes()
        read_only.flags.writeable = False
        assert calls[name](read_only) == calls[name](copy), name
        assert read_only.tobytes() == before and copy.tobytes() == before, name


K = 200_000


def _traced_peak_per_symbol(estimate) -> float:
    """Bytes per symbol that one call of ``estimate`` holds at its peak beyond what it was given."""
    estimate()  # its table entries are computed and kept by the first call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        estimate()
        return (tracemalloc.get_traced_memory()[1] - base) / K
    finally:
        tracemalloc.stop()


def test_estimates_hold_no_full_length_temporary():
    """Uniform k=2e5 at rate 2e5: about 0.63 of the symbols are seen per stream.

    The estimates peaked at 16.8 (support_size's empirical), 32.0 (entropy's
    empirical) and 22.0 (amplified) bytes per symbol while they built masks,
    frequencies, gathered copies and weights they threw away.  They peak at
    12.1, 11.8 and 15.6 now, measured under numpy 2.4; each bound adds 1 byte
    per symbol.
    """
    rng = np.random.default_rng(5)
    sample = SplitSample(Histogram(rng.poisson(1.0, K)), Histogram(rng.poisson(1.0, K)), float(K))
    spec = support_size(K)
    params = derive_params(float(K), spec)
    tables = build_coefficient_tables(spec, params)
    assert _traced_peak_per_symbol(lambda: empirical(sample.first, spec)) <= 13.1
    assert _traced_peak_per_symbol(lambda: empirical(sample.first, entropy())) <= 12.8
    assert _traced_peak_per_symbol(lambda: amplified_estimate(sample, spec, params, tables)) <= 16.6
