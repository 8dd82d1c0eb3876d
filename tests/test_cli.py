"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import dataclasses
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import propest.selfcheck
from propest import cli
from propest.cli import main
from propest.distributions import FAMILIES
from propest.estimators import AmplifiedEstimate, EstimatorParams, build_coefficient_table
from propest.numerics import log_poisson_tail_table
from propest.properties import PropertySpec, entropy, eval_fx_grid
from propest.selfcheck import run_selfcheck


def run_cli(*argv):
    return main(list(argv))


def _parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("a,3\nb,1\n", encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(
            "simulate", "--property", "entropy", "--dist", "uniform", "--k", "100",
            "--n-grid", "1000", "--trials", "2", "--seed", "7",
            "--estimators", "empirical", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2  # header + one data row
        assert lines[0].startswith("property,distribution,k,n,")

    def test_rerun_byte_identical(self, tmp_path):
        args = (
            "simulate", "--property", "entropy", "--dist", "zipf", "--k", "50",
            "--n-grid", "300,600", "--trials", "3", "--seed", "11",
            "--estimators", "empirical,modified_empirical",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        args = (
            "simulate", "--property", "entropy", "--dist", "zipf", "--k", "50",
            "--n-grid", "300", "--trials", "6", "--seed", "4",
            "--estimators", "amplified,empirical",
        )
        a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert run_cli(*args, "--threads", "1", "--out", str(a)) == 0
        assert run_cli(*args, "--threads", "4", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_q_file_gives_the_support_size(self, tmp_path, capsys):
        q = tmp_path / "q.txt"
        q.write_text("0.5\n0.3\n0.2\n", encoding="utf-8")
        args = (
            "simulate", "--property", "kl", "--q-file", str(q), "--dist", "uniform",
            "--n-grid", "1000,3000", "--trials", "3", "--seed", "2",
            "--estimators", "amplified,empirical", "--alpha", "0.5", "--s0-mult", "2",
        )
        derived, given = tmp_path / "derived.csv", tmp_path / "given.csv"
        assert run_cli(*args, "--out", str(derived)) == 0
        assert run_cli(*args, "--k", "3", "--out", str(given)) == 0
        assert derived.read_bytes() == given.read_bytes()
        assert derived.read_text(encoding="utf-8").splitlines()[1].startswith("kl_divergence,uniform,3,1000,")
        capsys.readouterr()
        assert run_cli(*args, "--k", "4", "--out", str(tmp_path / "other.csv")) == 1
        assert capsys.readouterr().err == "error: dimension mismatch: p has 4 entries, q has 3\n"

    def test_coverage_preset_grid(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli(
            "simulate", "--property", "coverage", "--m", "5000", "--k", "1000",
            "--dist", "uniform", "--trials", "2", "--estimators", "empirical",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = lines[1:]
        assert len(rows) == 5
        assert [int(r.split(",")[3]) for r in rows] == [1000, 1500, 2000, 2500, 3000]

    def test_strict_fails_on_bad_cell(self, tmp_path):
        # amplified refuses n=100, below its least total n; the other cells run
        args = (
            "simulate", "--property", "entropy", "--k", "8",
            "--dist", "uniform", "--n-grid", "100,500", "--trials", "2",
            "--estimators", "amplified,empirical",
        )
        assert run_cli(*args, "--out", str(tmp_path / "x.csv")) == 0
        assert run_cli(*args, "--strict", "--out", str(tmp_path / "y.csv")) == 2

    def test_plug_in_cell_of_no_sample_fails_alone(self, tmp_path, capsys):
        # empirical_plus samples round(n * sqrt(log n)) = 0 at n=1; amplified refuses n=1.
        out = tmp_path / "z.csv"
        args = (
            "simulate", "--property", "entropy", "--dist", "zipf", "--k", "100", "--n-grid", "1,200",
            "--trials", "2", "--estimators", "amplified,empirical_plus",
        )
        assert run_cli(*args, "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [(r[3], r[4], r[6]) for r in rows[:2]] == [("1", "amplified", "nan"), ("1", "empirical_plus", "nan")]
        assert all(r[6] != "nan" for r in rows[2:]) and len(rows) == 4
        assert "sample size must be positive, got 0" in capsys.readouterr().err
        assert run_cli(*args, "--strict", "--out", str(tmp_path / "y.csv")) == 2

    def test_fixed_sample_past_int64_fails_alone(self, tmp_path, capsys):
        # empirical_plusplus samples round(n * log n), about 4.1e19 at n=1e18: more than int64 holds.
        out = tmp_path / "x.csv"
        args = (
            "simulate", "--property", "entropy", "--dist", "uniform", "--k", "10",
            "--n-grid", "1000,1000000000000000000", "--trials", "1", "--estimators", "empirical_plusplus",
            "--fixed-size",
        )
        assert run_cli(*args, "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [(r[3], r[6] == "nan") for r in rows] == [("1000", False), ("1000000000000000000", True)]
        budget = int(round(10**18 * math.log(10**18)))
        assert f"fixed sample size must be at most 2^63-1, got {budget}" in capsys.readouterr().err
        assert run_cli(*args, "--strict", "--out", str(tmp_path / "y.csv")) == 2

    def test_dump_dist(self, tmp_path):
        out = tmp_path / "r.csv"
        dump = tmp_path / "probs.csv"
        code = run_cli(
            "simulate", "--property", "entropy", "--dist", "zipf", "--k", "40",
            "--n-grid", "200", "--trials", "1", "--estimators", "empirical",
            "--out", str(out), "--dump-dist", str(dump),
        )
        assert code == 0
        probs = [float(line) for line in dump.read_text().splitlines()]
        assert len(probs) == 40
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_log_grid_syntax(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(
            "simulate", "--property", "entropy", "--dist", "uniform", "--k", "10",
            "--n-grid", "1000:100000:10", "--trials", "1",
            "--estimators", "empirical", "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 10

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--nonsense", "1")
        assert exc.value.code == 1

    def test_malformed_grid_is_usage_error(self, tmp_path):
        code = run_cli(
            "simulate", "--property", "entropy", "--dist", "uniform", "--k", "10",
            "--n-grid", "10,banana", "--trials", "1", "--estimators", "empirical",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1


class TestEstimate:
    def test_empirical_entropy(self, counts_file, capsys):
        assert run_cli(
            "estimate", "--property", "entropy", "--counts", counts_file,
            "--estimator", "empirical",
        ) == 0
        kv = _parse_kv(capsys.readouterr().out)
        assert float(kv["estimate"]) == pytest.approx(0.5623351, abs=5e-8)

    def test_empty_counts(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert run_cli(
            "estimate", "--property", "entropy", "--counts", str(path),
            "--estimator", "empirical",
        ) == 0
        kv = _parse_kv(capsys.readouterr().out)
        assert float(kv["estimate"]) == 0.0

    def test_header_line_accepted(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("symbol,count\na,3\nb,1\n", encoding="utf-8")
        assert run_cli(
            "estimate", "--property", "entropy", "--counts", str(path),
            "--estimator", "empirical",
        ) == 0
        kv = _parse_kv(capsys.readouterr().out)
        assert float(kv["estimate"]) == pytest.approx(0.5623351, abs=5e-8)

    @pytest.mark.parametrize("text, code, reply", [
        ("symbol,count", 0, "estimate=0\n"),
        ("\n Symbol , Count \n\n", 0, "estimate=0\n"),
        ("symbol,\tcount\na,1\n", 1, "line 1: count 'count' not an integer"),
        ("symbol,count\nsymbol,count\n", 1, "line 2: count 'count' not an integer"),
    ], ids=["header_only", "spaced_header_only", "tab_is_not_a_header", "second_header"])
    def test_header_is_the_first_line_without_spaces(self, text, code, reply, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text(text, encoding="utf-8")
        assert run_cli("estimate", "--property", "entropy", "--counts", str(path), "--estimator", "empirical") == code
        out, err = capsys.readouterr()
        assert out.startswith(reply) if code == 0 else err == f"error: {path}: {reply}\n"

    def test_amplified_shared_mode_warning(self, counts_file, capsys):
        code = run_cli(
            "estimate", "--property", "entropy", "--counts", counts_file,
            "--rate", "150", "--t", "3", "--s0", "1",
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "shared" in captured.err
        kv = _parse_kv(captured.out)
        assert kv["split_mode"] == "shared"
        assert math.isfinite(float(kv["estimate"]))
        assert int(kv["n_small"]) + int(kv["n_large"]) == 2

    def test_amplified_reply_lines_are_the_fields(self, counts_file, capsys):
        assert run_cli("estimate", "--property", "entropy", "--counts", counts_file,
                       "--rate", "150", "--t", "3", "--s0", "1") == 0
        keys = [line.split("=")[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == ["estimate", "property", "estimator", "split_mode",
                        *(f.name for f in fields(EstimatorParams) if f.name != "v_max"),
                        *(f.name for f in fields(AmplifiedEstimate) if f.name != "value")]

    def test_amplified_two_streams(self, counts_file, tmp_path, capsys):
        second = tmp_path / "c2.csv"
        second.write_text("a,2\nc,1\n", encoding="utf-8")
        code = run_cli(
            "estimate", "--property", "entropy", "--counts", counts_file,
            "--counts2", str(second), "--rate", "150", "--t", "3", "--s0", "1",
        )
        assert code == 0
        kv = _parse_kv(capsys.readouterr().out)
        assert kv["split_mode"] == "two_stream"

    @pytest.mark.parametrize("counts2", [(), ("--counts2", "missing.csv")])
    def test_tuning_flags_checked_before_the_streams(self, counts2, counts_file, capsys):
        code = run_cli(
            "estimate", "--property", "entropy", "--counts", counts_file, *counts2,
            "--rate", "1000", "--s0-mult", "2",
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --alpha and --s0-mult must be given together"]

    def test_missing_rate_is_usage_error(self, counts_file):
        assert run_cli(
            "estimate", "--property", "entropy", "--counts", counts_file,
            "--estimator", "modified_empirical",
        ) == 1

    @pytest.mark.parametrize("estimator", ["amplified", "modified_empirical"])
    def test_total_far_above_rate_rejected(self, estimator, tmp_path, capsys):
        # At --rate 400 the limit is 400 + 10 * sqrt(400) = 600.  Totals far
        # above the rate used to print a meaningless estimate with exit 0.
        at_limit, above = tmp_path / "c1.csv", tmp_path / "c2.csv"
        at_limit.write_text("a,350\nb,250\n", encoding="utf-8")
        above.write_text("a,351\nb,250\n", encoding="utf-8")
        argv = ("estimate", "--property", "entropy", "--rate", "400", "--estimator", estimator)
        assert run_cli(*argv, "--counts", str(at_limit)) == 0
        capsys.readouterr()
        assert run_cli(*argv, "--counts", str(above)) == 1
        assert capsys.readouterr().err == (
            f"error: {above}: total count 601 is more than 10 standard deviations above --rate 400\n"
        )
        if estimator == "amplified":
            assert run_cli(*argv, "--counts", str(at_limit), "--counts2", str(above)) == 1
            assert capsys.readouterr().err.startswith(f"error: {above}: total count 601 ")

    @pytest.mark.parametrize("flags, message", [
        (("--estimator", "amplified"), "amplified requires --rate"),
        (("--estimator", "modified_empirical"), "modified_empirical requires --rate"),
        (("--rate", "1000", "--s0-mult", "2"), "--alpha and --s0-mult must be given together"),
    ], ids=["amplified_rate", "modified_empirical_rate", "s0_mult"])
    def test_flags_checked_before_a_malformed_count_file(self, flags, message, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,x\n", encoding="utf-8")
        assert run_cli("estimate", "--property", "entropy", "--counts", str(path), *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_duplicate_symbol_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,3\na,1\n", encoding="utf-8")
        assert run_cli(
            "estimate", "--property", "entropy", "--counts", str(path),
            "--estimator", "empirical",
        ) == 1

    @pytest.mark.parametrize("alias", ["05", "+5"])
    def test_kl_ids_canonicalised(self, alias, tmp_path, capsys):
        # 5 and 05 used to be two symbols that both read q[5]: kl/empirical
        # printed 1.068 where the merged counts give log 4 = 1.386
        argv = (
            "estimate", "--property", "kl", "--q", "uniform", "--k", "8",
            "--estimator", "empirical", "--counts",
        )
        path = tmp_path / "ids.csv"
        path.write_text(f"5,1\n{alias},2\n0,3\n", encoding="utf-8")
        assert run_cli(*argv, str(path)) == 1
        assert f"duplicate symbol {alias!r}" in capsys.readouterr().err
        path.write_text(f"{alias},3\n0,3\n", encoding="utf-8")
        assert run_cli(*argv, str(path)) == 0
        estimate = float(_parse_kv(capsys.readouterr().out)["estimate"])
        assert estimate == pytest.approx(math.log(4), rel=1e-14, abs=0)

    def test_kl_ids_shared_across_streams(self, tmp_path, capsys):
        first, second = tmp_path / "c1.csv", tmp_path / "c2.csv"
        first.write_text("5,3\n0,3\n", encoding="utf-8")
        outs = []
        for label in ("5", "05"):
            second.write_text(f"{label},9\n", encoding="utf-8")
            assert run_cli(
                "estimate", "--property", "kl", "--q", "uniform", "--k", "8",
                "--counts", str(first), "--counts2", str(second),
                "--rate", "150", "--t", "3", "--s0", "1",
            ) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert _parse_kv(outs[0])["n_large"] == "1"

    def test_other_labels_stay_opaque(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("5,1\n05,1\n", encoding="utf-8")
        assert run_cli(
            "estimate", "--property", "entropy", "--counts", str(path),
            "--estimator", "empirical",
        ) == 0
        estimate = float(_parse_kv(capsys.readouterr().out)["estimate"])
        assert estimate == pytest.approx(math.log(2), rel=1e-14, abs=0)

    def test_nonpositive_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,0\n", encoding="utf-8")
        assert run_cli(
            "estimate", "--property", "entropy", "--counts", str(path),
            "--estimator", "empirical",
        ) == 1


class TestCoeffs:
    def test_entropy_at_rate_1000_pinned(self, tmp_path):
        # The full default table, byte for byte: rows up to u_max = 546 from the entropy
        # route, the 10386 past it from the series, 1809 of them clamped; the
        # numpy-only CI job compares its own dump with the same file.
        out = tmp_path / "coeffs.csv"
        assert run_cli("coeffs", "--property", "entropy", "--rate", "1000", "--out", str(out)) == 0
        assert out.read_bytes() == (Path(__file__).parent / "data" / "coeffs_entropy_rate1000.csv").read_bytes()

    def test_v1_closed_form_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        args = (
            "coeffs", "--property", "entropy", "--rate", "150",
            "--t", "3", "--s0", "1", "--v-max", "50", "--no-t-decay",
        )
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "v,h_v_times_vfact,clamped"
        assert len(lines) == 51
        v1 = float(lines[1].split(",")[1])
        params = EstimatorParams(150.0, 3.0, 1, t_decay=False)
        tail = math.exp(log_poisson_tail_table(params.r, 2)[2])
        target = 3.0 * eval_fx_grid(entropy(), 1 / 450.0) * tail
        assert v1 == pytest.approx(target, rel=1e-12, abs=0)
        assert v1 == build_coefficient_table(entropy(), params).weights(1)
        for line in lines[1:]:
            _, value, clamped = line.split(",")
            assert math.isfinite(float(value))
            assert clamped in ("0", "1")

    def test_preset_params(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(
            "coeffs", "--property", "entropy", "--rate", "1000",
            "--v-max", "20", "--out", str(out),
        ) == 0
        assert len(out.read_text().splitlines()) == 21

    @pytest.mark.parametrize("prop, kind", [("l1", "l1_distance"), ("kl", "kl_divergence")])
    def test_reference_property_needs_qx(self, prop, kind, tmp_path, capsys):
        assert run_cli(
            "coeffs", "--property", prop, "--q", "uniform", "--k", "4",
            "--rate", "1000", "--t", "3", "--s0", "1",
            "--out", str(tmp_path / "c.csv"),
        ) == 1
        assert capsys.readouterr().err == f"error: coeffs --property {kind} requires --q-x\n"

    @pytest.mark.parametrize("q_x", ["1.5", "-0.5"])
    def test_reference_mass_outside_the_unit_interval(self, q_x, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run_cli(*(arg.format(out=out) for arg in COEFFS_KL_AT_QX), q_x) == 1
        assert capsys.readouterr().err == f"error: reference mass q_x must be in [0, 1], got {q_x}\n"
        assert not out.exists()


KL_MANUAL = ("--property", "kl", "--q", "uniform", "--k", "4", "--alpha", "0.5", "--s0-mult", "2")
SIM_EMPIRICAL = ("--n-grid", "1000", "--trials", "1", "--estimators", "empirical")
COEFFS_KL_AT_QX = ("coeffs", *KL_MANUAL, "--rate", "1000", "--out", "{out}", "--q-x")
ESTIMATE_EMPIRICAL = ("estimate", "--property", "entropy", "--counts", "{counts}", "--estimator", "empirical")
SIM_ON = ("simulate", "--property", "entropy", "--k", "10", *SIM_EMPIRICAL, "--dist")
SIM_OUT = ("--out", "{out}")
SIM_UNIFORM = ("--dist", "uniform", "--k", "10", *SIM_EMPIRICAL)
SIM_ENTROPY = ("simulate", "--property", "entropy", *SIM_UNIFORM)
ENTROPY_T_S0 = ("--property", "entropy", "--rate", "1000", "--t")
SIM_AMPLIFIED = ("simulate", "--property", "entropy", "--dist", "zipf", "--k", "100", "--n-grid", "1000",
                 "--trials", "1", "--estimators", "amplified", "--out", "{out}")

MALFORMED = {
    "negative_rate": (
        "estimate", "--property", "entropy", "--counts", "{counts}",
        "--estimator", "modified_empirical", "--rate", "-1",
    ),
    "kl_symbol_not_an_id": ("estimate", *KL_MANUAL, "--counts", "{counts}", "--rate", "1000"),
    "count_above_int64": (
        "estimate", "--property", "entropy", "--counts", "{huge}", "--estimator", "empirical",
    ),
    # Four counts of 2^62: the int64 total wrapped to 0 and the estimate read 0.
    "counts_total_above_int64": (
        "estimate", "--property", "entropy", "--counts", "{quad}", "--estimator", "empirical",
    ),
    "kl_id_above_int64": ("estimate", *KL_MANUAL, "--counts", "{huge_id}", "--rate", "1000"),
    "q_file_shorter_than_ids": (
        "estimate", "--property", "kl", "--q-file", "{q2}", "--alpha", "0.5",
        "--s0-mult", "2", "--counts", "{ids}", "--rate", "1000",
    ),
    "zero_support": (
        "simulate", "--property", "entropy", "--dist", "uniform", "--k", "0",
        *SIM_EMPIRICAL, "--out", "{out}",
    ),
    "negative_zipf_power": (
        "simulate", "--property", "entropy", "--dist", "zipf", "--k", "10",
        "--zipf-power", "-1", *SIM_EMPIRICAL, "--out", "{out}",
    ),
    "s0_mult_without_alpha": (
        "estimate", "--property", "entropy", "--counts", "{counts}", "--rate", "1000", "--s0-mult", "2",
    ),
    "coeffs_s0_mult_without_alpha": (
        "coeffs", "--property", "entropy", "--rate", "1000", "--s0-mult", "2", "--out", "{out}",
    ),
    # simulate named the library's parameters, and ran every cell on a tuning no cell can take.
    "simulate_s0_mult_without_alpha": (*SIM_AMPLIFIED, "--s0-mult", "2"),
    "simulate_alpha_2": (*SIM_AMPLIFIED, "--alpha", "2", "--s0-mult", "2"),
    "simulate_s0_mult_negative": (*SIM_AMPLIFIED, "--alpha", "0.5", "--s0-mult", "-1"),
    "simulate_alpha_nan": (*SIM_AMPLIFIED, "--alpha", "nan", "--s0-mult", "2"),
    "kl_zero_reference_mass": (*COEFFS_KL_AT_QX, "0"),
    "kl_without_reference_mass": COEFFS_KL_AT_QX[:-1],
    "negative_reference_mass": (*COEFFS_KL_AT_QX, "-0.5"),
    "reference_mass_above_one": (*COEFFS_KL_AT_QX, "1.5"),
    # A q file mass above 1 whose sum lies within 1e-12 of 1: the plug-in estimate exited 0.
    "q_file_mass_above_one_empirical": (
        "estimate", "--property", "kl", "--q-file", "{qbig}", "--counts", "{zero}", "--estimator", "empirical",
    ),
    "q_file_mass_above_one_amplified": (
        "estimate", "--property", "kl", "--q-file", "{qbig}", "--alpha", "0.5", "--s0-mult", "2",
        "--counts", "{zero}", "--rate", "200",
    ),
    # Flags that the chosen estimator, property or family never reads.
    "empirical_counts2": (*ESTIMATE_EMPIRICAL, "--counts2", "{counts}"),
    "empirical_alpha_s0_mult": (*ESTIMATE_EMPIRICAL, "--alpha", "0.5", "--s0-mult", "2"),
    "empirical_v_max": (*ESTIMATE_EMPIRICAL, "--v-max", "20"),
    "empirical_rate": (*ESTIMATE_EMPIRICAL, "--rate", "1000"),
    "modified_empirical_t_s0": (
        "estimate", "--property", "entropy", "--counts", "{counts}",
        "--estimator", "modified_empirical", "--rate", "1000", "--t", "3", "--s0", "1",
    ),
    "coeffs_q_x_without_reference": (
        "coeffs", "--property", "entropy", "--rate", "1000", "--q-x", "0.5", "--out", "{out}",
    ),
    "zipf_power_on_uniform": (*SIM_ON, "uniform", "--zipf-power", "2", *SIM_OUT),
    "binom_prob_on_zipf": (*SIM_ON, "zipf", "--binom-prob", "0.5", *SIM_OUT),
    "geom_prob_on_binomial": (*SIM_ON, "binomial", "--geom-prob", "0.5", *SIM_OUT),
    "poisson_mean_on_geometric": (*SIM_ON, "geometric", "--poisson-mean", "5", *SIM_OUT),
    "dirichlet_conc_on_poisson": (*SIM_ON, "poisson", "--dirichlet-conc", "1", *SIM_OUT),
    "entropy_a": (*ESTIMATE_EMPIRICAL, "--a", "2"),
    "entropy_m": (*ESTIMATE_EMPIRICAL, "--m", "5"),
    "entropy_k": (*ESTIMATE_EMPIRICAL, "--k", "7"),
    "entropy_q_uniform": (*ESTIMATE_EMPIRICAL, "--q", "uniform", "--k", "7"),
    "entropy_missing_q_file": (*ESTIMATE_EMPIRICAL, "--q-file", "/nonexistent/q.txt"),
    "coeffs_entropy_a": ("coeffs", "--property", "entropy", "--a", "3", "--rate", "1000", "--out", "{out}"),
    "simulate_empirical_alpha_s0_mult": (*SIM_ENTROPY, "--alpha", "0.5", "--s0-mult", "2", *SIM_OUT),
    "simulate_empirical_thinned": (*SIM_ENTROPY, "--split-mode", "thinned", *SIM_OUT),
    "simulate_empirical_no_t_decay": (*SIM_ENTROPY, "--no-t-decay", *SIM_OUT),
    "empirical_t_decay": (*ESTIMATE_EMPIRICAL, "--t-decay"),
    "simulate_amplified_fixed_size": (
        "simulate", "--property", "entropy", "--dist", "uniform", "--k", "10", "--n-grid", "1000",
        "--trials", "1", "--estimators", "amplified", "--fixed-size", *SIM_OUT,
    ),
    # Non-finite numbers: tracebacks, or exit 0 with a meaningless figure.
    "coeffs_rate_inf": ("coeffs", "--property", "entropy", "--rate", "inf", "--out", "{out}"),
    "coeffs_t_inf": ("coeffs", *ENTROPY_T_S0, "inf", "--s0", "1", "--out", "{out}"),
    "amplified_rate_inf": ("estimate", "--property", "entropy", "--counts", "{counts}", "--rate", "inf"),
    "amplified_t_1e308": ("estimate", *ENTROPY_T_S0, "1e308", "--s0", "1", "--counts", "{counts}"),
    "modified_empirical_rate_inf": (
        "estimate", "--property", "entropy", "--counts", "{counts}",
        "--estimator", "modified_empirical", "--rate", "inf",
    ),
    "coeffs_s0_mult_inf": (
        "coeffs", "--property", "entropy", "--rate", "1000", "--alpha", "0.5", "--s0-mult", "inf", "--out", "{out}",
    ),
    "coverage_m_inf": ("simulate", "--property", "coverage", "--m", "inf", *SIM_UNIFORM, *SIM_OUT),
    "power_sum_a_inf": ("simulate", "--property", "power_sum", "--a", "inf", *SIM_UNIFORM, *SIM_OUT),
    "zipf_power_inf": (*SIM_ON, "zipf", "--zipf-power", "inf", *SIM_OUT),
    "poisson_mean_inf": (*SIM_ON, "poisson", "--poisson-mean", "inf", *SIM_OUT),
    "dirichlet_conc_inf": (*SIM_ON, "dirichlet", "--dirichlet-conc", "inf", *SIM_OUT),
    "q_file_nan": (
        "estimate", "--property", "kl", "--q-file", "{qnan}", "--counts", "{pair}", "--estimator", "empirical",
    ),
    # More distinct symbols than --k: uniformity read 0 here, its true value is 1.
    "uniformity_more_symbols_than_k": (
        "estimate", "--property", "uniformity", "--k", "5", "--counts", "{ten}", "--estimator", "empirical",
    ),
    "support_size_more_symbols_than_k": (
        "estimate", "--property", "support_size", "--k", "5", "--counts", "{ten}", "--rate", "1000",
    ),
    "q_uniform_k_0": (
        "estimate", "--property", "kl", "--q", "uniform", "--k", "0", "--counts", "{counts}",
        "--estimator", "empirical",
    ),
    # Amplified on a kind with no preset and no tuning flags: estimate and coeffs
    # named library parameters, simulate wrote a nan row for every amplified cell.
    "simulate_kl_untuned": (
        "simulate", "--property", "kl", "--q", "uniform", "--k", "100", "--dist", "uniform",
        "--n-grid", "1000,2000", "--estimators", "amplified,empirical", *SIM_OUT,
    ),
    "estimate_kl_untuned": ("estimate", "--property", "kl", "--q", "uniform", "--k", "10", "--counts", "{counts}",
                            "--rate", "1000"),
    "coeffs_l1_untuned": (
        "coeffs", "--property", "l1", "--q", "uniform", "--k", "10", "--rate", "1000", "--q-x", "0.1", *SIM_OUT,
    ),
    # simulate options that used to be accepted and mean nothing.
    "threads_0": (*SIM_ENTROPY, "--threads", "0", *SIM_OUT),
    "threads_negative": (*SIM_ENTROPY, "--threads", "-3", *SIM_OUT),
    "repeated_estimator": (*SIM_ENTROPY, "--estimators", "empirical,empirical", *SIM_OUT),
    # Integers past a float's range ended in an OverflowError traceback.
    "trials_huge": (*SIM_ENTROPY, "--trials", "9" * 400, *SIM_OUT),
    "n_grid_huge": (*SIM_ENTROPY, "--n-grid", "1000," + "9" * 400, *SIM_OUT),
    "n_grid_range_huge": (*SIM_ENTROPY, "--n-grid", "1000:" + "9" * 400 + ":3", *SIM_OUT),
    # numpy's geomspace took an end past int64 as an object and raised TypeError.
    "n_grid_range_past_int64": (*SIM_ENTROPY, "--n-grid", f"1000:{10**30}:3", *SIM_OUT),
    # 1e15 points (8 PiB) ended in numpy's _ArrayMemoryError traceback.
    "n_grid_range_too_many_points": (*SIM_ENTROPY, "--n-grid", f"1000:2000:{10**15}", *SIM_OUT),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_1_with_one_error_line(self, case, counts_file, tmp_path, capsys):
        files = {"counts": counts_file, "out": str(tmp_path / "out.csv")}
        for name, text in (
            ("q2", "0.5\n0.5\n"), ("ids", "0,3\n5,1\n"), ("qnan", "0.5\nnan\n"), ("pair", "0,3\n1,1\n"),
            ("huge", "a,99999999999999999999\n"), ("quad", "".join(f"s{i},{2**62}\n" for i in range(4))), ("huge_id", "0,3\n99999999999999999999,1\n"),
            ("ten", "".join(f"s{i},1\n" for i in range(10))), ("qbig", "1.0000000000004\n"), ("zero", "0,3\n"),
        ):
            files[name] = str(tmp_path / f"{name}.txt")
            (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
        argv = [arg.format(**files) for arg in MALFORMED[case]]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("case, kind, flags", [
        ("simulate_kl_untuned", "kl_divergence", "--alpha and --s0-mult"),
        ("estimate_kl_untuned", "kl_divergence", "--alpha and --s0-mult, or --t and --s0"),
        ("coeffs_l1_untuned", "l1_distance", "--alpha and --s0-mult, or --t and --s0"),
    ], ids=["simulate", "estimate", "coeffs"])
    def test_kind_without_preset_names_the_tuning_flags(self, case, kind, flags, tmp_path, capsys):
        # Refused before any count file is read: this one does not exist.
        files = {"counts": str(tmp_path / "missing.csv"), "out": str(tmp_path / "out.csv")}
        assert run_cli(*(arg.format(**files) for arg in MALFORMED[case])) == 1
        assert capsys.readouterr().err == f"error: {kind} has no preset tuning; amplified needs {flags}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("case, message", [
        ("simulate_s0_mult_without_alpha", "--alpha and --s0-mult must be given together"),
        ("simulate_alpha_2", "alpha must be in [0, 1], got 2.0"),
        ("simulate_s0_mult_negative", "s0_mult must be positive, got -1.0"),
        ("simulate_alpha_nan", "alpha must be in [0, 1], got nan"),
    ], ids=["s0_mult_alone", "alpha_2", "s0_mult_negative", "alpha_nan"])
    def test_simulate_tuning_refused_before_any_cell(self, case, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run_cli(*(arg.format(out=out) for arg in MALFORMED[case])) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("estimators, flags, message", [
        ("foo", ("--alpha", "0.5", "--s0-mult", "4"), f"unknown estimators ['foo']; choose from {cli.ESTIMATORS}"),
        ("thinned", ("--split-mode", "thinned"), f"unknown estimators ['thinned']; choose from {cli.ESTIMATORS}"),
        ("empirical,empirical", ("--split-mode", "thinned"), "estimators repeated: ['empirical', 'empirical']"),
    ], ids=["unknown_with_alpha", "unknown_with_split_mode", "repeated_with_split_mode"])
    def test_simulate_estimator_names_refused_before_their_flags(self, estimators, flags, message, tmp_path, capsys):
        # A flag that amplified alone reads was blamed on the unknown or repeated name.
        out = tmp_path / "out.csv"
        assert run_cli(*SIM_AMPLIFIED[:-4], "--estimators", estimators, *flags, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("command", ["estimate", "coeffs"])
    def test_q_uniform_needs_k_of_at_least_1(self, command, k, counts_file, tmp_path, capsys):
        # --k -1 ended in numpy's "negative dimensions are not allowed" and
        # --k 0 in "q must be a nonempty 1-D probability vector".
        rest = {
            "estimate": ("--counts", counts_file, "--estimator", "empirical"),
            "coeffs": ("--alpha", "0.5", "--s0-mult", "2", "--rate", "1000", "--q-x", "0.5",
                       "--out", str(tmp_path / "c.csv")),
        }[command]
        assert run_cli(command, "--property", "kl", "--q", "uniform", "--k", k, *rest) == 1
        assert capsys.readouterr().err == f"error: --q uniform requires --k of at least 1, got {k}\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("estimator", [
        ("--estimator", "empirical"),
        ("--estimator", "modified_empirical", "--rate", "200"),
        ("--alpha", "0.5", "--s0-mult", "2", "--rate", "200"),
    ], ids=["empirical", "modified_empirical", "amplified"])
    def test_reference_mass_above_one_refused_by_every_estimator(self, estimator, tmp_path, capsys):
        q, counts = tmp_path / "q.txt", tmp_path / "counts.csv"
        q.write_text("1.0000000000004\n", encoding="utf-8")
        counts.write_text("0,3\n", encoding="utf-8")
        assert run_cli("estimate", "--property", "kl", "--q-file", str(q), "--counts", str(counts), *estimator) == 1
        assert capsys.readouterr().err == "error: q must be at most 1\n"

    @pytest.mark.parametrize("family", ["zipf", "poisson", "dirichlet"])
    def test_infinite_family_parameter_named(self, family, tmp_path, capsys):
        record = FAMILIES[family]
        argv = [a.format(out=tmp_path / "out.csv") for a in (*SIM_ON, family, record.flag, "inf", *SIM_OUT)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: {family} {record.param} must lie in (0, inf), got inf\n"


# Each output flag pointed into a directory that does not exist.
UNWRITABLE = {
    "simulate_out": (*SIM_ENTROPY, "--out", "{missing}"),
    "simulate_dump_dist": (*SIM_ENTROPY, "--out", "{out}", "--dump-dist", "{missing}"),
    "coeffs_out": ("coeffs", "--property", "entropy", "--rate", "1000", "--v-max", "20", "--out", "{missing}"),
}


class TestUnwritableOutput:
    @pytest.mark.parametrize("case", sorted(UNWRITABLE))
    def test_exits_2_with_one_error_line(self, case, tmp_path, capsys):
        missing = str(tmp_path / "no" / "such" / "dir" / "file.csv")
        argv = [arg.format(missing=missing, out=tmp_path / "out.csv") for arg in UNWRITABLE[case]]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {missing}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("case", sorted(UNWRITABLE))
    def test_full_device_is_named(self, case, tmp_path, capsys):
        # Opening /dev/full succeeds and writing to it fails: the error once read "cannot write None".
        argv = [arg.format(missing="/dev/full", out=tmp_path / "out.csv") for arg in UNWRITABLE[case]]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write /dev/full: ")

    def test_closed_standard_output_is_named(self, counts_file, subprocess_env):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "propest", *(arg.format(counts=counts_file) for arg in ESTIMATE_EMPIRICAL)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=subprocess_env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write standard output: "), proc.stderr


# Flags the parser does not register, so argparse rejects them.
UNKNOWN_FLAGS = {
    "simulate_t": (*SIM_ENTROPY, "--t", "5"),
    "simulate_s0": (*SIM_ENTROPY, "--alpha", "0.5", "--s0", "2"),
    "simulate_v_max": (*SIM_ENTROPY, "--v-max", "5"),
    "simulate_preset": (*SIM_ENTROPY, "--preset"),
    "estimate_preset": ("estimate", "--property", "entropy", "--counts", "{counts}", "--rate", "1000", "--preset"),
    "coeffs_preset": ("coeffs", "--property", "entropy", "--rate", "1000", "--preset"),
}


class TestUnknownFlags:
    @pytest.mark.parametrize("case", sorted(UNKNOWN_FLAGS))
    def test_exits_1(self, case, counts_file, tmp_path, capsys):
        argv = [arg.format(counts=counts_file) for arg in UNKNOWN_FLAGS[case]]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(tmp_path / "out.csv"))
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


# Flags every command that has them reads, whatever else is chosen.
ALWAYS_READ = {
    "help", "property", "dist", "n_grid", "trials", "seed", "estimators", "out", "threads",
    "strict", "dump_dist", "counts", "estimator",
}


class TestReadRule:
    @pytest.mark.parametrize("command", ["simulate", "estimate", "coeffs"])
    def test_every_flag_is_in_the_table_or_always_read(self, command):
        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {a.dest for a in sub.choices[command]._actions if a.option_strings}
        assert flags <= ALWAYS_READ | set(cli.READ_BY)

    def test_family_flags_come_from_the_records(self):
        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        actions = {a.option_strings[0]: a for a in sub.choices["simulate"]._actions if a.option_strings}
        for family, record in FAMILIES.items():
            if record.flag is not None:
                action = actions[record.flag]
                assert cli.READ_BY[action.dest] == ("--dist", {family})
                assert action.help == f"{family} {record.param} (default {record.default:g})"
        assert {name for name, (choice, _) in cli.READ_BY.items() if choice == "--dist"} == {
            actions[record.flag].dest for record in FAMILIES.values() if record.flag is not None}

    def test_message_names_the_choice_and_the_flag(self, counts_file, capsys):
        assert run_cli(*[a.format(counts=counts_file) for a in ESTIMATE_EMPIRICAL], "--a", "2") == 1
        assert capsys.readouterr().err == "error: --property entropy does not read --a\n"

    def test_q_and_q_file_exclusive(self, counts_file, tmp_path, capsys):
        q = tmp_path / "q.txt"
        q.write_text("0.5\n0.5\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "estimate", "--property", "kl", "--q", "uniform", "--k", "2", "--q-file", str(q),
                "--counts", counts_file, "--estimator", "empirical",
            )
        assert exc.value.code == 1
        assert "argument --q-file: not allowed with argument --q" in capsys.readouterr().err


class TestSelfcheck:
    def test_passes_and_prints_one_line_per_check(self, capsys):
        assert run_cli("selfcheck") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        assert "[FAIL]" not in out

    def test_route_missing_a_quadrature_node_fails_weights_exact(self, monkeypatch, capsys):
        nodes = propest.properties._quadrature_nodes()
        middle = len(nodes[0]) // 2
        monkeypatch.setattr(propest.properties, "_quadrature_nodes", lambda: tuple(np.delete(a, middle) for a in nodes))
        assert run_cli("selfcheck") == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["[FAIL] weights_exact", "[PASS] coefficient_bound",
                                                          "[FAIL] routes_series"]

    def test_route_with_the_log_term_flipped_fails_weights_exact_and_routes_series(self, monkeypatch, capsys):
        # routes_series catches it with the float series alone.
        properties = propest.properties

        def flipped(spec, v, t, lam, qx):
            return v * t / lam * (-np.log(lam) - properties._log1p_mean(v - 1.0, t))

        monkeypatch.setitem(properties.KINDS, "entropy", dataclasses.replace(properties.KINDS["entropy"], weights=flipped))
        assert run_cli("selfcheck") == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL] weights_exact: ") and lines[2].startswith("[FAIL] routes_series: ")

    @pytest.mark.parametrize("mutate, failed", [
        (lambda w: w * (1 + 1e-9), "weights_exact"),
        (lambda w: np.full_like(w, 1e101), "coefficient_bound"),
    ], ids=["off_by_1e_9", "past_1e101"])
    def test_route_entry_at_v_20_fails_one_check(self, monkeypatch, capsys, mutate, failed):
        # README n = 1e3 reads its v = 20 weight from the entropy route.  A weight past 1e101 is
        # clamped, which weights_exact skips and coefficient_bound holds to the exact weight.
        properties = propest.properties
        real = properties.KINDS["entropy"].weights

        def mutated(spec, v, t, lam, qx):
            weights = real(spec, v, t, lam, qx)
            return np.where(v == 20, mutate(weights), weights)

        monkeypatch.setitem(properties.KINDS, "entropy", dataclasses.replace(properties.KINDS["entropy"], weights=mutated))
        assert run_cli("selfcheck") == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"[{'FAIL' if name == failed else 'PASS'}] {name}" for name in ("weights_exact", "coefficient_bound", "routes_series")]

    def test_route_entry_off_by_1e_9_fails_deep_weights_exact(self, monkeypatch, capsys):
        # README n = 59948 reads its v = 59 weight from the entropy route.  The series' condition
        # number there is 5e16, so a tolerance scaled by it would pass a factor of 5e6.
        properties = propest.properties
        real = properties.KINDS["entropy"].weights

        def scaled(spec, v, t, lam, qx):
            return real(spec, v, t, lam, qx) * np.where(v == 59, 1 + 1e-9, 1.0)

        monkeypatch.setitem(properties.KINDS, "entropy", dataclasses.replace(properties.KINDS["entropy"], weights=scaled))
        assert run_cli("selfcheck", "--deep") == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL] weights_exact: ")
        assert all(line.startswith("[PASS] ") for line in lines[1:])

    def test_corrupted_build_detected(self, monkeypatch, capsys):
        # The exact route's f negated: every weight disagrees with the table in sign.
        real = propest.selfcheck.eval_fx_grid
        monkeypatch.setattr(propest.selfcheck, "eval_fx_grid", lambda *args: -real(*args))
        assert run_cli("selfcheck") == 2
        assert capsys.readouterr().out.splitlines()[0].startswith("[FAIL] weights_exact: ")

    @pytest.mark.parametrize("bad_v, corrupt", [
        (1, lambda sign, log_mag: (-sign, log_mag)),  # v = 1 is one term: condition number 1
        (2, lambda sign, log_mag: (sign, log_mag + math.log1p(1e-2))),
    ], ids=["sign_flipped", "one_percent_off"])
    def test_mutated_table_entry_fails_weights_exact(self, monkeypatch, capsys, bad_v, corrupt):
        real = propest.estimators._coefficient_signed_logs

        def mutated(spec, params, v, *args):
            return [(*corrupt(sign, log_mag), cancelled) if count == bad_v else (sign, log_mag, cancelled)
                    for count, (sign, log_mag, cancelled) in zip(v.tolist(), real(spec, params, v, *args))]

        monkeypatch.setattr(propest.estimators, "_coefficient_signed_logs", mutated)
        assert run_cli("selfcheck") == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL] weights_exact: ")
        assert lines[1].startswith("[PASS] coefficient_bound: ")

    def test_raising_check_reported_as_failure(self, monkeypatch, capsys):
        # A guard past the working precision makes the exact route refuse at count 1.
        monkeypatch.setattr(propest.selfcheck, "_GUARD_DIGITS", 100)
        assert run_cli("selfcheck") == 2
        lines = capsys.readouterr().out.splitlines()
        refusal = "ValueError: condition number 1.000e+0 at count 1 needs more than 41 digits"
        assert lines[:2] == [f"[FAIL] {name}: {refusal}" for name in ("weights_exact", "coefficient_bound")]
        assert lines[2].startswith("[PASS] routes_series: ")  # no decimal weight


@pytest.fixture(scope="module")
def deep_selfcheck():
    return {res.name: res for res in run_selfcheck(deep=True)}


@pytest.mark.parametrize("name", ["weights_exact", "coefficient_bound", "routes_series"])
def test_deep_selfcheck(name, deep_selfcheck):
    assert deep_selfcheck[name].passed, deep_selfcheck[name].detail


def test_deep_selfcheck_counts_the_clamped_weights(deep_selfcheck):
    # At rate 500, t 4 the exact weights past v = 212 exceed the 1e100 cap,
    # and the table clamps exactly those 185 entries.
    detail = deep_selfcheck["coefficient_bound"].detail
    assert "185 exact weights past the cap, 0 entries whose clamp disagrees" in detail


class TestEntryPoint:
    def test_module_invocation(self, subprocess_env):
        proc = subprocess.run(
            [sys.executable, "-m", "propest", "--help"],
            capture_output=True, text=True, env=subprocess_env,
        )
        assert proc.returncode == 0
        for command in ("simulate", "estimate", "coeffs", "selfcheck"):
            assert command in proc.stdout

    def test_conflicting_tuning_flags(self, counts_file):
        assert run_cli(
            "estimate", "--property", "entropy", "--counts", counts_file,
            "--rate", "150", "--t", "3", "--s0", "1", "--alpha", "0.2",
        ) == 1


class TestHelp:
    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--property", "--dist", "--n-grid", "--trials", "--seed",
                     "--estimators", "--split-mode", "--out", "--threads",
                     "--alpha", "--s0-mult", "--t-decay", "--strict"):
            assert flag in out


# ---------------------------------------------------------------------------
# count files
# ---------------------------------------------------------------------------

KL_EMPIRICAL = ("--property", "kl", "--q", "uniform", "--k", "8", "--estimator", "empirical")
ENTROPY_EMPIRICAL = ("--property", "entropy", "--estimator", "empirical")

# One fault on line 7 of a file with a header and blank lines.
COUNT_FILE_FAULTS = {
    "comma_count": (ENTROPY_EMPIRICAL, "b,1,2", "expected 'symbol,count'"),
    "no_comma": (ENTROPY_EMPIRICAL, "b 1", "expected 'symbol,count'"),
    "count_not_integer": (ENTROPY_EMPIRICAL, "b, x", "count 'x' not an integer"),
    "count_not_positive": (ENTROPY_EMPIRICAL, "b,0", "count '0' outside 1..2^63-1"),
    "count_above_int64": (
        ENTROPY_EMPIRICAL, "b,9223372036854775808", "count '9223372036854775808' outside 1..2^63-1",
    ),
    "duplicate_symbol": (KL_EMPIRICAL, "05,2", "duplicate symbol '05'"),
    "id_not_integer": (KL_EMPIRICAL, "b,2", "kl_divergence requires integer symbol ids indexing q"),
    "id_out_of_range": (
        KL_EMPIRICAL, "8,2", "kl_divergence symbol ids must lie in 0..7, the indices of q",
    ),
    "id_above_int64": (
        KL_EMPIRICAL, "99999999999999999999,2",
        "kl_divergence symbol ids must lie in 0..7, the indices of q",
    ),
}


class TestCountFileErrors:
    @pytest.mark.parametrize("case", sorted(COUNT_FILE_FAULTS))
    def test_message_names_the_line_in_the_file(self, case, tmp_path, capsys):
        flags, fault, message = COUNT_FILE_FAULTS[case]
        path = tmp_path / "counts.csv"
        path.write_text(f"symbol,count\n\n5,3\n  \n0,1\n\n{fault}\n3,4\n", encoding="utf-8")
        assert run_cli("estimate", *flags, "--counts", str(path)) == 1
        assert capsys.readouterr().err == f"error: {path}: line 7: {message}\n"

    def test_blank_lines_and_header_counted(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("symbol,count\n\na,3\nb,x\n", encoding="utf-8")
        assert run_cli("estimate", *ENTROPY_EMPIRICAL, "--counts", str(path)) == 1
        assert capsys.readouterr().err == f"error: {path}: line 4: count 'x' not an integer\n"

    def test_first_failing_rule_reported(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("a,1\n\nb,x\nc,1,2\n", encoding="utf-8")
        assert run_cli("estimate", *ENTROPY_EMPIRICAL, "--counts", str(path)) == 1
        assert capsys.readouterr().err == f"error: {path}: line 4: expected 'symbol,count'\n"


ENTROPY_AMPLIFIED = ("--property", "entropy", "--rate", "200")
KL_AMPLIFIED = ("--property", "kl", "--q", "uniform", "--k", "8", "--alpha", "0.5", "--s0-mult", "2", "--rate", "200")


class TestTwoCountFiles:
    """One pass reads both files of a request, yet each is checked as if read alone, ``--counts`` first."""

    def _paths(self, tmp_path, first, second):
        paths = [tmp_path / "c1.csv", tmp_path / "c2.csv"]
        for path, data in zip(paths, (first, second)):
            path.write_bytes(data.encode() if isinstance(data, str) else data)
        return [str(path) for path in paths]

    def test_fault_in_counts_reported_before_an_earlier_rule_in_counts2(self, tmp_path, capsys):
        c1, c2 = self._paths(tmp_path, "a,1\nb,2\nc,3\nd,4\ne,x\n", "a,1,2\nb,1\n")
        assert run_cli("estimate", *ENTROPY_AMPLIFIED, "--counts", c1, "--counts2", c2) == 1
        assert capsys.readouterr().err == f"error: {c1}: line 5: count 'x' not an integer\n"

    @pytest.mark.parametrize("flags, second, symbol", [
        (ENTROPY_AMPLIFIED, "symbol,count\nb,3\n\nc,4\nb,5\n", "b"),
        (KL_AMPLIFIED, "symbol,count\n1,3\n\n2,4\n01,5\n", "01"),
    ], ids=["labels", "kl_ids"])
    def test_duplicate_in_counts2_names_that_file_and_line(self, flags, second, symbol, tmp_path, capsys):
        c1, c2 = self._paths(tmp_path, "1,1\n2,2\n", second)  # the same symbol in both files is no duplicate
        assert run_cli("estimate", *flags, "--counts", c1, "--counts2", c2) == 1
        assert capsys.readouterr().err == f"error: {c2}: line 5: duplicate symbol {symbol!r}\n"

    @pytest.mark.parametrize("first, message", [
        ("a,1\nb,x\n", "{c1}: line 2: count 'x' not an integer"),
        ("a,1\nb,2\n", "{c2}: line 1: not UTF-8"),
    ], ids=["fault_in_counts", "counts_fine"])
    def test_unreadable_counts2_reported_after_the_faults_of_counts(self, first, message, tmp_path, capsys):
        c1, c2 = self._paths(tmp_path, first, b"\xff,1\n")
        assert run_cli("estimate", *ENTROPY_AMPLIFIED, "--counts", c1, "--counts2", c2) == 1
        assert capsys.readouterr().err == f"error: {message.format(c1=c1, c2=c2)}\n"

    def test_labels_relisted_in_another_order_keep_their_ids(self, tmp_path, capsys):
        c1, c2 = self._paths(tmp_path, "pear,70\napple,90\nfig,30\nkiwi,8\n",
                             "kiwi,5\nplum,6\nfig,28\nlime,3\napple,85\npear,75\n")
        reads, labels = cli._read_count_files([c1, c2], PropertySpec("entropy"))
        assert labels == 6 and [x.tolist() for x, _ in reads] == [[0, 1, 2, 3], [3, 4, 2, 5, 1, 0]]
        assert run_cli("estimate", *ENTROPY_AMPLIFIED, "--counts", c1, "--counts2", c2) == 0
        # The reply sums in symbol-id order, so its digits pin the ids too.
        assert capsys.readouterr().out == (
            "estimate=1.1409486941427864\nproperty=entropy\nestimator=amplified\nsplit_mode=two_stream\n"
            "rate=200\nt=8.5917232991564632\ns0=22\nu_max=421\nr=2110\nt_decay=1\n"
            "small_sum=0.12961448953736981\nlarge_sum=1.0113342046054166\nreport_offset=0\n"
            "n_small=3\nn_large=3\nn_overflow=0\nn_clamped=0\nn_cancelled=0\n")

    LABELS = ("symbol,count\napple,90\npear,70\nfig,30\nkiwi,8\n", "apple,85\npear,75\nfig,28\nplum,6\n")

    @pytest.mark.parametrize("first, second", [
        ("symbol,count\nяблоко,90\nгруша,70\nинжир,30\nкиви,8\n", "яблоко,85\nгруша,75\nинжир,28\nслива,6\n"),
        (LABELS[0], "\ufeffsymbol,count\r\nfig,28\r\nplum,6\r\npear,75\r\napple,85\r\n"),
    ], ids=["multi_byte_labels", "counts2_bom_header_crlf_reordered"])
    def test_same_ids_give_the_same_reply(self, first, second, tmp_path, capsys):
        # Each file is normalised before the join, and a label is only a key:
        # the same counts under the same symbol ids give the same reply.
        replies = []
        for pair in (self.LABELS, (first, second)):
            c1, c2 = self._paths(tmp_path, *pair)
            assert run_cli("estimate", *ENTROPY_AMPLIFIED, "--counts", c1, "--counts2", c2) == 0
            replies.append(capsys.readouterr())
        assert replies[0] == replies[1] and replies[0].out.startswith("estimate=")


BOM = "\ufeff"
Q_FILE_TEXT = "0.25\n0.25\n0.25\n0.125\n0.125\n0\n0\n0\n"


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark (Excel "CSV UTF-8", PowerShell) is not part of line 1."""

    @pytest.mark.parametrize("flags", [ENTROPY_EMPIRICAL, KL_EMPIRICAL], ids=["entropy", "kl"])
    @pytest.mark.parametrize("header", ["", "symbol,count\n"], ids=["bare", "header"])
    @pytest.mark.parametrize("body, code", [("5,3\n0,1\n", 0), ("5,3\n\n0,x\n", 1), ("5,3\n5,1\n", 1)],
                             ids=["ok", "fault", "duplicate"])
    def test_same_reply_and_error_line(self, flags, header, body, code, tmp_path, capsys):
        replies = []
        for mark in ("", BOM):
            path = tmp_path / "counts.csv"
            path.write_text(mark + header + body, encoding="utf-8")
            replies.append((run_cli("estimate", *flags, "--counts", str(path)), *capsys.readouterr()))
        assert replies[0] == replies[1] and replies[0][0] == code

    def test_q_file(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("0,3\n3,1\n", encoding="utf-8")
        replies = []
        for mark in ("", BOM):
            q = tmp_path / "q.txt"
            q.write_text(mark + Q_FILE_TEXT, encoding="utf-8")
            code = run_cli("estimate", "--property", "kl", "--q-file", str(q), "--counts", str(counts),
                           "--estimator", "empirical")
            replies.append((code, *capsys.readouterr()))
        assert replies[0] == replies[1] and replies[0][0] == 0


def test_malformed_q_file_names_the_line(tmp_path, counts_file, capsys):
    q = tmp_path / "q.txt"
    q.write_text("0.5\n\nx\n0.5\n", encoding="utf-8")
    assert run_cli("estimate", "--property", "kl", "--q-file", str(q), "--counts", counts_file,
                   "--estimator", "empirical") == 1
    assert capsys.readouterr().err == f"error: {q}: line 3: probability 'x' not a number\n"


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
def test_non_finite_q_file_probability_names_the_line(text, tmp_path, counts_file, capsys):
    # It exited with "q must sum to 1 within 1e-12", naming no line.
    q = tmp_path / "q.txt"
    q.write_text(f"0.5\n\n{text}\n0.5\n", encoding="utf-8")
    assert run_cli("estimate", "--property", "kl", "--q-file", str(q), "--counts", counts_file,
                   "--estimator", "empirical") == 1
    assert capsys.readouterr().err == f"error: {q}: line 3: probability {text!r} not finite\n"


class TestZeroReferenceMass:
    """A reference ``q`` of several masses, a table row each, and a final ``0`` line in its
    file, which used to exit 1 with "KL smoothness undefined when q has zero entries"."""

    Q5 = "0.4\n0.3\n0.2\n0.05\n0.05\n"
    SKEW = ("0,120\n1,60\n2,15\n3,3\n4,2\n", "0,118\n1,62\n2,2\n3,1\n4,4\n")
    MANUAL = ("--property", "kl", "--alpha", "0.5", "--s0-mult", "2", "--rate", "200")

    def _q_files(self, tmp_path):
        paths = tmp_path / "q5.txt", tmp_path / "q6.txt"
        for path, text in zip(paths, (self.Q5, self.Q5 + "0\n")):
            path.write_text(text, encoding="utf-8")
        return paths

    def _counts(self, tmp_path, name, text):
        (tmp_path / name).write_text(text, encoding="utf-8")
        return str(tmp_path / name)

    def _skew_streams(self, tmp_path):
        return ("--counts", self._counts(tmp_path, "skew1.csv", self.SKEW[0]),
                "--counts2", self._counts(tmp_path, "skew2.csv", self.SKEW[1]))

    def test_estimate_and_coeffs_match_the_reference_without_the_zero(self, tmp_path, capsys):
        streams = self._skew_streams(tmp_path)
        replies, tables = [], []
        for q in self._q_files(tmp_path):
            assert run_cli("estimate", *self.MANUAL, "--q-file", str(q), *streams) == 0
            replies.append(capsys.readouterr())
            out = tmp_path / f"coeffs_{q.stem}.csv"
            assert run_cli("coeffs", *self.MANUAL, "--q-file", str(q), "--q-x", "0.2", "--out", str(out)) == 0
            tables.append(out.read_bytes())
        assert replies[0] == replies[1] and replies[0].out.startswith("estimate=0.1336350319506870")
        assert tables[0] == tables[1] and tables[0].startswith(b"v,h_v_times_vfact,clamped\n")

    def test_l1_estimate_reads_several_reference_masses(self, tmp_path, capsys):
        # Symbols 2 and 3 are rare in the second stream, so one read spans the rows of 0.2 and 0.05.
        q5, _ = self._q_files(tmp_path)
        streams = self._skew_streams(tmp_path)
        assert run_cli("estimate", "--property", "l1", *self.MANUAL[2:], "--q-file", str(q5), *streams) == 0
        assert capsys.readouterr().out == (
            "estimate=0.39999999999873903\nproperty=l1_distance\nestimator=amplified\nsplit_mode=two_stream\n"
            "rate=200\nt=3.3018074130013648\ns0=3\nu_max=25\nr=129\nt_decay=1\n"
            "small_sum=-0.090000000001261002\nlarge_sum=-0.51000000000000001\nreport_offset=1\n"
            "n_small=2\nn_large=3\nn_overflow=0\nn_clamped=0\nn_cancelled=0\n")

    @pytest.mark.parametrize("second", ["", "5,50\n"], ids=["small_branch", "large_branch"])
    def test_count_on_the_zero_mass_exits_1(self, second, tmp_path, capsys):
        _, q6 = self._q_files(tmp_path)
        streams = ("--counts", self._counts(tmp_path, "c1.csv", "0,120\n1,60\n5,1\n"),
                   "--counts2", self._counts(tmp_path, "c2.csv", "0,118\n1,62\n" + second))
        assert run_cli("estimate", *self.MANUAL, "--q-file", str(q6), *streams) == 1
        assert capsys.readouterr().err == "error: KL divergence undefined: q_x = 0 with p_x > 0\n"


class TestNotUtf8:
    """A byte that is not UTF-8 is reported at its line, numbered as the file's other faults are."""

    @pytest.mark.parametrize("data, line", [
        (b"\xff,1\n", 1),
        (b"\xef\xbb\xbfsymbol,count\r\n\r\na,1\rb\xe9,2\n", 4),
    ], ids=["first_byte", "byte_order_mark_and_mixed_line_breaks"])
    def test_counts_file(self, data, line, tmp_path, capsys):
        # It exited with "'utf-8' codec can't decode byte 0xff in position 0", naming no file.
        path = tmp_path / "counts.csv"
        path.write_bytes(data)
        assert run_cli("estimate", *ENTROPY_EMPIRICAL, "--counts", str(path)) == 1
        assert capsys.readouterr().err == f"error: {path}: line {line}: not UTF-8\n"

    def test_q_file(self, tmp_path, counts_file, capsys):
        q = tmp_path / "q.txt"
        q.write_bytes(b"0.5\n\n0.5\xff\n")
        assert run_cli("estimate", "--property", "kl", "--q-file", str(q), "--counts", counts_file,
                       "--estimator", "empirical") == 1
        assert capsys.readouterr().err == f"error: {q}: line 3: not UTF-8\n"


@pytest.mark.parametrize("prop", ["support_size", "uniformity"])
def test_more_labels_than_k_counted_as_labels(prop, tmp_path, capsys):
    # The library's refusal named symbol ids (0..0) that the files never gave.
    first, second = tmp_path / "c1.csv", tmp_path / "c2.csv"
    first.write_text("a,3\n", encoding="utf-8")
    second.write_text("b,2\n", encoding="utf-8")
    assert run_cli("estimate", "--property", prop, "--k", "1", "--counts", str(first),
                   "--counts2", str(second), "--rate", "200") == 1
    assert capsys.readouterr().err == "error: count files hold 2 distinct symbols, more than --k 1\n"


def old_symbol_id(sym, spec, ids):
    if spec.q is None:
        return ids.setdefault(sym, len(ids))
    try:
        x = int(sym)
    except ValueError:
        raise cli.UsageError(f"{spec.kind} requires integer symbol ids indexing q") from None
    if not 0 <= x < len(spec.q):
        raise cli.UsageError(
            f"{spec.kind} symbol ids must lie in 0..{len(spec.q) - 1}, the indices of q"
        )
    return x


def old_read_counts(path, spec, ids):
    """The line-by-line reader the bulk reader replaced, kept as its reference."""
    counts = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = [line.strip() for line in f]
    except OSError as exc:
        raise cli.UsageError(f"cannot read counts file: {exc}") from exc
    body = [line for line in lines if line]
    if body and body[0].lower().replace(" ", "") == "symbol,count":
        body = body[1:]
    for i, line in enumerate(body, start=1):
        parts = line.split(",")
        if len(parts) != 2:
            raise cli.UsageError(f"{path}: line {i}: expected 'symbol,count'")
        sym, count_s = parts[0].strip(), parts[1].strip()
        try:
            count = int(count_s)
        except ValueError as exc:
            raise cli.UsageError(f"{path}: line {i}: count {count_s!r} not an integer") from exc
        if count <= 0:
            raise cli.UsageError(f"{path}: line {i}: counts must be positive")
        x = old_symbol_id(sym, spec, ids)
        if x in counts:
            raise cli.UsageError(f"{path}: duplicate symbol {sym!r}")
        counts[x] = count
    return counts


def old_histogram(counts, spec, ids):
    if sum(counts.values()) > 2**63 - 1:  # an int64 total would wrap
        raise OverflowError
    array = np.zeros(len(ids) if spec.q is None else len(spec.q), dtype=np.int64)
    array[list(counts)] = list(counts.values())
    return array


def reference_streams(paths, spec):
    """Both streams as the line-by-line reader read them: ``(vectors, ids)``, or None if rejected.

    ``ids`` lists each file's symbol ids in line order: a label's is its place in ``ids``' insertion order.
    """
    ids = {}
    try:
        reads = [old_read_counts(path, spec, ids) for path in paths]
        vectors = [old_histogram(r, spec, ids) for r in reads]
    except (cli.UsageError, OverflowError):  # it let counts above 2^63-1, or a total above it, overflow
        return None
    return vectors, [list(r) for r in reads]


def read_streams(paths, spec):
    """Both streams as ``cmd_estimate`` reads them, in the form of :func:`reference_streams`."""
    try:
        reads, labels = cli._read_count_files([str(path) for path in paths], spec)
        vectors = [cli._histogram(r, spec, labels).array for r in reads]
    except cli.UsageError:
        return None
    return vectors, [x.tolist() for x, _ in reads]


def assert_reads_like_reference(paths, spec):
    want = reference_streams(paths, spec)
    try:
        got = read_streams(paths, spec)
    except ValueError as exc:  # Histogram's refusal, not a UsageError
        assert str(exc) == "counts must total at most 2^63-1"
        got = None
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[1] == want[1]
        for g, w in zip(got[0], want[0]):
            assert g.dtype == np.int64 and np.array_equal(g, w)


Q_LEN = 6
pads = st.sampled_from(["", " ", "\t", "\x1c", "\u2028"])
kl_ids = st.builds("{}{}".format, st.sampled_from(["", "+", "0"]), st.integers(0, Q_LEN - 1))
# A small alphabet, so that the two streams share labels.  Its labels that
# differ only by a trailing zero byte or by Unicode normalisation must stay
# apart.  Keys (a label and its comma) are read as 8-byte words: the keys
# of 7, 8, 9, 16 and 17 bytes, the one ending in a zero byte and the 2-byte
# character across a word boundary sit at the words' edges.
labels = st.sampled_from(["a", "b", "c d", "", "5", "05", "+5", "a\x00", "\x00", "\u00e9", "e\u0301",
                          "abcdef", "abcdefg", "abcdefg\x00", "abcdefgh", "abcdefghijklmno", "abcdefghijklmnop",
                          "abcdefg\u00e9"])
good_counts = st.one_of(
    st.builds("{}{}".format, st.sampled_from(["", "+", "0"]), st.integers(1, 50)),
    st.sampled_from(["1_000", str(2**63 - 1)]),
)
bad_lines = st.sampled_from(["a", "a,1,2", ",", "a,,1", "symbol,count"])
bad_counts = st.sampled_from(["x", "1.5", "", "0", "-2", str(2**63), str(-(2**63) - 1)])
bad_ids = st.sampled_from(["x", "1.5", "", "-1", str(Q_LEN), str(2**64)])


@st.composite
def count_files(draw, kl):
    """Text of a count file: mostly valid, at most one fault."""
    entries = draw(st.lists(
        st.tuples(kl_ids if kl else labels, good_counts), max_size=10,
        unique_by=lambda entry: int(entry[0]) if kl else entry[0],
    ))
    fault = draw(st.sampled_from(["none", "none", "line", "count", "id", "duplicate"]))
    if entries and fault in ("count", "id", "duplicate"):
        j = draw(st.integers(0, len(entries) - 1))
        sym, count = entries[j]
        if fault == "count":
            entries[j] = (sym, draw(bad_counts))
        elif fault == "id" and kl:
            entries[j] = (draw(bad_ids), count)
        elif fault == "duplicate":
            alias = draw(st.sampled_from(["0", "+"])) if kl else ""
            entries.insert(draw(st.integers(0, len(entries))), (alias + sym, "1"))
    lines = draw(st.sampled_from([[], ["symbol,count"], [" Symbol, Count "]]))
    lines += [f"{draw(pads)}{sym}{draw(pads)},{draw(pads)}{count}{draw(pads)}"
              for sym, count in entries]
    if fault == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(bad_lines))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t "])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines + [""] * draw(st.booleans()))


@pytest.fixture(scope="module")
def stream_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("streams")
    return [folder / "c1.csv", folder / "c2.csv"]


@given(
    case=st.booleans().flatmap(lambda kl: st.tuples(st.just(kl), count_files(kl), count_files(kl))),
    two_streams=st.booleans(),
)
@example(case=(True, "5,1\n05,2\n", ""), two_streams=False)
@example(case=(False, "5\n6,1,2\n", ""), two_streams=False)
@example(case=(False, "a,3\n", "b,1\na,99999999999999999999\n"), two_streams=True)
@example(case=(False, " a ,\x1c3\r\n\r\nb,1", "c,2\na,1"), two_streams=True)
@example(case=(False, "abcdefghijklmno,1\nabcdefggzz,2\nabcdefgh,3\nabcdefghzz,4\n",
               "abcdefgh,5\nabcdefghijklmnop,6\nabcdefggzz,7\n"),
         two_streams=True)  # keys told apart by a later word, and keys whose second words are equal
@settings(max_examples=400, deadline=None)
def test_reader_matches_line_by_line_reference(stream_paths, case, two_streams):
    kl, first, second = case
    spec = PropertySpec("kl_divergence", q=np.full(Q_LEN, 1.0 / Q_LEN)) if kl else PropertySpec("entropy")
    for path, text in zip(stream_paths, (first, second)):
        path.write_text(text, encoding="utf-8", newline="")
    paths = stream_paths if two_streams else stream_paths[:1]
    assert_reads_like_reference(paths, spec)


@given(files=st.lists(st.lists(st.tuples(labels, good_counts), max_size=10, unique_by=lambda entry: entry[0]),
                      min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_one_sort_a_word_ranks_the_labels(stream_paths, files):
    """Both files' labels are ranked by stable ``np.lexsort`` calls, and no ``np.unique`` runs over their keys.

    The first call sorts every key by its first 8-byte word, so keys of one word (labels of up to 7 bytes)
    are sorted once.  A later word sorts the keys again, by run and word, only if it tells apart keys that
    the words before it did not.
    """
    for path, entries in zip(stream_paths, files):
        path.write_text("".join(f"{label},{count}\n" for label, count in entries), encoding="utf-8", newline="")
    sorts, uniques = [], []
    lexsort, unique = np.lexsort, np.unique

    def counted_lexsort(keys, *args, **kwargs):
        sorts.append(len(keys))
        return lexsort(keys, *args, **kwargs)

    def counted_unique(values, *args, **kwargs):
        uniques.append(np.asarray(values).dtype)
        return unique(values, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, "lexsort", counted_lexsort)
        m.setattr(np, "unique", counted_unique)
        cli._read_count_files([str(path) for path in stream_paths], PropertySpec("entropy"))
    keys = [(label + ",").encode() for entries in files for label, _ in entries]
    assert uniques == [] and sorts[:1] == [1] * bool(keys) and set(sorts[1:]) <= {2}  # later: (word, run)
    assert len(sorts) <= -(-max(map(len, keys), default=0) // 8)  # at most one sort a word
    if len(set(keys)) == len({key[:8] for key in keys}):  # the first words tell the labels apart
        assert len(sorts) == bool(keys)
    assert_reads_like_reference(stream_paths, PropertySpec("entropy"))


def test_long_label_read_without_padding(stream_paths):
    """One long label among short ones is read like the reference, in memory in proportion to the file."""
    lines = [f"s{i},1" for i in range(1000)]
    lines[3] = "x" * 20000 + ",2"
    long, short = "\n".join(lines), "s5,1\ny,2\ns7,3\n"
    spec = PropertySpec("entropy")
    for texts in ((long, short), (short, long)):
        for path, text in zip(stream_paths, texts):
            path.write_text(text, encoding="utf-8", newline="")
        assert_reads_like_reference(stream_paths, spec)
    stream_paths[0].write_text(long, encoding="utf-8", newline="")
    tracemalloc.start()
    try:
        [(x, counts)], labels = cli._read_count_files([str(stream_paths[0])], spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(x, np.arange(1000)) and counts[3] == 2 and labels == 1000
    assert peak < 2_000_000  # padding the 1000 labels to the longest would take 20 MB


PLAIN_Q_LEN = 500


def _plain_count(rnd):
    """A count as a plain file writes it: short, with leading zeros, or 18 digits."""
    return rnd.choice([
        lambda: str(rnd.randint(1, 999)), lambda: f"00{rnd.randint(1, 999)}",
        lambda: str(rnd.randint(10**17, 10**18 - 1)),
    ])()


def _with_count(line, count):
    return f"{line.partition(',')[0]},{count}"


# Each deviation from a fault-free plain file, as the lines that replace one
# line.  The reader accepts the first five and rejects the rest (for
# opaque labels, bad_id adds an ordinary label).
DEVIATIONS = {
    "19_digit_count": lambda draw, line: [_with_count(line, draw(st.integers(10**18, 2**63 - 1)))],
    "signed_count": lambda draw, line: [_with_count(line, "+" + line.partition(",")[2])],
    "underscore_count": lambda draw, line: [_with_count(line, "1_000")],
    "padded_line": lambda draw, line: [draw(st.sampled_from([" ", "\t", "\x1c"])) + line],
    "blank_line": lambda draw, line: ["", line],
    "zero_count": lambda draw, line: [_with_count(line, draw(st.sampled_from(["0", "000"])))],
    "text_count": lambda draw, line: [_with_count(line, draw(st.sampled_from(["x", "", "1.5", "-3"])))],
    "count_above_int64": lambda draw, line: [_with_count(line, draw(st.integers(2**63, 10**19 - 1)))],
    "extra_comma": lambda draw, line: [line + ",1"],
    "no_comma": lambda draw, line: [line.replace(",", "")],
    "duplicate": lambda draw, line: [line, line],
    "bad_id": lambda draw, line: [draw(st.sampled_from(["x", str(PLAIN_Q_LEN), str(2**64)])) + ",1", line],
}


@st.composite
def plain_files(draw, kl, plain_only=False):
    """``(text, plain)``: up to a few hundred lines with at most one deviation, plain if none.

    ``plain_only`` draws only plain files: at least one line and no deviation.
    """
    # Hundreds of lines: their fields come from one seeded generator, which
    # draws them far faster than a strategy per field.
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(int(plain_only), 300))
    lines = [
        f"{rnd.choice(['', '0'] if kl else ['', '0', 's'])}{key},{_plain_count(rnd)}"
        for key in rnd.sample(range(PLAIN_Q_LEN), n)
    ]
    deviation = "none" if plain_only else draw(st.sampled_from(["none"] * 6 + ["spaced_header", *DEVIATIONS]))
    if lines and deviation in DEVIATIONS:
        j = draw(st.integers(0, len(lines) - 1))
        lines[j : j + 1] = DEVIATIONS[deviation](draw, lines[j])
    header = draw(st.sampled_from(["", "symbol,count", "Symbol,Count"]))
    if deviation == "spaced_header":
        header = "symbol, count"
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(([header] if header else []) + lines) + newline * draw(st.booleans())
    return text, deviation == "none" and bool(lines)


@given(
    case=st.booleans().flatmap(lambda kl: st.tuples(st.just(kl), plain_files(kl), plain_files(kl))),
    two_streams=st.booleans(),
)
@example(case=(False, (" 5,3\n6,1\n", False), ("6,2\n", False)), two_streams=True)
@example(case=(False, ("symbol,count\na,1\nb,2\n", True), ("b,3\nc,4", True)), two_streams=True)
@example(case=(False, ("a,1000000000000000000\n", False), ("", False)), two_streams=False)
@example(case=(True, ("5,1\r\n07,2\r\n", True), ("7,1\r\n", True)), two_streams=True)
@example(case=(True, (f"{PLAIN_Q_LEN},1\n6,1\n", False), ("", False)), two_streams=False)
@settings(max_examples=200, deadline=None)
def test_plain_reader_matches_reference(stream_paths, case, two_streams):
    kl, *files = case
    spec = PropertySpec("kl_divergence", q=np.full(PLAIN_Q_LEN, 1.0 / PLAIN_Q_LEN)) if kl else PropertySpec("entropy")
    for path, (text, _) in zip(stream_paths, files):
        path.write_text(text, encoding="utf-8", newline="")
    paths = stream_paths if two_streams else stream_paths[:1]
    assert_reads_like_reference(paths, spec)


@given(case=st.booleans().flatmap(
    lambda kl: st.tuples(st.just(kl), plain_files(kl, plain_only=True), plain_files(kl, plain_only=True))))
@settings(max_examples=100, deadline=None)
def test_plain_file_read_in_the_byte_pass(stream_paths, case):
    """Every field of two fault-free plain files is read by ``_digits``, never by ``int()``, one call a column for both."""
    kl, *files = case
    assert all(plain for _, plain in files)
    spec = PropertySpec("kl_divergence", q=np.full(PLAIN_Q_LEN, 1.0 / PLAIN_Q_LEN)) if kl else PropertySpec("entropy")
    for path, (text, _) in zip(stream_paths, files):
        path.write_text(text, encoding="utf-8", newline="")
    read, real = [], cli._digits

    def digits(*args):
        values = real(*args)
        read.append(values is not None)
        return values

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_digits", digits)
        cli._read_count_files([str(path) for path in stream_paths], spec)
    assert read == [True] * (1 + kl)  # counts, and l1/kl ids


class TestParser:
    def test_built_once_and_reused(self, tmp_path, counts_file, capsys):
        calls = [
            ["estimate", "--property", "entropy", "--counts", counts_file,
             "--rate", "150", "--t", "3", "--s0", "1"],
            ["estimate", "--property", "entropy", "--counts", counts_file, "--rate", "1000"],
            ["simulate", "--property", "entropy", "--dist", "zipf", "--k", "50",
             "--n-grid", "300", "--trials", "2", "--estimators", "amplified,empirical",
             "--out", str(tmp_path / "sim.csv")],
            ["coeffs", "--property", "entropy", "--rate", "150", "--t", "3", "--s0", "1",
             "--v-max", "20", "--out", str(tmp_path / "coeffs.csv")],
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            return code, captured.out, captured.err, out and Path(out).read_bytes()

        first = []
        for argv in calls:
            cli.build_parser.cache_clear()
            first.append(run(argv))
        cli.build_parser.cache_clear()
        assert [run(argv) for argv in calls] == first
        assert cli.build_parser.cache_info().misses == 1
        assert all(code == 0 for code, *_ in first)

    def test_not_built_at_import(self, subprocess_env):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import propest.cli as c; print(c.build_parser.cache_info().misses)"],
            capture_output=True, text=True, env=subprocess_env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0\n"
