"""End-to-end tests of the command-line interface (in-process)."""

import math

import numpy as np
import pytest

import propest.numerics
from propest.cli import main
from propest.estimators import EstimatorParams, build_coefficient_table
from propest.numerics import log_poisson_tail
from propest.properties import entropy, eval_fx


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
        # amplified has no preset tuning for l1
        args = (
            "simulate", "--property", "l1", "--q", "uniform", "--k", "8",
            "--dist", "uniform", "--n-grid", "500", "--trials", "2",
            "--estimators", "amplified,empirical",
        )
        assert run_cli(*args, "--out", str(tmp_path / "x.csv")) == 0
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

    def test_missing_rate_is_usage_error(self, counts_file):
        assert run_cli(
            "estimate", "--property", "entropy", "--counts", counts_file,
            "--estimator", "modified_empirical",
        ) == 1

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
        assert estimate == pytest.approx(math.log(4), rel=1e-14)

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
        assert estimate == pytest.approx(math.log(2), rel=1e-14)

    def test_nonpositive_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,0\n", encoding="utf-8")
        assert run_cli(
            "estimate", "--property", "entropy", "--counts", str(path),
            "--estimator", "empirical",
        ) == 1


class TestCoeffs:
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
        tail = math.exp(log_poisson_tail(params.r, 2))
        target = 3.0 * eval_fx(entropy(), 0, 1 / 450.0) * tail
        assert v1 == pytest.approx(target, rel=1e-12)
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

    def test_reference_property_needs_qx(self, tmp_path):
        assert run_cli(
            "coeffs", "--property", "l1", "--q", "uniform", "--k", "4",
            "--rate", "1000", "--t", "3", "--s0", "1",
            "--out", str(tmp_path / "c.csv"),
        ) == 1


KL_MANUAL = ("--property", "kl", "--q", "uniform", "--k", "4", "--alpha", "0.5", "--s0-mult", "2")
SIM_EMPIRICAL = ("--n-grid", "1000", "--trials", "1", "--estimators", "empirical")
COEFFS_KL_AT_QX = ("coeffs", *KL_MANUAL, "--rate", "1000", "--out", "{out}", "--q-x")

MALFORMED = {
    "negative_rate": (
        "estimate", "--property", "entropy", "--counts", "{counts}",
        "--estimator", "modified_empirical", "--rate", "-1",
    ),
    "kl_symbol_not_an_id": ("estimate", *KL_MANUAL, "--counts", "{counts}", "--rate", "1000"),
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
    "kl_zero_reference_mass": (*COEFFS_KL_AT_QX, "0"),
    "negative_reference_mass": (*COEFFS_KL_AT_QX, "-0.5"),
    "reference_mass_above_one": (*COEFFS_KL_AT_QX, "1.5"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_1_with_one_error_line(self, case, counts_file, tmp_path, capsys):
        files = {"counts": counts_file, "out": str(tmp_path / "out.csv")}
        for name, text in (("q2", "0.5\n0.5\n"), ("ids", "0,3\n5,1\n")):
            files[name] = str(tmp_path / f"{name}.txt")
            (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
        argv = [arg.format(**files) for arg in MALFORMED[case]]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()


class TestSelfcheck:
    def test_passes_and_prints_one_line_per_check(self, capsys):
        assert run_cli("selfcheck") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4
        assert "[FAIL]" not in out

    def test_corrupted_build_detected(self, monkeypatch, capsys):
        real = propest.numerics.bessel_f
        monkeypatch.setattr(
            propest.numerics, "bessel_f", lambda u, y: -real(u, y)
        )
        assert run_cli("selfcheck") == 2
        assert "[FAIL]" in capsys.readouterr().out

    def test_raising_check_reported_as_failure(self, monkeypatch, capsys):
        def diverge(u, y, upper=math.inf):
            raise propest.numerics.ConvergenceError("forced divergence")

        monkeypatch.setattr(propest.numerics, "integrate_exp_poly_bessel", diverge)
        assert run_cli("selfcheck") == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("[FAIL] quadrature_identity: ConvergenceError")
        assert "forced divergence" in lines[0]
        assert all(line.startswith("[PASS] ") for line in lines[1:])


class TestEntryPoint:
    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "propest", "--help"],
            capture_output=True, text=True,
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
