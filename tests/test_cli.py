import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from benflow.cli import EXIT_EXPECTATION, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from benflow.dataio import load_matrix, parse_exact_spectrum, parse_monomial_label
from benflow.errors import UsageError
from benflow.exactreal import Monomial
from benflow.genericity import EnsembleSpec, sample_generator
from helpers import double_real_eigenvalue_6x6, fixture_text


@pytest.fixture
def rank_one_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[1, 1], [1, 1]]")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeMatrix:
    def test_rank_one_spectrum(self, capsys, rank_one_json):
        code, out, _ = run_cli(capsys, "analyze-matrix", str(rank_one_json))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["dim"] == 2
        assert report["dominant"] == [{"re": 2.0, "im": 0.0}]
        assert report["hyperbolic"] is False
        assert report["algebraic_shortcut_nonresonant"] is False

    @pytest.mark.parametrize("index", (415, 497, 1149, 1988))
    def test_singular_integer_matrix_on_axis(self, capsys, tmp_path, index):
        matrix = sample_generator(EnsembleSpec(d=3, distribution="int3", N=2000, seed=7), index)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix.tolist()))
        code, out, _ = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["hyperbolic"] is False
        assert report["hyperbolic"] == report["algebraic_shortcut_nonresonant"]

    @pytest.mark.parametrize("index", (415, 497, 1149, 1988))
    def test_fine_clustering_hyperbolic_reads_listed_points(self, capsys, tmp_path, index):
        # at eigen_cluster 1e-12 the split double 0 is two simple points about
        # 1e-8 off the axis; hyperbolicity reads those same listed points
        matrix = sample_generator(EnsembleSpec(d=3, distribution="int3", N=2000, seed=7), index)
        path, config = tmp_path / "m.json", tmp_path / "cfg.json"
        path.write_text(json.dumps(matrix.tolist()))
        config.write_text(json.dumps({"tolerances": {"eigen_cluster": 1e-12}}))
        code, out, _ = run_cli(capsys, "--config", str(config), "analyze-matrix", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert [e["multiplicity"] for e in report["eigenvalues"]] == [1, 1, 1]
        assert report["hyperbolic"] is True
        assert report["hyperbolic"] == report["algebraic_shortcut_nonresonant"]

    def test_one_eigensolve(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(double_real_eigenvalue_6x6().tolist()))
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
        code, out, _ = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_OK
        assert [e["multiplicity"] for e in json.loads(out)["eigenvalues"]].count(2) == 1
        assert len(calls) == 1

    def test_csv_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,-3.14159265358979\n3.14159265358979,1\n")
        code, out, _ = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["hyperbolic"] is True

    def test_annotated_fixture_exact_verdict(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text(fixture_text("ex-3-14-psi.json"))
        code, out, _ = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["exact"]["resonant"] is True
        assert report["exact"]["witness"] == {"kind": "span-membership", "q": 2, "p": [1]}

    def test_annotated_nonresonant_fixture(self, capsys, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(fixture_text("ex-3-5.json"))
        code, out, _ = run_cli(capsys, "--base", "2", "analyze-matrix", str(path))
        report = json.loads(out)
        assert code == EXIT_OK
        assert report["exact"]["resonant"] is False

    @pytest.mark.parametrize(
        "matrix, eigenvalues, message",
        [
            # diag(2, 3) annotated with the single eigenvalue 0
            ([[2.0, 0.0], [0.0, 3.0]], [("0", "0")], "lists 1 eigenvalues"),
            # spectrum 1 +- 2i annotated as 2 +- 2i
            ([[1.0, -2.0], [2.0, 1.0]], [("2", "2"), ("2", "-2")], "not an eigenvalue"),
        ],
    )
    def test_mismatched_annotation_exit_2(self, capsys, tmp_path, matrix, eigenvalues, message):
        path = tmp_path / "mismatch.json"
        annotation = {"symbols": [], "eigenvalues": [{"re": {"1": re}, "im": {"1": im}} for re, im in eigenvalues]}
        path.write_text(json.dumps({"matrix": matrix, "exact_spectrum": annotation}))
        code, out, err = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    def test_annotation_matches_with_multiplicity(self, capsys, tmp_path):
        path = tmp_path / "double.json"
        annotation = {"symbols": [], "eigenvalues": [{"re": {"1": "2"}, "im": {}}] * 2}
        path.write_text(json.dumps({"matrix": [[2.0, 0.0], [0.0, 2.0]], "exact_spectrum": annotation}))
        code, out, _ = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["eigenvalues"] == [{"re": 2.0, "im": 0.0, "multiplicity": 2, "jordan_index": 0}]
        # the right values with the wrong multiplicities are still a mismatch
        annotation["eigenvalues"] = [{"re": {"1": "2"}, "im": {}}, {"re": {"1": "3"}, "im": {}}]
        path.write_text(json.dumps({"matrix": [[2.0, 0.0], [0.0, 3.0]], "exact_spectrum": annotation}))
        assert run_cli(capsys, "analyze-matrix", str(path))[0] == EXIT_OK
        path.write_text(json.dumps({"matrix": [[2.0, 0.0], [0.0, 2.0]], "exact_spectrum": annotation}))
        assert run_cli(capsys, "analyze-matrix", str(path))[0] == EXIT_USAGE

    @pytest.mark.parametrize("eps", ["1e-8", "1e-9", "1e-10", "1e-12", "1e-14"])
    def test_near_real_rotation_one_point(self, capsys, tmp_path, eps):
        # 1 +- eps i is one real point: two made-real means merged (1e-8), or one
        # cluster with no rank drop at 1 (1e-9 .. 1e-12), never two points or exit 2
        path = tmp_path / "m.csv"
        path.write_text(f"1,-{eps}\n{eps},1\n")
        code, out, _ = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["eigenvalues"] == [{"re": 1.0, "im": 0.0, "multiplicity": 2, "jordan_index": 0}]

    @pytest.mark.parametrize(
        "annotation",
        [
            {"eigenvalues": [{"re": {"1": None}}, {"re": {"1": 2}}]},
            {"symbols": ["x"], "atoms": {"x": "abc"}, "eigenvalues": [{"re": {"1": 1}}, {"re": {"1": 2}}]},
            {"eigenvalues": 5},
            {"atoms": [1], "eigenvalues": [{"re": {"1": 1}}, {"re": {"1": 2}}]},
            {"symbols": [3], "eigenvalues": [{"re": {"1": 1}}, {"re": {"1": 2}}]},
            {"symbols": "pi", "eigenvalues": [{"re": {"1": 1}}, {"re": {"1": 2}}]},
            {"symbols": ["ln0"], "eigenvalues": [{"re": {"1": 1}}, {"re": {"1": 2}}]},
        ],
        ids=["null-coordinate", "non-numeric-atom", "eigenvalues-int", "atoms-list", "symbols-int", "symbols-str", "ln0"],
    )
    def test_malformed_annotation_exit_2(self, capsys, tmp_path, annotation):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 2.0]], "exact_spectrum": annotation}))
        code, _, err = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "Traceback" not in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[1, 2], [3,]]")
        code, _, err = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_USAGE
        assert "line" in err and "column" in err

    def test_non_square_exit_2(self, capsys, tmp_path):
        path = tmp_path / "rect.json"
        path.write_text("[[1, 2, 3], [4, 5, 6]]")
        code, _, err = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_USAGE
        assert "square" in err

    def test_zero_matrix(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text("[[0]]")
        code, out, _ = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["eigenvalues"][0]["re"] == 0.0
        assert report["algebraic_shortcut_nonresonant"] is False

    def test_csv_format_output(self, capsys, rank_one_json):
        code, out, _ = run_cli(capsys, "--format", "csv", "analyze-matrix", str(rank_one_json))
        assert code == EXIT_OK
        assert out.splitlines()[0] == "re,im,multiplicity,jordan_index"

    def test_csv_format_annotated_prints_exact_json(self, capsys, tmp_path):
        # the exact verdict has no table form, so it is not dropped for one
        path = tmp_path / "psi.json"
        path.write_text(fixture_text("ex-3-14-psi.json"))
        code, out, _ = run_cli(capsys, "--format", "csv", "analyze-matrix", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["exact"]["witness"] == {"kind": "span-membership", "q": 2, "p": [1]}


class TestBenfordCommand:
    def test_synthetic_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "--horizon", "2000", "benford", "--synthetic", "r=1,k=0,modes=0:1"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "BENFORD_PASS"

    def test_matrix_norm_fail(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text(fixture_text("ex-3-14-psi.json"))
        code, out, _ = run_cli(
            capsys, "--horizon", "2000", "benford", "--matrix", str(path), "--norm", "spectral"
        )
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "FAIL"

    def test_matrix_with_observable(self, capsys, tmp_path):
        gen = tmp_path / "gen.json"
        gen.write_text("[[1, -3.141592653589793], [3.141592653589793, 1]]")
        obs = tmp_path / "obs.json"
        obs.write_text("[[1, 0], [0, 0]]")
        code, out, _ = run_cli(
            capsys,
            "--horizon",
            "2000",
            "benford",
            "--matrix",
            str(gen),
            "--observable",
            str(obs),
        )
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "BENFORD_PASS"

    def test_all_zero_csv_trivial(self, capsys, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("\n".join(f"{i * 0.1},0.0" for i in range(200)))
        code, out, _ = run_cli(capsys, "benford", "--signal-csv", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "TRIVIAL"

    def test_all_zero_csv_format_prints_trivial_json(self, capsys, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("\n".join(f"{i * 0.1},0.0" for i in range(200)))
        code, out, _ = run_cli(capsys, "--format", "csv", "benford", "--signal-csv", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "TRIVIAL"

    def test_non_numeric_csv_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n0.1,banana\n")
        code, _, err = run_cli(capsys, "benford", "--signal-csv", str(path))
        assert code == EXIT_USAGE
        assert "line 2" in err

    def test_digit_and_ecdf_csv_emission(self, capsys, tmp_path):
        digits = tmp_path / "digits.csv"
        ecdf = tmp_path / "ecdf.csv"
        code, _, _ = run_cli(
            capsys,
            "--horizon",
            "1000",
            "benford",
            "--synthetic",
            "r=1,k=0,modes=0:1",
            "--digits-csv",
            str(digits),
            "--ecdf-csv",
            str(ecdf),
        )
        assert code == EXIT_OK
        digit_lines = digits.read_text().splitlines()
        assert digit_lines[0] == "digit,observed,target"
        assert len(digit_lines) == 10
        ecdf_lines = ecdf.read_text().splitlines()
        assert ecdf_lines[0] == "significand,ecdf,target"
        assert len(ecdf_lines) > 100

    def test_digits_csv_file_equals_csv_stdout(self, capsys, tmp_path):
        digits = tmp_path / "digits.csv"
        code, out, _ = run_cli(
            capsys,
            "--horizon",
            "1000",
            "--format",
            "csv",
            "benford",
            "--synthetic",
            "r=1,k=0,modes=0:1",
            "--digits-csv",
            str(digits),
        )
        assert code == EXIT_OK
        assert digits.read_bytes() == out.encode("utf-8")

    def test_overflow_truncation_exit_3(self, capsys, tmp_path):
        gen = tmp_path / "gen.json"
        gen.write_text("[[0, 1e304], [0, 0]]")
        obs = tmp_path / "obs.json"
        obs.write_text("[[0, 1], [0, 0]]")
        code, out, _ = run_cli(
            capsys,
            "--horizon",
            "50000",
            "--step",
            "5",
            "benford",
            "--matrix",
            str(gen),
            "--observable",
            str(obs),
        )
        assert code == EXIT_NUMERIC
        assert json.loads(out)["truncated_at"] is not None

    def test_overflow_at_the_first_sample_exit_3(self, capsys, tmp_path):
        # e^{tA} leaves the float range at the first grid time: no report, exit 3
        gen = tmp_path / "gen.json"
        gen.write_text("[[0, 1e306], [0, 0]]")
        obs = tmp_path / "obs.json"
        obs.write_text("[[0, 1], [0, 0]]")
        code, out, err = run_cli(
            capsys, "--step", "1000", "--horizon", "1e6", "benford", "--matrix", str(gen), "--observable", str(obs)
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == "error: matrix exponential overflowed at t = 1000.0\n"

    def test_bad_synthetic_spec_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "benford", "--synthetic", "r=banana")
        assert code == EXIT_USAGE

    def test_synthetic_comma_modes_equal_semicolon_modes(self, capsys):
        runs = [
            run_cli(capsys, "--horizon", "1000", "benford", "--synthetic", spec)
            for spec in ("r=1,k=0,modes=0:1,2:0.5", "r=1,k=0,modes=0:1;2:0.5", "r=1,k=0,modes=0:1")
        ]
        assert runs[0][0] == EXIT_OK
        assert runs[0] == runs[1]
        assert runs[0][1] != runs[2][1]  # the second mode is not dropped

    @pytest.mark.parametrize("spec", ["r=nan", "r=inf", "modes=inf:1", "modes=0:nan", "modes=0:inf"])
    def test_non_finite_synthetic_exit_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "--horizon", "1000", "benford", "--synthetic", spec)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err and "Traceback" not in err

    def test_non_finite_sample_count_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "--horizon", "1e300", "--step", "1e-300", "benford", "--synthetic", "r=1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err and "Traceback" not in err

    def test_no_fractional_bit_exit_2(self, capsys):
        # log_b e^{1e300 t} is past 2^52 from the first grid time on: no significand is left
        code, out, err = run_cli(capsys, "benford", "--synthetic", "r=1e300")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "2^52" in err and "Traceback" not in err

    def test_no_fractional_bit_mid_grid_exit_3(self, capsys):
        # log_b e^{1.05e12 t} reaches 2^52 at t = 9876.12: the grid is cut there, a partial report
        code, out, err = run_cli(capsys, "benford", "--synthetic", "r=1.05e12")
        assert code == EXIT_NUMERIC
        assert err == ""
        report = json.loads(out)
        assert (report["truncated_at"], report["sample_count"]) == (9876.12, 987_611)

    def test_unallocatable_sample_count_exit_2(self, capsys):
        # 1e17 samples on the default step: refused at once, nothing is allocated
        code, out, err = run_cli(capsys, "--horizon", "1e15", "benford", "--synthetic", "r=1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "does not fit in memory" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "source, signal",
        [
            (["--matrix", "gen.json"], ["--observable", "obs.json", "--norm", "max"]),
            (["--synthetic", "r=1,k=0,modes=0:1"], ["--norm", "max"]),
            (["--signal-csv", "signal.csv"], ["--observable", "obs.json"]),
        ],
        ids=["matrix-observable-and-norm", "synthetic-norm", "csv-observable"],
    )
    def test_signal_option_without_matrix_or_twice_exit_2(self, capsys, tmp_path, monkeypatch, source, signal):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gen.json").write_text("[[1, -3.141592653589793], [3.141592653589793, 1]]")
        (tmp_path / "obs.json").write_text("[[1, 0], [0, 0]]")
        (tmp_path / "signal.csv").write_text("\n".join(f"{i},{math.exp(i * 0.01)}" for i in range(200)))
        code, out, err = run_cli(capsys, "--horizon", "1000", "benford", *source, *signal)
        assert code == EXIT_USAGE
        assert out == ""
        assert "error: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, part",
        [("banana", "banana"), ("r=1,mode=0:1", "mode=0:1"), ("r=1,r=2", "r=2"), ("r=1,2:0.5", "2:0.5"), ("", "")],
    )
    def test_malformed_synthetic_spec_names_part_exit_2(self, capsys, spec, part):
        code, out, err = run_cli(capsys, "--horizon", "1000", "benford", "--synthetic", spec)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"unexpected {part!r}" in err


class TestExampleCommand:
    def test_known_example_passes(self, capsys):
        code, out, _ = run_cli(capsys, "example", "ex-3-12")
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["passed"] is True

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "example", "ex-9-99")
        assert code == EXIT_USAGE
        assert "ex-3-14" in err  # the error lists known ids

    def test_expectation_failure_exit_4(self, capsys, tmp_path):
        # absurd thresholds force a conformant signal into FAIL territory
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"thresholds": {"distance": 1e-9, "weyl_multiplier": 1e-9}}))
        code, out, _ = run_cli(capsys, "--config", str(config), "example", "ex-3-4-i")
        assert code == EXIT_EXPECTATION
        assert json.loads(out)["passed"] is False

    def test_csv_format_prints_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "example", "ex-3-8")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True


class TestCensusCommand:
    def test_gaussian_census(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--dim", "3", "--n", "200", "--dist", "gaussian", "--tol", "1e-8"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["n"] == 200
        assert report["imaginary_axis_hits"] == 0

    def test_integer_census_has_hits(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--dim", "2", "--n", "300", "--dist", "int1")
        assert code == EXIT_OK
        assert json.loads(out)["imaginary_axis_hits"] > 0

    def test_height_cap_exit_2(self, capsys):
        # no row of a 1x1 Gaussian block reaches the scan; the cap is checked up front
        code, out, err = run_cli(capsys, "census", "--dim", "1", "--n", "3", "--height", "2000000")
        assert code == EXIT_USAGE
        assert out == "" and err == "error: height is unreasonably large for a numeric scan\n"

    def test_zero_samples_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "census", "--dim", "2", "--n", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "nan"], ["--tol", "inf"], ["--dist", f"int{2**63}"]],
        ids=["tol-nan", "tol-inf", "int-bound-2^63"],
    )
    def test_unusable_tolerance_or_bound_exit_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "census", "--dim", "2", "--n", "3", *flags)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")

    def test_determinism_byte_identical(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            code = main(
                ["--seed", "33", "--out", str(out), "census", "--dim", "2", "--n", "100"]
            )
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "csv", "census", "--dim", "2", "--n", "50"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("n,imaginary_axis_hits")

    def test_csv_row_matches_json(self, capsys):
        argv = ("census", "--dim", "2", "--n", "50")
        _, table, _ = run_cli(capsys, "--format", "csv", *argv)
        _, text, _ = run_cli(capsys, *argv)
        report = json.loads(text)
        header, row = csv.reader(table.splitlines())
        assert header == list(report)
        assert row == [str(v) for v in report.values()]


class TestConfigFile:
    def test_config_overrides_defaults(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"horizon": 1500.0, "step": 0.05, "base": 2}))
        code, out, _ = run_cli(
            capsys, "--config", str(config), "benford", "--synthetic", "r=1,k=0,modes=0:1"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["base"] == 2
        assert report["horizon"] == 1500.0

    def test_cli_flag_beats_config(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"base": 2}))
        code, out, _ = run_cli(
            capsys,
            "--config",
            str(config),
            "--base",
            "10",
            "--horizon",
            "1000",
            "benford",
            "--synthetic",
            "r=1,k=0,modes=0:1",
        )
        assert json.loads(out)["base"] == 10

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"horzon": 1.0}))
        code, _, err = run_cli(capsys, "--config", str(config), "example", "ex-3-8")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"base": "10"}, ["example", "ex-3-8"]),
            ({"horizon": "1e4"}, ["example", "ex-3-8"]),
            ({"weyl_k": 2.5}, ["example", "ex-3-8"]),
            ({"thresholds": {"distance": "x"}}, ["example", "ex-3-8"]),
            ({"thresholds": {"zero_rel": -1}}, ["example", "ex-3-8"]),
            ({"thresholds": {"zero_rel": 1.5}}, ["example", "ex-3-8"]),
            ({"tolerances": {"eigen_cluster": 0}}, ["example", "ex-3-8"]),
            (None, ["--horizon", "inf", "example", "ex-3-8"]),
            (None, ["--seed", "-1", "census", "--dim", "2", "--n", "5"]),
            (None, ["--seed", "-1", "example", "ex-3-9"]),
        ],
        ids=[
            "base-str", "horizon-str", "weyl_k-float", "distance-str", "zero_rel-negative",
            "zero_rel-above-1", "eigen_cluster-zero", "horizon-inf", "seed-negative-census", "seed-negative-ex-3-9",
        ],
    )
    def test_malformed_config_exit_2(self, capsys, tmp_path, config, flags):
        argv = list(flags)
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path), *argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    def test_unknown_tolerance_key_exit_2(self, capsys, tmp_path):
        # jordan_index's rank cutoff is a constant, not a setting
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tolerances": {"rank": 0.9}}))
        matrix = tmp_path / "m.csv"
        matrix.write_text("1,0\n0,2\n")
        code, _, err = run_cli(capsys, "--config", str(config), "analyze-matrix", str(matrix))
        assert code == EXIT_USAGE
        assert "unknown tolerances keys ['rank']" in err


class TestDataIO:
    def test_monomial_label_parsing(self):
        assert parse_monomial_label("1") == Monomial()
        assert parse_monomial_label("pi*ln10^-1") == Monomial.of(pi=1, ln10=-1)
        assert parse_monomial_label("pi^2") == Monomial.of(pi=2)
        with pytest.raises(UsageError):
            parse_monomial_label("pi^x")

    def test_fixture_annotations_parse(self):
        for name in (
            "ex-3-14-phi.json",
            "ex-3-14-psi.json",
            "ex-3-5.json",
            "ex-3-9.json",
            "ex-3-12-reversed.json",
        ):
            data = json.loads(fixture_text(name))
            zs = parse_exact_spectrum(data["exact_spectrum"])
            assert len(zs) == len(data["matrix"])
            # numeric check: annotation values match the float eigenvalues
            eigs = sorted(np.linalg.eigvals(np.array(data["matrix"])), key=lambda z: (round(z.real, 9), z.imag))
            annotated = sorted((z.value() for z in zs), key=lambda z: (round(z.real, 9), z.imag))
            for e, a in zip(eigs, annotated):
                assert abs(e - a) < 1e-9, name

    def test_unknown_fixture_lists_available(self):
        with pytest.raises(UsageError, match="available"):
            fixture_text("nope.json")

    @pytest.mark.parametrize("text", ["", " \n\n\t\n"])
    def test_empty_csv_matrix_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        code, _, err = run_cli(capsys, "analyze-matrix", str(path))
        assert code == EXIT_USAGE
        assert "empty matrix file" in err

    def test_load_matrix_object_form(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 2.0]]}))
        matrix, annotation = load_matrix(path)
        assert matrix.tolist() == [[1.0, 0.0], [0.0, 2.0]]
        assert annotation is None


ANNOTATED = {"matrix": [[1.0, 0.0], [0.0, 2.0]]}
ONE_TWO = [{"re": {"1": 1}}, {"re": {"1": 2}}]
ROTATION = [[0.0, -2.0], [2.0, 0.0]]  # spectrum +-2i, on the imaginary axis


def rotation_annotation(re: dict, **fields) -> dict:
    """[[0, -2], [2, 0]] annotated as re +- 2i over the given symbols and atoms."""
    eigenvalues = [{"re": re, "im": {"1": "2"}}, {"re": re, "im": {"1": "-2"}}]
    return {"matrix": ROTATION, "exact_spectrum": {**fields, "eigenvalues": eigenvalues}}


# z = ln 10 under a second name: both annotations below read "resonant": false
# when z and ln 10 are assumed independent, and both spectra are resonant
LN10_AS_Z = {"z": 2.302585092994046}
# z +- i pi, where ln 10 enters through the base only: Re = (ln 10 / pi) Im
SPIRAL_LN10 = {
    "matrix": [[LN10_AS_Z["z"], -math.pi], [math.pi, LN10_AS_Z["z"]]],
    "exact_spectrum": {
        "symbols": ["z", "pi"], "atoms": LN10_AS_Z,
        "eigenvalues": [{"re": {"z": "1"}, "im": {"pi": "1"}}, {"re": {"z": "1"}, "im": {"pi": "-1"}}],
    },
}


@pytest.mark.parametrize(
    "name, content, argv, message",
    [
        ("cfg.json", {"step": 20000}, ["--config", "{}", "example", "ex-3-8"], "need 0 < step < horizon"),
        ("cfg.json", {"weyl_k": 0}, ["--config", "{}", "example", "ex-3-8"], "weyl_k must be >= 1"),
        ("cfg.json", {"output_format": "xml"}, ["--config", "{}", "example", "ex-3-8"], "unknown output format 'xml'"),
        ("cfg.json", [1, 2], ["--config", "{}", "example", "ex-3-8"], "expected a JSON object"),
        ("cfg.json", {"thresholds": 5}, ["--config", "{}", "example", "ex-3-8"], "thresholds must be an object"),
        ("m.json", {"foo": [[1]]}, ["analyze-matrix", "{}"], "needs a 'matrix' key"),
        ("m.json", [["a", 1], [1, 1]], ["analyze-matrix", "{}"], "matrix entries must be numbers"),
        ("m.csv", "1,2\n3,x\n", ["analyze-matrix", "{}"], "line 2: non-numeric entry"),
        ("m.csv", "1,2\n3\n", ["analyze-matrix", "{}"], "m.csv: line 2: 1 entries, the first row has 2"),
        ("m.csv", "1,2\n3\n", ["benford", "--matrix", "{}"], "m.csv: line 2: 1 entries, the first row has 2"),
        # ln1 = 0 and ln010 = ln10 are no stock atoms: as atoms they would be assumed
        # independent, and the spectrum +-2i would read nonresonant
        ("m.json", rotation_annotation({"ln1": "1"}, symbols=["ln1"]), ["analyze-matrix", "{}"],
         "atom 'ln1' needs a numeric value"),
        ("m.json", rotation_annotation({"ln10": "1", "ln010": "-1"}, symbols=["ln10", "ln010"]), ["analyze-matrix", "{}"],
         "atom 'ln010' needs a numeric value"),
        ("m.json", rotation_annotation({"ln1^-1": "1"}, symbols=["ln1^-1"]), ["analyze-matrix", "{}"],
         "atom 'ln1' needs a numeric value"),
        ("m.json", rotation_annotation({"z^-1": "1"}, symbols=["z^-1"], atoms={"z": 0}), ["analyze-matrix", "{}"],
         "atom 'z' has the value 0"),
        ("m.json", rotation_annotation({"ln10": "1", "z": "-1"}, symbols=["ln10", "z"], atoms=LN10_AS_Z),
         ["analyze-matrix", "{}"], "atoms 'ln10' and 'z' have the same value 2.302585092994046"),
        ("m.json", SPIRAL_LN10, ["analyze-matrix", "{}"], "atoms 'ln10' and 'z' have the same value 2.302585092994046"),
        # ln2 is valued by its name: declared as 5, re = ln2 - 5 would read nonzero and +-2i nonresonant
        ("m.json", rotation_annotation({"ln2": "1", "1": "-5"}, symbols=["ln2"], atoms={"ln2": 5}),
         ["analyze-matrix", "{}"], "stock atom 'ln2' is 0.6931471805599453 by its name"),
        ("s.csv", "1\n2\n", ["benford", "--signal-csv", "{}"], "line 1: expected two columns"),
        ("s.csv", "t,value\n", ["benford", "--signal-csv", "{}"], "no data rows"),
        ("s.csv", "".join(f"{i},{'nan' if i == 7 else 1.5}\n" for i in range(200)), ["benford", "--signal-csv", "{}"],
         "signal values must be finite"),
        ("m.json", {**ANNOTATED, "exact_spectrum": {"symbols": ["pi**2"], "eigenvalues": ONE_TWO}}, ["analyze-matrix", "{}"],
         "bad symbol label 'pi**2'"),
        ("m.json", {**ANNOTATED, "exact_spectrum": {"eigenvalues": [5]}}, ["analyze-matrix", "{}"],
         "each eigenvalue must be an object"),
        ("m.json", {**ANNOTATED, "exact_spectrum": {"eigenvalues": [{"re": 5}, {"re": {"1": 2}}]}}, ["analyze-matrix", "{}"],
         "eigenvalue coordinates must be objects"),
    ],
    ids=[
        "config-step-above-horizon", "config-weyl_k-0", "config-format-xml", "config-list", "config-thresholds-int",
        "matrix-no-key", "matrix-str-entry", "matrix-csv-str-entry", "matrix-csv-ragged", "benford-matrix-csv-ragged",
        "annotation-ln1", "annotation-ln010", "annotation-ln1-inverse", "annotation-zero-atom",
        "annotation-atom-equal-to-a-stock-atom", "annotation-atom-equal-to-ln-b", "annotation-stock-atom-redeclared",
        "signal-one-column", "signal-header-only",
        "signal-nan", "annotation-pi**2", "annotation-eigenvalue-int", "annotation-re-int",
    ],
)
def test_refused_input_exit_2(capsys, tmp_path, name, content, argv, message):
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, err = run_cli(capsys, *(arg.format(path) for arg in argv))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_real_rank_branch_note_is_reported(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, -3e-8], [0, 0, 3e-8, 1]]))
    code, out, _ = run_cli(capsys, "analyze-matrix", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["notes"] == ["eigenvalue (1+0j): real rank branch chosen with |Im| <= 2e-08"]


def test_rotation_without_atoms_is_resonant(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rotation_annotation({})))
    code, out, _ = run_cli(capsys, "analyze-matrix", str(path))
    assert code == EXIT_OK
    exact = json.loads(out)["exact"]
    assert exact["resonant"] and exact["witness"]["kind"] == "zero-real-part"


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "benflow.cli", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "benflow" in result.stdout
