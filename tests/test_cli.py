"""Command-line contract tests: outputs, formats, exit codes."""

import csv
import io
import json
import math
from fractions import Fraction

import pytest

from confrac import convergents
from confrac.cli import TABLE_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_rational_exact_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "symmetric-binomial",
            "--n", "2", "--arg", "1/3", "--mode", "rational",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "10/9"
        assert payload["terminated"] is True
        assert payload["converged"] is True

    def test_lentz_arctan(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "arctan", "--arg", "1",
            "--method", "lentz", "--tol", "1e-12",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - math.pi / 4) < 1e-12
        assert payload["converged"] is True

    def test_domain_error_names_the_precondition(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--family", "log-ratio", "--arg", "1.5")
        assert code == 1
        assert out == ""
        assert "|z| < 1" in err

    def test_nonconvergence_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "arctan", "--arg", "1",
            "--tol", "1e-30", "--depth", "5",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["depth_used"] == 5

    def test_overflow_to_infinity_exits_two(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "arctan", "--arg", "1e10")
        assert code == 2
        assert '"converged": false' in out

    def test_backward_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "coth-scaled", "--arg", "1",
            "--method", "backward", "--depth", "25",
        )
        assert code == 0
        payload = json.loads(out)
        want = (math.e**2 + 1) / (math.e**2 - 1)
        assert abs(payload["value"] - want) < 1e-13

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "coth-scaled", "--arg", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,depth_used,converged,terminated,residual"
        cells = lines[1].split(",")
        assert float(cells[0]) == pytest.approx((math.e**2 + 1) / (math.e**2 - 1), rel=1e-12)
        assert cells[2] == "true"

    def test_rational_backward(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "lagrange-binomial", "--n", "-1", "--arg", "1/3",
            "--mode", "rational", "--method", "backward", "--depth", "10",
        )
        assert code == 0
        assert json.loads(out)["value"] == "3/4"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--family", "bogus", "--arg", "1"),
            ("eval", "--family", "arctan", "--arg", "1", "--mode", "rational", "--method", "lentz"),
            ("eval", "--family", "arctan", "--arg", "1", "--method", "backward"),
            ("eval", "--family", "arctan"),
            ("eval", "--arg", "1"),
            ("eval", "--family", "symmetric-binomial", "--n", "2", "--arg", "0.5", "--mode", "rational"),
            ("eval", "--family", "symmetric-binomial", "--arg", "1/3", "--mode", "rational"),
            ("eval", "--family", "arctan", "--n", "2", "--arg", "1"),
            ("table", "--family", "arctan", "--arg", "1"),
            ("compare", "--family", "arctan", "--arg", "1"),
            ("eval", "--family", "arctan", "--arg", "1", "--depth", "0"),
            ("eval", "--family", "arctan", "--arg", "1", "--tol", "-1"),
            ("eval", "--family", "arctan", "--arg", "1", "--tol", "nan"),
            ("eval", "--family", "arctan", "--arg", "1", "--abs-tol", "inf"),
            ("eval", "--family", "arctan", "--arg", "1", "--output", "/nonexistent/dir/x"),
        ],
    )
    def test_exit_code_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")


class TestTable:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "coth-scaled", "--arg", "1", "--depth", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == TABLE_HEADER == "k,p,q,value,abs_err,rel_err"
        assert len(lines) == 12  # header plus convergents 0..10

    def test_relative_error_shrinks(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--family", "coth-scaled", "--arg", "1", "--depth", "10")
        rows = list(csv.DictReader(io.StringIO(out)))
        errs = [float(r["rel_err"]) for r in rows]
        assert all(b <= a for a, b in zip(errs[1:], errs[2:]))

    def test_terminating_family_emits_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "symmetric-binomial", "--n", "1", "--arg", "1/3",
            "--mode", "rational", "--depth", "10",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["k"] == "0" and float(rows[0]["value"]) == 1.0

    def test_depth_zero_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "arctan", "--arg", "1", "--depth", "0",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1 and rows[0]["k"] == "0"

    def test_csv_round_trips_to_full_precision(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--family", "tan", "--arg", "1", "--depth", "12")
        rows = list(csv.DictReader(io.StringIO(out)))
        from confrac import tan_cf

        convs = convergents(tan_cf(1.0), 12)
        assert len(rows) == len(convs)
        for row, conv in zip(rows, convs):
            assert float(row["value"]) == conv.value
            assert float(row["p"]) == conv.p and float(row["q"]) == conv.q

    def test_exact_fraction_text_in_rational_mode(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "--family", "symmetric-binomial", "--n", "3", "--arg", "1/2",
            "--mode", "rational", "--depth", "5",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        last = rows[-1]
        assert Fraction(last["p"]) / Fraction(last["q"]) == Fraction(21, 13)
        assert float(last["rel_err"]) == 0.0

    def test_complex_mode_has_no_error_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "symmetric-binomial", "--n", "5/2", "--arg", "0.4j",
            "--mode", "complex", "--depth", "5",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(r["abs_err"] == "" and r["rel_err"] == "" for r in rows)

    def test_json_mirrors_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "coth-scaled", "--arg", "1", "--depth", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"family", "params", "rows"}
        assert payload["family"] == "coth-scaled"
        assert list(payload["rows"][0]) == TABLE_HEADER.split(",")
        assert len(payload["rows"]) == 5


class TestCompare:
    def test_tan_reaches_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--family", "tan", "--arg", "1", "--depth", "30")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 30
        assert float(rows[-1]["rel_err"]) < 1e-12

    def test_arctan_reaches_tolerance(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--family", "arctan", "--arg", "1", "--depth", "50")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[-1]["rel_err"]) < 1e-12

    def test_terminated_exact_rows_have_zero_error(self, capsys):
        _, out, _ = run_cli(
            capsys, "compare", "--family", "symmetric-binomial", "--n", "3", "--arg", "1/2",
            "--mode", "rational", "--depth", "8",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["rel_err"]) > 0
        for row in rows[1:]:
            assert row["rel_err"] == "0"

    def test_no_oracle_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--family", "symmetric-binomial", "--n", "5/2", "--arg", "0.4j",
            "--mode", "complex", "--depth", "10",
        )
        assert code == 1
        assert err.startswith("error:")


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert ", 0 failed" in out.strip().splitlines()[-1]

    def test_only_subset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "n-negation")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(" n-negation: " in line for line in lines[:-1])

    def test_rational_termination_checks_are_exact(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "termination", "--mode", "rational")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) > 1
        assert all("error=0.00e+00" in line for line in lines[:-1])

    def test_unknown_group_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "bogus")
        assert code == 1
        assert "known groups" in err


class TestOutputFile:
    def test_eval_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "eval", "--family", "arctan", "--arg", "1", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert abs(payload["value"] - math.pi / 4) < 1e-11

    def test_table_file_has_lf_line_endings(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys, "table", "--family", "coth-scaled", "--arg", "1", "--depth", "3",
            "--output", str(target),
        )
        assert code == 0
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"k,p,q,value,abs_err,rel_err\n")
