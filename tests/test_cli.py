"""Command-line contract tests: outputs, formats, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import confrac
from confrac import Family, convergents
from confrac.cli import TABLE_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


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
        payload = strict_json(out)
        assert code == 2
        assert payload["converged"] is False and payload["terminated"] is False
        assert payload["value"] in ("inf", "-inf", "nan")
        assert payload["depth_used"] == 1

    @pytest.mark.parametrize(
        "argv, depth_used",
        [
            (("--family", "coth-scaled", "--arg", "1e160"), 1),
            (("--family", "lagrange-binomial", "--n", "3", "--arg", "1e10"), None),
            (("--family", "uniform-binomial", "--n", "3", "--arg", "1e160",
              "--method", "convergents"), None),
        ],
        ids=["coth-scaled", "lagrange-binomial", "uniform-binomial"],
    )
    def test_non_finite_value_exits_two_with_strict_json(self, capsys, argv, depth_used):
        code, out, _ = run_cli(capsys, "eval", *argv)
        payload = strict_json(out)
        assert code == 2
        assert payload["converged"] is False and payload["terminated"] is False
        assert payload["value"] in ("inf", "-inf", "nan")
        if depth_used is not None:
            assert payload["depth_used"] == depth_used

    @pytest.mark.parametrize("method", ["convergents", "backward"])
    def test_pole_before_the_cap_is_skipped(self, capsys, method):
        # convergent 2 of lagrange n=3 at x=1 is a pole; convergent 3 is 8.5
        code, out, _ = run_cli(
            capsys, "eval", "--family", "lagrange-binomial", "--n", "3", "--arg", "1",
            "--method", method, "--depth", "3",
        )
        payload = strict_json(out)
        assert code == 2
        assert payload["value"] == pytest.approx(8.5, rel=1e-15)
        assert payload["depth_used"] == 3 and payload["residual"] == "inf"

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("mode", ["float", "complex"])
    @pytest.mark.parametrize("method", ["lentz", "convergents", "backward"])
    def test_contract_matrix(self, capsys, family, mode, method):
        argv = ["eval", "--family", family.value, "--arg", "0.3", "--mode", mode,
                "--method", method]
        if family.takes_n:
            argv += ["--n", "5/2"]
        if method == "backward":
            argv += ["--depth", "30"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert strict_json(out)["converged"] is True

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

    def test_rational_backward_through_an_inner_zero(self, capsys):
        argv = ["eval", "--family", "tan-multiple", "--n", "10", "--arg", "1/3",
                "--mode", "rational", "--depth", "5"]
        code, out, _ = run_cli(capsys, *argv, "--method", "backward")
        assert code == 2
        payload = strict_json(out)
        assert payload["value"] == "13/192" and payload["residual"] == 1.0
        _, forward, _ = run_cli(capsys, *argv, "--method", "convergents")
        assert strict_json(forward) == payload


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
            ("eval", "--family", "lagrange-binomial", "--n", "1e400", "--arg", "0.5"),
            ("eval", "--family", "symmetric-binomial", "--n", "1e200", "--arg", "0.5"),
            ("table", "--family", "tan-multiple", "--n", "1e300", "--arg", "0.5", "--depth", "2"),
            ("table", "--family", "coth-scaled", "--arg", "1" + "0" * 400, "--mode", "rational",
             "--depth", "1"),
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

    def test_exact_text_past_the_int_digit_limit(self, capsys):
        # p and q of the last row have over 9000 digits, more than the
        # interpreter's default limit for int-to-text conversion.
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(
            capsys, "table", "--family", "arctan", "--arg", f"1/{10**80}",
            "--mode", "rational", "--depth", "60",
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        last = list(csv.DictReader(io.StringIO(out)))[-1]
        want = convergents(confrac.arctan_cf(Fraction(1, 10**80)), 60)[-1]
        for column, value in (("p", want.p), ("q", want.q)):
            num, _, den = last[column].partition("/")
            assert value.numerator > 10**limit
            assert (int(Decimal(num)), int(Decimal(den or "1"))) == (value.numerator, value.denominator)

    def test_complex_mode_has_no_error_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "symmetric-binomial", "--n", "5/2", "--arg", "0.4j",
            "--mode", "complex", "--depth", "5",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(r["abs_err"] == "" and r["rel_err"] == "" for r in rows)

    def test_non_finite_cells_are_json_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "arctan", "--arg", "1e300", "--depth", "3",
            "--format", "json",
        )
        assert code == 0
        rows = strict_json(out)["rows"]
        assert rows[-1]["value"] == rows[-1]["abs_err"] == rows[-1]["rel_err"] == "nan"

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

    def test_check_suite_loads_on_first_use(self):
        # a fresh interpreter: this one has confrac.verify loaded already
        child = (
            "import sys, confrac.cli\n"
            "for command in ('eval', 'table', 'compare'):\n"
            "    confrac.cli.main([command, '--family', 'arctan', '--arg', '0.5', '--depth', '3'])\n"
            "assert 'confrac.verify' not in sys.modules, 'imported before use'\n"
            "from confrac import CheckResult, run_checks\n"
            "assert run_checks.__module__ == CheckResult.__module__ == 'confrac.verify'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(confrac.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


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
