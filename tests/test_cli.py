"""Command-line contract tests: outputs, formats, exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import confrac
from confrac import EvalReport, Family, convergents, nearly_equal
from confrac.cli import TABLE_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestEvalSchema:
    """eval's columns are EvalReport's fields, in order, in CSV and JSON and in every mode."""

    @pytest.mark.parametrize("argv", [
        ("--family", "arctan", "--arg", "1"),
        ("--family", "symmetric-binomial", "--n", "5/2", "--arg", "1/5", "--mode", "rational"),
        ("--family", "symmetric-binomial", "--n", "0.77", "--arg", "0.5j", "--mode", "complex"),
    ], ids=["float", "rational", "complex"])
    def test_header_and_keys_are_the_report_fields(self, capsys, argv):
        names = [f.name for f in fields(EvalReport)]
        code, out, _ = run_cli(capsys, "eval", *argv, "--format", "csv")
        header, row = out.splitlines()
        assert code == 0 and header.split(",") == names and len(row.split(",")) == len(names)
        code, out, _ = run_cli(capsys, "eval", *argv, "--format", "json")
        assert code == 0 and list(strict_json(out)) == names


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_lentz_stand_in_is_counted(self, capsys, fmt):
        # (1+4)^1.5: the walk meets one exact zero, and the Lentz iteration takes the stand-in once
        code, out, _ = run_cli(
            capsys, "eval", "--family", "lagrange-binomial", "--n", "1.5", "--arg", "4",
            "--method", "lentz", "--format", fmt,
        )
        assert code == 0
        if fmt == "json":
            payload = strict_json(out)
            assert payload["value"] == 11.180339887501884 and payload["tiny_substitutions"] == 1
            assert payload["depth_used"] == 30 and payload["converged"] is True
        else:
            header, row = out.splitlines()
            assert header.endswith(",tiny_substitutions")
            assert row == "11.180339887501884,30,true,false,8.5780492117622449e-13,1"
        # (1+1)^3 ends within the cap: its law answers, and no Lentz step runs to take a stand-in
        code, out, _ = run_cli(
            capsys, "eval", "--family", "lagrange-binomial", "--n", "3", "--arg", "1",
            "--method", "lentz", "--format", "json",
        )
        payload = strict_json(out)
        assert code == 0 and payload["value"] == 8.0 and payload["tiny_substitutions"] == 0
        assert payload["terminated"] is True

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
        # a_2 = t² overflows at level 2
        code, out, _ = run_cli(capsys, "eval", "--family", "arctan", "--arg", "1e300")
        payload = strict_json(out)
        assert code == 2
        assert payload["converged"] is False and payload["terminated"] is False
        assert payload["value"] in ("inf", "-inf", "nan")
        assert payload["depth_used"] == 2

    def test_overflow_past_a_rescale_exits_two(self, capsys, monkeypatch):
        # 1 + 1e300/1e-300 overflows; a rescale that flushed q_1 to 0.0
        # made this a pole (exit 1) instead of a non-finite value
        stream = confrac.CFStream.from_terms(1.0, [(1e300, 1e-300)])
        monkeypatch.setattr(confrac.FamilySpec, "stream", lambda spec: stream)
        code, out, _ = run_cli(capsys, "eval", "--family", "coth-scaled", "--arg", "1",
                               "--method", "convergents")
        payload = strict_json(out)
        assert code == 2
        assert payload["value"] == "inf" and payload["converged"] is False
        assert payload["depth_used"] == 1

    @pytest.mark.parametrize(
        "argv, value, depth_used, terminated",
        [
            (("--family", "tan-multiple", "--n", "1/1000000000000000", "--arg", "1"),
             7.8539816339742654e-16, 18, False),
            (("--family", "tan", "--arg", "3.141592653589793"), -4.431535901171005e-17, 22, False),
            (("--family", "tan-multiple", "--n", "1", "--arg", "1e9"), 1e9, 1, True),
            # t² underflows to 0.0, but the law's numerator 1 is no termination
            (("--family", "arctan", "--arg", "1e-300"), 1e-300, 2, False),
        ],
        ids=["tan-multiple-small-n", "tan-pi", "tan-multiple-1e9", "arctan-1e-300"],
    )
    def test_small_and_large_values_under_the_default_tolerance(self, capsys, argv, value,
                                                                depth_used, terminated):
        # the stopping test is relative only, and Lentz needs no stand-in
        # for b0 = 0: each of these once stopped early or overflowed
        code, out, _ = run_cli(capsys, "eval", *argv)
        payload = strict_json(out)
        assert code == 0
        assert payload["value"] == value and payload["depth_used"] == depth_used
        assert payload["terminated"] is terminated and payload["converged"] is True
        assert payload["terminated"] or payload["residual"] <= 1e-12

    def test_step_to_zero_is_not_convergence(self, capsys):
        # (1 + -1)^(5/2) = 0: no relative step from a nonzero value to 0 is small
        code, out, _ = run_cli(capsys, "eval", "--family", "uniform-binomial", "--n", "5/2",
                               "--arg", "-1")
        payload = strict_json(out)
        assert code == 2
        assert payload["converged"] is False and payload["residual"] > 1e-12

    @pytest.mark.parametrize(
        "argv, depth_used",
        [
            (("--family", "coth-scaled", "--arg", "1e160"), 1),
            (("--family", "uniform-binomial", "--n", "3", "--arg", "1e160",
              "--method", "convergents"), None),
        ],
        ids=["coth-scaled", "uniform-binomial"],
    )
    def test_non_finite_value_exits_two_with_strict_json(self, capsys, argv, depth_used):
        code, out, _ = run_cli(capsys, "eval", *argv)
        assert code == 2
        payload = strict_json(out)
        assert payload["converged"] is False and payload["terminated"] is False
        assert payload["value"] in ("inf", "-inf", "nan")
        if depth_used is not None:
            assert payload["depth_used"] == depth_used

    @pytest.mark.parametrize(
        "n, method, k",
        [("2", "lentz", 2), ("-2", "lentz", 2), ("10", "lentz", 10),
         ("2", "convergents", 2), ("2", "backward", 2), ("10", "backward", 10)],
    )
    def test_pole_at_the_value_exits_one_on_every_route(self, capsys, n, method, k):
        # tan(n·pi/4) is a pole; each route hands the stopping rule the same marker
        code, out, err = run_cli(capsys, "eval", "--family", "tan-multiple", "--n", n,
                                 "--arg", "1", "--method", method, "--depth", "12")
        assert code == 1 and out == ""
        assert err == f"error: convergent {k}, the value to report, is a pole (q = 0)\n"

    @pytest.mark.parametrize("method", ["lentz", "convergents", "backward"])
    def test_terminated_float_walk_reports_the_exact_power(self, capsys, method):
        # float cancellation loses every digit of (1 + 1e10)^3 on every route
        code, out, _ = run_cli(capsys, "eval", "--family", "lagrange-binomial", "--n", "3",
                               "--arg", "1e10", "--method", method, "--depth", "12")
        payload = strict_json(out)
        assert code == 0
        assert payload["value"] == (1 + 1e10) ** 3 == 1.0000000003e30
        assert payload["terminated"] is True and payload["converged"] is True

    @pytest.mark.parametrize("method", ["lentz", "convergents", "backward"])
    @pytest.mark.parametrize("family, n, arg, depth, want", [
        ("lagrange-binomial", "400", "0.3", "1000", 3.7786870282334686e45),
        ("uniform-binomial", "-400", "0.3", "1000", 2.6464218722752986e-46),
        ("lagrange-binomial", "3", "1e100", "12", 1e300),
    ], ids=["lagrange-400", "uniform-minus-400", "lagrange-3-at-1e100"])
    def test_law_that_ends_reports_the_exact_power(self, capsys, method, family, n, arg,
                                                    depth, want):
        # the walk is not stopped on agreement, and the exact fold reads the law at
        # the binary value of arg, not the rounded coefficients
        code, out, _ = run_cli(capsys, "eval", "--family", family, "--n", n, "--arg", arg,
                               "--method", method, "--depth", depth)
        payload = strict_json(out)
        assert code == 0
        assert payload["value"] == want == float((1 + Fraction(float(arg))) ** int(n))
        assert payload["terminated"] is True and payload["converged"] is True

    @pytest.mark.parametrize("method", ["lentz", "convergents", "backward"])
    def test_law_that_ends_is_walked_past_an_overflowed_value(self, capsys, method):
        # 1 + 8z²/(3 + 5z²/5): 8z² overflows at z = 1e160, the law's exact value rounds to 9
        code, out, _ = run_cli(capsys, "eval", "--family", "symmetric-binomial", "--n", "3",
                               "--arg", "1e160", "--method", method, "--depth", "12")
        payload = strict_json(out)
        assert code == 0 and payload["value"] == 9.0 and payload["depth_used"] == 2
        assert payload["terminated"] is True and payload["converged"] is True

    def test_law_capped_past_an_overflowed_value_exits_two(self, capsys):
        # the law's zero, level 30, lies past the cap: the walk stops at the first nan
        code, out, _ = run_cli(capsys, "eval", "--family", "symmetric-binomial", "--n", "30",
                               "--arg", "1e160", "--depth", "10")
        payload = strict_json(out)
        assert code == 2 and payload["depth_used"] == 1 and payload["value"] == "nan"
        assert payload["converged"] is False and payload["terminated"] is False

    def test_law_capped_before_its_zero_exits_two(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "lagrange-binomial", "--n", "400",
                               "--arg", "0.3", "--depth", "150")
        payload = strict_json(out)
        assert code == 2 and payload["depth_used"] == 150
        assert payload["converged"] is False and payload["terminated"] is False

    def test_fraction_text_in_float_mode(self, capsys):
        _, exact_text, _ = run_cli(capsys, "eval", "--family", "arctan", "--arg", "1/3")
        _, decimal_text, _ = run_cli(capsys, "eval", "--family", "arctan",
                                     "--arg", "0.3333333333333333")
        assert strict_json(exact_text) == strict_json(decimal_text)

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
        assert lines[0] == "value,depth_used,converged,terminated,residual,tiny_substitutions"
        cells = lines[1].split(",")
        assert cells[5] == "0"
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


class TestBinomialAnswers:
    """A float binomial answer is right within the default tol, or the command exits 2 (not converged)."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("argv, want", [  # (1+x)^n by mpmath at 40 digits, as literals: CI has no mpmath
        (("lagrange-binomial", "--n", "20.5", "--arg", "10"), 2.2312593109047982e21),
        (("uniform-binomial", "--n=-40.5", "--arg", "2"), 4.748858003487216e-20),
        (("uniform-binomial", "--n", "134.7", "--arg", "0.3"), 2.2293053369750287e15),
        (("uniform-binomial", "--n=-4.21", "--arg", "8155.57"), 3.408420275487959e-17),
    ], ids=["lagrange-20.5-10", "uniform--40.5-2", "uniform-134.7-0.3", "uniform--4.21-8155.57"])
    def test_right_or_not_converged(self, capsys, argv, want):
        code, out, _ = run_cli(capsys, "eval", "--family", *argv)
        assert code == 2 or code == 0 and nearly_equal(json.loads(out)["value"], want)


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
            ("eval", "--family", "arctan", "--arg", "1", "--tol", "inf"),
            ("eval", "--family", "arctan", "--arg", "1", "--output", "/nonexistent/dir/x"),
            ("eval", "--family", "lagrange-binomial", "--n", "1e400", "--arg", "0.5"),
            ("eval", "--family", "symmetric-binomial", "--n", "1e200", "--arg", "0.5"),
            ("table", "--family", "tan-multiple", "--n", "1e300", "--arg", "0.5", "--depth", "2"),
            ("table", "--family", "coth-scaled", "--arg", "1" + "0" * 400, "--mode", "rational",
             "--depth", "1"),
            (),
            ("bogus",),
            ("eval", "--family", "arctan", "--arg", "1", "--mode", "bogus"),
            ("eval", "--family", "arctan", "--arg", "1", "--depth", "x"),
            ("verify", "--only"),
            ("eval", "--family", "arctan", "--arg", "1", "--abs-tol", "1e-14"),
        ],
    )
    def test_exit_code_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("n", ["abc", "1/0"])
    def test_unparsable_exponent(self, capsys, n):
        code, _, err = run_cli(capsys, "eval", "--family", "lagrange-binomial", "--n", n,
                               "--arg", "0.5")
        assert code == 1
        assert err.startswith(f"error: cannot parse --n {n!r}")


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


class TestFloatRange:
    """Every exact number the CLI shows or reads as a double is in the float range, or the command exits 1
    with one error line naming what is past it; it was Python's untyped OverflowError text."""

    @pytest.mark.parametrize("argv, what", [
        (("compare", "--family", "lagrange-binomial", "--n", "400", "--arg", "10", "--mode", "rational",
          "--depth", "3"), "abs_err"),
        (("table", "--family", "lagrange-binomial", "--n", "400", "--arg", "10", "--mode", "rational",
          "--depth", "3"), "abs_err"),
        (("table", "--family", "coth-scaled", "--arg", "1" + "0" * 200 + "/1", "--mode", "rational", "--depth", "1"),
         "the value"),
        (("eval", "--family", "arctan", "--arg", "1" + "0" * 400 + "/1"), "--arg"),
        (("eval", "--family", "arctan", "--arg", "1" + "0" * 400 + "/3", "--mode", "complex"), "--arg"),
        (("eval", "--family", "symmetric-binomial", "--n", "1e200", "--arg", "0.5"), "level 1"),
        (("table", "--family", "tan-multiple", "--n", "1e300", "--arg", "0.5", "--depth", "2"), "level 2"),
        (("eval", "--family", "uniform-binomial", "--n", "1e400", "--arg", "0.5", "--mode", "complex"), "n"),
    ], ids=["compare-oracle", "table-error-cells", "table-value", "eval-arg", "eval-complex-arg",
            "eval-level", "table-level", "eval-n"])
    def test_a_number_past_the_float_range_exits_one(self, capsys, argv, what):
        code, out, err = run_cli(capsys, *argv)
        mode = "complex" if "complex" in argv and what != "n" else "float"
        assert (code, out) == (1, "")
        assert err == f"error: {what} is past the float range, so it has no {mode} value\n"

    @pytest.mark.parametrize("argv, value", [
        (("--family", "coth-scaled", "--arg", "400"), "400"),
        (("--family", "symmetric-binomial", "--n", "5/2", "--arg", "1e-20"), None),
        (("--family", "symmetric-binomial", "--n", "2000.5", "--arg", "0.9"), None),
        (("--family", "lagrange-binomial", "--n", "400", "--arg", "10"), None),
    ], ids=["coth-scaled", "symmetric-difference-rounds-to-0", "symmetric-overflows", "binomial-overflows"])
    def test_an_oracle_failing_in_float_arithmetic_leaves_the_error_cells_empty(self, capsys, argv, value):
        # each exited 1 with libm's message ("math range error", "float division by zero", "(34, ...)")
        code, out, _ = run_cli(capsys, "table", *argv, "--depth", "3")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 4
        assert all((r["abs_err"] == r["rel_err"] == "") is (value is None) for r in rows)
        code, out, err = run_cli(capsys, "compare", *argv, "--depth", "3")
        if value is None:
            assert (code, out) == (1, "")
            assert re.fullmatch(r"error: oracle (symmetric_lhs|binomial_power) fails in float arithmetic: .+\n", err)
        else:
            assert code == 0 and {r["oracle_value"] for r in csv.DictReader(io.StringIO(out))} == {value}

    def test_an_oracle_past_the_float_range_is_an_error_and_one_that_divides_first_a_value(self, capsys):
        # compare printed math.cos's ValueError traceback, and an oracle_value inf with rel_err nan, exit 0
        argv = ("--family", "tan-multiple", "--n", "1.5e308", "--arg", "10", "--depth", "1")
        assert run_cli(capsys, "compare", *argv) == (
            1, "", "error: n·arctan t = 1.5e+308 * arctan 10.0 is past the float range\n")
        code, out, _ = run_cli(capsys, "table", *argv)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and [(r["abs_err"], r["rel_err"]) for r in rows] == [("", "")] * 2
        code, out, _ = run_cli(capsys, "compare", "--family", "coth-scaled", "--arg", "353", "--depth", "2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and [r["oracle_value"] for r in rows] == ["353", "353"]
        assert all(math.isfinite(float(r["rel_err"])) for r in rows)

    @pytest.mark.parametrize("argv, message", [
        (("eval", "--family", "arctan", "--arg", "0.5", "--method", "backward", "--depth", "9" * 20),
         f"depth must be <= {sys.maxsize}, got {'9' * 20}"),
        (("eval", "--family", "arctan", "--arg", "0.5", "--depth", "0"), "max_depth must be >= 1, got 0"),
        (("eval", "--family", "arctan", "--arg", "0.5", "--method", "backward", "--depth", "0"),
         "depth must be >= 1, got 0"),
        (("table", "--family", "arctan", "--arg", "0.5", "--depth", "-1"), "depth must be >= 0, got -1"),
        (("compare", "--family", "arctan", "--arg", "0.5", "--depth", "0"), "--depth must be >= 1 for compare"),
        (("eval", "--family", "arctan", "--arg", "0.5", "--tol", "-1"),
         "rel_tol must be finite and nonnegative, got -1.0"),
    ], ids=["backward-past-islice", "lentz-cap", "backward-depth", "table-depth", "compare-depth", "tolerance"])
    def test_the_library_checks_counts_and_tolerances(self, capsys, argv, message):
        # a backward depth past sys.maxsize printed islice's ValueError traceback
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


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

    def test_a_failed_check_prints_its_detail_and_exits_one(self, capsys, monkeypatch):
        from confrac import verify
        failing = ("always fails", "rational", False, 1.0, 0.0, "got 1, want 2")
        monkeypatch.setattr(verify, "GROUPS", {"probe": lambda: iter([failing])})
        assert run_cli(capsys, "verify") == (1, (
            "FAIL probe: always fails [rational] error=1.00e+00 bound=0.00e+00  (got 1, want 2)\n"
            "1 checks, 1 failed\n"), "")

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

    @pytest.mark.parametrize("argv", [
        ("eval", "--family", "nope", "--arg", "1"),
        ("verify", "--only", "bogus"),
        ("eval", "--family", "tan-multiple", "--n", "2", "--arg", "1"),  # PoleError mid-run
    ], ids=["bad-family", "bad-group", "pole"])
    def test_failed_command_leaves_the_file_alone(self, tmp_path, capsys, argv):
        target = tmp_path / "out.json"
        target.write_text("earlier output\n")
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 1 and out == "" and err.startswith("error:")
        assert target.read_text() == "earlier output\n"

    def test_nonzero_codes_still_write_their_report(self, tmp_path, capsys, monkeypatch):
        from confrac import verify
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "eval", "--family", "arctan", "--arg", "1", "--depth", "5",
                               "--output", str(target))
        assert code == 2 and out == ""
        assert json.loads(target.read_text())["converged"] is False
        failing = ("always fails", "rational", False, 1.0, 0.0, "")
        monkeypatch.setitem(verify.GROUPS, "termination", lambda: iter([failing]))
        code, _, _ = run_cli(capsys, "verify", "--only", "termination", "--output", str(target))
        assert code == 1
        assert target.read_text().endswith("1 checks, 1 failed\n")
