"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or in failure output).

Criteria 1-9 rest on the identity checks behind ``confrac verify``, where
their fixtures and bounds live: each names the verify group, the
check-name prefixes and the exact number of checks it rests on, and fails
if any of those checks is missing or fails.  Criterion 10 drives the
command line itself.
"""

import csv
import io
import json
import math

import pytest

from confrac import convergents, run_checks, tan_cf
from confrac.cli import main


def check(cid: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail and not ok else ""
    print(f"[acceptance] criterion {cid:2d} {status}: {description}{suffix}")
    assert ok, f"criterion {cid} failed: {description} {detail}"


@pytest.fixture(scope="module")
def results():
    return run_checks()


def gate(results, cid: int, description: str, *parts: tuple[str, tuple[str, ...], int]) -> None:
    """Criterion *cid* passes when, for every ``(group, prefixes, count)``
    part, exactly *count* checks of *group* have a name starting with one
    of *prefixes*, and all of them pass."""
    problems = []
    for group, prefixes, count in parts:
        chosen = [r for r in results if r.group == group and r.name.startswith(prefixes)]
        if len(chosen) != count:
            problems.append(f"{group}: {len(chosen)} checks match {prefixes}, want {count}")
        problems += [f"{group}: {r.name} failed ({r.detail})" for r in chosen if not r.passed]
    check(cid, description, not problems, "; ".join(problems))


def test_criterion_01_symmetric_exact_termination_fixtures(results):
    gate(results, 1, "symmetric fixtures terminate to the exact rational values",
         ("termination", tuple(f"symmetric n={n} z=" for n in (1, -1, 2, -2, 3, -3)), 14))


def test_criterion_02_lagrange_exactness_and_termination_levels(results):
    gate(results, 2, "alternating binomial stream is exactly (1+x)^n with the predicted level",
         ("termination", ("lagrange n=",), 36))


def test_criterion_03_cross_family_chain(results):
    gate(results, 3, "alternating, uniform and symmetric forms match their closed forms at n=1/2, x=1/4",
         ("cross-family", ("lagrange matches (1+x)^n at n=1/2,", "uniform matches (1+x)^n at n=1/2,",
                           "symmetric matches its closed form at n=1/2,"), 3))


def test_criterion_04_tangent_multiples(results):
    gate(results, 4, "tangent multiples: 8/15 and 37/55 exactly, n=5/2 within 1e-11",
         ("tangent-multiples", ("tan 2φ fixture", "tan 3φ fixture", "non-integer multiple n=5/2"), 3))


def test_criterion_05_limit_families_depth_bounds(results):
    gate(results, 5, "arctan/tan/log/coth streams hit their targets within the depth caps",
         ("limit-families", ("arctan(1) ", "tan(1) ", "log ratio at z=1/3 ", "scaled coth at v=1 "), 4))


def test_criterion_06_imaginary_argument_reality(results):
    gate(results, 6, "purely imaginary argument keeps the symmetric stream real",
         ("imaginary", ("imaginary argument keeps the value real at n=5/2, t=0.4",
                        "real part matches nt/tan(n arctan t) at n=5/2, t=0.4"), 2))


def test_criterion_07_series_ratio(results):
    gate(results, 7, "series ratio matches the exponential form and the 3-term fixture",
         ("series-ratio", ("three-term ratio at v=1/2", "twenty-term ratio at v=0.7"), 2))


def test_criterion_08_engine_properties(results):
    gate(results, 8, "engine properties: determinant, equivalence, backward fold, Lentz agreement",
         ("determinant", ("determinant identity levels 1..20: ",), 8),
         ("substitution", ("value-preserving transform keeps every convergent",), 1),
         ("engine", ("backward fold equals forward recurrence: ",
                     "lentz agrees with the forward recurrence: "), 10))


def test_criterion_09_tail_reduction_identity(results):
    gate(results, 9, "first tail satisfies the two-level reduction through the next tail",
         ("tail-reduction", ("A reduces through B at n=0.5, x=0.25",), 1))


def test_criterion_10_cli_contract(capsys):
    # exact rational evaluation
    code1 = main(["eval", "--family", "symmetric-binomial", "--n", "2", "--arg", "1/3",
                  "--mode", "rational"])
    out1 = capsys.readouterr().out
    payload1 = json.loads(out1)
    eval1_ok = code1 == 0 and payload1["value"] == "10/9" and payload1["terminated"] is True
    # float Lentz evaluation
    code2 = main(["eval", "--family", "arctan", "--arg", "1", "--method", "lentz",
                  "--tol", "1e-12"])
    payload2 = json.loads(capsys.readouterr().out)
    eval2_ok = code2 == 0 and abs(payload2["value"] - math.pi / 4) < 1e-12
    # domain violation exits 1 with a message naming the precondition
    code3 = main(["eval", "--family", "log-ratio", "--arg", "1.5"])
    captured = capsys.readouterr()
    eval3_ok = code3 == 1 and "|z| < 1" in captured.err
    # CSV header is bit-exact and the table round-trips at printed precision
    code4 = main(["table", "--family", "tan", "--arg", "1", "--depth", "12"])
    out4 = capsys.readouterr().out
    header_ok = out4.splitlines()[0] == "k,p,q,value,abs_err,rel_err"
    rows = list(csv.DictReader(io.StringIO(out4)))
    convs = convergents(tan_cf(1.0), 12)
    round_trip_ok = len(rows) == len(convs) and all(
        float(row["value"]) == conv.value for row, conv in zip(rows, convs)
    )
    ok = eval1_ok and eval2_ok and eval3_ok and header_ok and round_trip_ok
    check(10, "command-line contract: stated outputs, exit codes, bit-exact CSV header",
          ok, f"eval1={eval1_ok} eval2={eval2_ok} eval3={eval3_ok} header={header_ok} csv={round_trip_ok}")
