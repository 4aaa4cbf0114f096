"""Seeded inputs for the three workloads, the operation each input becomes,
and the correctness check applied to every operation's output.

A workload is an endless sequence of *blocks*.  Every block has the same
stratified make-up (which families, modes, evaluators and depth strata it
holds, and how many of each); only the arguments come from the seed.  So
the mix of work, and with it the reference samples the runner takes at
each block's end, is the same in every run whatever the seed.

References come from ``confrac.oracles``: libm closed forms for float,
complex and deep exact results, and exact rationals for the terminating
integer-exponent cases.  The bounds are fixed below and do not depend on
the seed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator, Optional

from confrac import (
    EXACT,
    Family,
    FamilySpec,
    ToleranceSpec,
    arctan_cf,
    binomial_power,
    convergents,
    coth_scaled_cf,
    eval_backward,
    eval_convergents,
    eval_lentz,
    lagrange_binomial,
    log_ratio_cf,
    oracle_value,
    symmetric_binomial,
    symmetric_lhs,
    tan_cf,
    tan_multiple,
    tan_multiple_lhs,
    uniform_binomial,
)
from confrac.cli import COMPARE_HEADER, TABLE_HEADER
from confrac.verify import GROUPS
from harness import BIG_INTEGER, INTERPRETED, INTERPRETER_START

#: Tolerance every float and complex evaluation is asked for.
REL_TOL = 1e-13
TOL = ToleranceSpec(rel_tol=REL_TOL)
#: A float or complex op counts as failed (``failed``, ``correct``) when its
#: relative error against the oracle exceeds this.  The factor of 4 makes
#: room for a known defect: the stopping rule ("last relative step <= tol")
#: under-reports the error of slowly converging fractions (log-ratio near
#: |z| = 1, arctan at large t), which stay in the mix.  ``error_rate``
#: shows that defect: it counts every op whose error exceeds ``REL_TOL``.
FLOAT_BOUND = 4 * REL_TOL
#: Deep exact convergents (depth >= 100) are compared, after rounding to a
#: double, with the libm closed form of the fraction's limit.
EXACT_LIMIT_BOUND = 1e-13

GENERATORS = {
    Family.LAGRANGE_BINOMIAL: lagrange_binomial,
    Family.UNIFORM_BINOMIAL: uniform_binomial,
    Family.SYMMETRIC_BINOMIAL: symmetric_binomial,
    Family.TAN_MULTIPLE: tan_multiple,
    Family.ARCTAN: arctan_cf,
    Family.TAN: tan_cf,
    Family.LOG_RATIO: log_ratio_cf,
    Family.COTH_SCALED: coth_scaled_cf,
}

#: Exact-deep depth strata: both sides of a binary-splitting crossover near
#: depth 1000 are present.  Every block takes one depth from each stratum
#: per family and evaluator, spread log-uniformly, so latencies form a
#: continuum and no percentile sits on a gap between clusters.
DEPTH_EDGES = (100, 180, 320, 560, 1000, 2000)
DEPTH_BUCKETS = tuple(f"d{lo}-{hi}" for lo, hi in zip(DEPTH_EDGES, DEPTH_EDGES[1:]))


def rel_err(got, want) -> float:
    return abs(got - want) / abs(want)


@dataclass
class Case:
    """One family instance: generator arguments plus its oracle value."""

    family: Family
    mode: str
    args: tuple
    ref: Any
    cli_n: Optional[str] = None
    cli_arg: str = ""

    def build(self):
        return GENERATORS[self.family](*self.args)


@dataclass
class Op:
    """One timed operation.

    ``run()`` is the timed call.  ``check(result)`` runs outside the timed
    region and returns ``(error, problem)``: the error against the
    reference (relative, or 0 for an exact match) and ``None`` when the
    result is correct, else a one-line reason.
    """

    workload: str
    family: str
    mode: str
    evaluator: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]
    bucket: str = ""
    # In-process engine ops keep their pieces so a traced run can time them.
    case: Optional[Case] = None
    evaluate: Optional[Callable[[Any], Any]] = None
    # CLI ops keep their argument vector.
    argv: list = field(default_factory=list)

    @property
    def label(self) -> str:
        return "/".join(x for x in (self.family, self.mode, self.evaluator, self.bucket) if x)


# --------------------------------------------------------------------------
# argument drawing


def _away_from_int(rng: random.Random, lo: float, hi: float) -> float:
    # Non-integer exponent with two decimals, at least 0.05 from an integer
    # (an integer exponent would terminate the binomial fractions).
    while True:
        n = round(rng.uniform(lo, hi), 2)
        if abs(n - round(n)) >= 0.05:
            return n


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def float_case(rng: random.Random, family: Family, easy: bool = False) -> Case:
    """A float-mode case.  ``easy`` narrows the arguments so that 40 levels
    converge (used for CLI tables, which run to a fixed depth)."""
    n = None
    if family in (Family.LAGRANGE_BINOMIAL, Family.UNIFORM_BINOMIAL):
        n = rng.choice((-1, 1)) * _away_from_int(rng, 0.3, 4.0)
        arg = rng.uniform(-0.5, 1.0) if easy else rng.uniform(-0.6, 2.0)
    elif family is Family.SYMMETRIC_BINOMIAL:
        n = rng.choice((-1, 1)) * _away_from_int(rng, 0.3, 4.5)
        arg = _signed(rng, 0.1, 0.7 if easy else 0.9)
    elif family is Family.TAN_MULTIPLE:
        arg = rng.uniform(0.1, 1.0 if easy else 2.0)
        # Keep n*arctan(t) inside [0.2, 1.3]: away from the zero and the
        # pole of tan(n*phi), where a relative error means nothing.
        while True:
            n = round(rng.uniform(0.2, 1.3) / math.atan(arg), 2)
            if abs(n - round(n)) >= 0.05 and 0.2 <= n * math.atan(arg) <= 1.3:
                break
    elif family is Family.ARCTAN:
        arg = _signed(rng, 0.05, 1.0 if easy else 3.0)
    elif family is Family.TAN:
        arg = _signed(rng, 0.05, 1.2 if easy else 1.5)
    elif family is Family.LOG_RATIO:
        arg = _signed(rng, 0.05, 0.7 if easy else 0.95)
    else:
        arg = _signed(rng, 0.05, 3.0 if easy else 5.0)
    args = (arg,) if n is None else (n, arg)
    ref = oracle_value(FamilySpec(family, arg, n))
    return Case(family, "float", args, ref, None if n is None else repr(n), repr(arg))


def complex_case(rng: random.Random) -> Case:
    """Symmetric binomial at a purely imaginary argument z = iy.  The value
    is real: n*y*cot(n*arctan y) = n*y / tan_multiple_lhs(n, y)."""
    y = rng.uniform(0.05, 0.9)
    while True:
        n = round(rng.uniform(0.3, 1.5), 2)
        if abs(n - round(n)) >= 0.05 and n * math.atan(y) <= 1.2:
            break
    ref = n * y / tan_multiple_lhs(n, y).value
    return Case(Family.SYMMETRIC_BINOMIAL, "complex", (n, complex(0.0, y)), ref,
                repr(n), f"{y!r}j")


def deep_case(rng: random.Random, family: Family) -> Case:
    """Rational non-terminating case.  Big-integer cost grows with the bits
    of the argument's numerator and denominator, so each family keeps one
    denominator and numerators of near-equal cost (within about 5% at depth
    1400); the seed picks among them, the sign and the exponent."""
    sign = rng.choice((-1, 1))
    if family is Family.COTH_SCALED:
        args = (Fraction(sign * rng.choice((4, 5)), 3),)
    elif family is Family.SYMMETRIC_BINOMIAL:
        args = (Fraction(rng.choice((1, 3, 5, 7, 9)), 2), Fraction(sign * rng.choice((1, 3)), 5))
    else:
        args = (Fraction(sign * rng.choice((4, 5)), 3),)
    n = args[0] if len(args) == 2 else None
    ref = oracle_value(FamilySpec(family, float(args[-1]), n))
    return Case(family, "rational", args, ref, None if n is None else str(n), str(args[-1]))


def terminating_case(rng: random.Random, family: Family) -> Case:
    """Integer exponent 1 <= |n| <= 40 at a rational argument; the
    reference is the exact rational power (or symmetric closed form)."""
    n = rng.choice((-1, 1)) * rng.randint(1, 40)
    den = rng.randint(2, 7)
    if family is Family.SYMMETRIC_BINOMIAL:
        x = Fraction(rng.choice([p for p in range(-den + 1, den) if p]), den)
        ref = symmetric_lhs(n, x).value
    else:
        x = Fraction(rng.randint(-den + 1, 2 * den), den)
        if x == 0:
            x = Fraction(1, den)
        ref = binomial_power(n, x).value
    return Case(family, "rational", (n, x), ref, str(n), str(x))


# --------------------------------------------------------------------------
# checks


def check_report(bound: float, ref):
    def check(report) -> tuple:
        if not (report.converged or report.terminated):
            return math.inf, "not converged"
        err = rel_err(report.value, ref)
        return err, None if err <= bound else f"relative error {err:.3g} > {bound:g}"
    return check


def check_exact_report(ref: Fraction):
    def check(report) -> tuple:
        if not report.terminated:
            return math.inf, "did not terminate"
        if report.value != ref:
            return math.inf, f"got {report.value}, want {ref}"
        return 0.0, None
    return check


def check_deep_value(ref: float, depth: int, listed: bool):
    def check(result) -> tuple:
        if listed:
            if len(result) != depth + 1:
                return math.inf, f"{len(result)} convergents, want {depth + 1}"
            result = result[-1].value
        if not isinstance(result, Fraction):
            return math.inf, f"value is {type(result).__name__}, not Fraction"
        err = rel_err(float(result), ref)
        return err, None if err <= EXACT_LIMIT_BOUND else f"relative error {err:.3g}"
    return check


# --------------------------------------------------------------------------
# workloads

EIGHT = tuple(Family)


def _engine_op(workload: str, case: Case, evaluator: str, evaluate, check, bucket: str = "") -> Op:
    def run():
        return evaluate(case.build())
    return Op(workload, case.family.value, case.mode, evaluator, run, check,
              bucket=bucket, case=case, evaluate=evaluate)


FLOAT_BLOCK = 200


def float_eval_blocks(seed: int) -> Iterator[list[Op]]:
    """About 85% float ops spread over the eight families and 15% complex
    (imaginary-z symmetric); 80% eval_lentz, 20% eval_convergents."""
    rng = random.Random(f"float-eval/{seed}")
    lentz = lambda s: eval_lentz(s, TOL)  # noqa: E731
    forward = lambda s: eval_convergents(s, TOL)  # noqa: E731
    n_complex = round(0.15 * FLOAT_BLOCK)
    while True:
        cases = [complex_case(rng) for _ in range(n_complex)]
        cases += [float_case(rng, EIGHT[i % 8]) for i in range(FLOAT_BLOCK - n_complex)]
        rng.shuffle(cases)
        n_lentz = round(0.8 * FLOAT_BLOCK)
        block = []
        for i, case in enumerate(cases):
            name, evaluate = ("lentz", lentz) if i < n_lentz else ("convergents", forward)
            block.append(_engine_op("float-eval", case, name, evaluate,
                                    check_report(FLOAT_BOUND, case.ref)))
        rng.shuffle(block)
        yield block


DEEP_FAMILIES = (Family.COTH_SCALED, Family.SYMMETRIC_BINOMIAL, Family.ARCTAN)
TERMINATING_FAMILIES = (Family.LAGRANGE_BINOMIAL, Family.UNIFORM_BINOMIAL, Family.SYMMETRIC_BINOMIAL)


def exact_deep_blocks(seed: int) -> Iterator[list[Op]]:
    """Per block: for each of three families, ``convergents`` and
    ``eval_backward`` at one depth in each stratum (30 ops), plus two
    terminating integer-exponent binomials per terminating family (6 ops).

    Within a stratum the six (family, evaluator) pairs sit at six fixed
    log-spaced positions that rotate by one each block, the same for every
    seed: big-integer cost and memory grow about as depth squared, so
    random depths would make a run's cost and peak memory depend on the
    seed.  The seed draws the arguments."""
    rng = random.Random(f"exact-deep/{seed}")
    pairs = [(f, e) for f in DEEP_FAMILIES for e in ("recurrence", "backward")]
    for rotation in itertools.count():
        block = []
        for lo, hi, bucket in zip(DEPTH_EDGES, DEPTH_EDGES[1:], DEPTH_BUCKETS):
            for i, (family, evaluator) in enumerate(pairs):
                position = ((i + rotation) % len(pairs) + 0.5) / len(pairs)
                depth = round(lo * (hi / lo) ** position)
                case = deep_case(rng, family)
                if evaluator == "recurrence":
                    evaluate = lambda s, d=depth: convergents(s, d)  # noqa: E731
                else:
                    evaluate = lambda s, d=depth: eval_backward(s, d)  # noqa: E731
                check = check_deep_value(case.ref, depth, evaluator == "recurrence")
                block.append(_engine_op("exact-deep", case, evaluator, evaluate, check, bucket))
        for family in TERMINATING_FAMILIES:
            for _ in range(2):
                case = terminating_case(rng, family)
                evaluate = lambda s: eval_convergents(s, EXACT, 100)  # noqa: E731
                block.append(_engine_op("exact-deep", case, "terminating", evaluate,
                                        check_exact_report(case.ref)))
        rng.shuffle(block)
        yield block


# -- cli ---------------------------------------------------------------------


def _family_argv(command: str, case: Case) -> list[str]:
    # "--arg=VALUE" keeps argparse from reading a negative value as a flag.
    argv = [command, "--family", case.family.value]
    if case.cli_n is not None:
        argv.append(f"--n={case.cli_n}")
    return argv + [f"--arg={case.cli_arg}", "--mode", case.mode]


def _cli_eval_check(case: Case, kind: str):
    """``kind``: "float" (float or complex result against the oracle),
    "terminating" (exact rational equality) or "deep" (exact rational
    against the limit's closed form)."""
    def check(proc) -> tuple:
        value = json.loads(proc.stdout)["value"]
        if kind == "terminating":
            got = Fraction(value)
            return (0.0, None) if got == case.ref else (math.inf, f"got {got}, want {case.ref}")
        if kind == "deep":
            err = rel_err(float(Fraction(value)), case.ref)
            return err, None if err <= EXACT_LIMIT_BOUND else f"relative error {err:.3g}"
        got = complex(value) if case.mode == "complex" else float(value)
        err = rel_err(got, case.ref)
        return err, None if err <= FLOAT_BOUND else f"relative error {err:.3g} > {FLOAT_BOUND:g}"
    return check


def _cli_rows_check(case: Case, header: str, depth: int, value_col: str):
    def check(proc) -> tuple:
        lines = proc.stdout.splitlines()
        if not lines or lines[0] != header:
            return math.inf, "missing header"
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        want_rows = depth + 1 if header == TABLE_HEADER else depth
        if len(rows) != want_rows:
            return math.inf, f"{len(rows)} rows, want {want_rows}"
        if header == COMPARE_HEADER and float(rows[-1]["oracle_value"]) != case.ref:
            return math.inf, "oracle column differs from the oracle"
        err = rel_err(float(rows[-1][value_col]), case.ref)
        return err, None if err <= FLOAT_BOUND else f"relative error {err:.3g} > {FLOAT_BOUND:g}"
    return check


def _verify_check(proc) -> tuple:
    last = proc.stdout.strip().splitlines()[-1]
    if not last.endswith(" checks, 0 failed"):
        return math.inf, last
    return 0.0, None


def _cli_op(command: str, case: Optional[Case], evaluator: str, argv: list, check) -> Op:
    family = case.family.value if case else "-"
    mode = case.mode if case else "-"
    return Op("cli", family, mode, f"{command}:{evaluator}" if evaluator else command,
              run=None, check=check, case=case, argv=argv)


TABLE_DEPTH = 40
BACKWARD_DEPTH = 80


def cli_blocks(seed: int) -> Iterator[list[Op]]:
    """Per block of 20 CLI invocations: 15 ``eval`` (7 float Lentz, 2 float
    convergents, 1 float backward, 2 rational terminating convergents, 1
    rational backward, 2 complex Lentz), 2 ``table``, 2 ``compare`` and one
    ``verify --only <group>`` (5%)."""
    rng = random.Random(f"cli/{seed}")
    groups = sorted(GROUPS)
    tol = ["--tol", repr(REL_TOL)]
    while True:
        block = []
        for i in range(10):
            case = float_case(rng, EIGHT[rng.randrange(8)])
            method = "lentz" if i < 7 else ("convergents" if i < 9 else "backward")
            argv = _family_argv("eval", case) + ["--method", method] + tol
            if method == "backward":
                argv += ["--depth", str(BACKWARD_DEPTH)]
            block.append(_cli_op("eval", case, method, argv, _cli_eval_check(case, "float")))
        for _ in range(2):
            case = terminating_case(rng, TERMINATING_FAMILIES[rng.randrange(3)])
            # Zero tolerance: stop at termination, not at two close convergents.
            argv = _family_argv("eval", case) + ["--tol", "0"]
            block.append(_cli_op("eval", case, "convergents", argv,
                                 _cli_eval_check(case, "terminating")))
        case = deep_case(rng, (Family.COTH_SCALED, Family.ARCTAN)[rng.randrange(2)])
        argv = _family_argv("eval", case) + ["--method", "backward", "--depth", "60"]
        block.append(_cli_op("eval", case, "backward", argv, _cli_eval_check(case, "deep")))
        for _ in range(2):
            case = complex_case(rng)
            block.append(_cli_op("eval", case, "lentz", _family_argv("eval", case) + tol,
                                 _cli_eval_check(case, "float")))
        for command, header, col in (("table", TABLE_HEADER, "value"),
                                     ("compare", COMPARE_HEADER, "cf_value")):
            for _ in range(2):
                case = float_case(rng, EIGHT[rng.randrange(8)], easy=True)
                argv = _family_argv(command, case) + ["--depth", str(TABLE_DEPTH)]
                block.append(_cli_op(command, case, "", argv,
                                     _cli_rows_check(case, header, TABLE_DEPTH, col)))
        group = groups[rng.randrange(len(groups))]
        block.append(_cli_op("verify", None, group, ["verify", "--only", group], _verify_check))
        rng.shuffle(block)
        yield block


#: Workload name -> (block generator, host-speed reference of its kind).
WORKLOADS = {
    "float-eval": (float_eval_blocks, INTERPRETED),
    "exact-deep": (exact_deep_blocks, BIG_INTEGER),
    "cli": (cli_blocks, INTERPRETER_START),
}
