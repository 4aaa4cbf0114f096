"""Bit parity of float and complex reports against a stored golden file.

``tests/data/float_parity.json`` holds, for every case below, the reports of
``eval_lentz`` and ``eval_convergents`` (at the default cap and at caps 1 and 2)
and the backward route at depth 30 as an earlier revision computed them: the
value as ``float.hex`` (both parts of a complex value), ``depth_used``,
``converged``, ``terminated``, the residual as ``float.hex`` and
``tiny_substitutions``, or the type and message of the error raised.  No law
here ends its fraction (the exponents are not integers), so a faster walk has
to give the same bits.  The ``from_terms`` cases with a zero reach the
branches of each step: a Lentz ``d = 0`` (a pole) and ``c = 0`` (a vanishing
numerator), a forward inner pole, a forward rescale (levels near 1e200) and a
complex modulus past the float range in the stopping test.  Regenerate the
file from a checkout with

    PYTHONPATH=src python tests/test_parity.py > tests/data/float_parity.json
"""

import json
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from confrac import (
    CFStream,
    Family,
    ToleranceSpec,
    arctan_cf,
    equivalence_transform,
    eval_convergents,
    eval_lentz,
    lagrange_binomial,
    symmetric_binomial,
    tail,
)
from confrac.engine import _backward_report

GOLDEN = Path(__file__).parent / "data" / "float_parity.json"
TOL = ToleranceSpec(rel_tol=1e-13)
EXPONENTS = (0.37, -1.6, 2.5)
ARGS = {  # three arguments per family, inside each family's domain
    Family.LAGRANGE_BINOMIAL: (0.3, -0.45, 0.8),
    Family.UNIFORM_BINOMIAL: (0.3, -0.45, 0.8),
    Family.SYMMETRIC_BINOMIAL: (0.3, -0.45, 0.8),
    Family.TAN_MULTIPLE: (0.2, -0.35, 0.6),
    Family.ARCTAN: (0.3, -0.8, 1.0),
    Family.TAN: (0.3, -0.8, 1.2),
    Family.LOG_RATIO: (0.3, -0.45, 0.8),
    Family.COTH_SCALED: (0.3, -1.7, 2.5),
}
COMPLEX_ARGS = (0.5j, 0.3 + 0.4j, -0.2 + 0.6j)
METHODS = {
    "lentz": lambda cf: eval_lentz(cf, TOL),
    "convergents": lambda cf: eval_convergents(cf, TOL),
    "backward30": lambda cf: _backward_report(cf, 30, TOL),
    **{f"{route}{cap}": lambda cf, evaluate=evaluate, cap=cap: evaluate(cf, TOL, cap)
       for route, evaluate in (("lentz", eval_lentz), ("convergents", eval_convergents)) for cap in (1, 2)},
}
#: levels 2..29 of the zero cases, after a level that makes the zero
LEVELS = [(0.3 * k, 2.0 * k + 1) for k in range(2, 30)]


def _cases():
    cases = {}
    for family, args in ARGS.items():
        for x in args:
            if family.takes_n:
                for n in EXPONENTS:
                    cases[f"{family.value}(n={n}, {x})"] = lambda f=family, n=n, x=x: f.generator(n, x)
            else:
                cases[f"{family.value}({x})"] = lambda f=family, x=x: f.generator(x)
    for n in EXPONENTS:
        for z in COMPLEX_ARGS:
            cases[f"symmetric-binomial(n={n}, {z})"] = lambda n=n, z=z: symmetric_binomial(n, z)
    cases["from_terms"] = lambda: CFStream.from_terms(
        0.5, [(0.3 * k, 2.0 * k + 1) for k in range(1, 25)])
    cases["tail(symmetric-binomial(n=0.37, 0.8), 3)"] = lambda: tail(symmetric_binomial(0.37, 0.8), 3)
    cases["equivalence(arctan(0.8))"] = lambda: equivalence_transform(
        arctan_cf(0.8), lambda k: 1.0 / (k + 1), c0=2.0)
    cases["equivalence(lagrange-binomial(n=-1.6, 0.3))"] = lambda: equivalence_transform(
        lagrange_binomial(-1.6, 0.3), lambda k: 0.5 * k)
    cases["from_terms b_1=0"] = lambda: CFStream.from_terms(0.5, [(1.0, 0.0)] + LEVELS)  # d = 0, q_1 = 0
    cases["from_terms p_1=0"] = lambda: CFStream.from_terms(1.0, [(1.0, -1.0)] + LEVELS)  # c = 0
    cases["from_terms q_2=0"] = lambda: CFStream.from_terms(0.5, [(1.0, 2.0), (1.0, 0.0)] + LEVELS[1:])
    cases["equivalence(arctan(0.8)) by 1e100"] = lambda: equivalence_transform(arctan_cf(0.8), lambda k: 1e100)
    cases["from_terms |a_1| past the float range"] = lambda: CFStream.from_terms(
        0j, [(1.5e308 + 1.5e308j, 1 + 0j)] + [(complex(a), complex(b)) for a, b in LEVELS])
    return cases


CASES = _cases()


def _hex(value):
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    return [value.hex()]


def _record(report):
    return {
        "value": _hex(report.value),
        "depth_used": report.depth_used,
        "converged": report.converged,
        "terminated": report.terminated,
        "residual": report.residual.hex(),
        "tiny_substitutions": report.tiny_substitutions,
    }


def _outcome(evaluate, build):
    try:
        return _record(evaluate(build()))
    except Exception as exc:  # an error is an outcome too
        return {"error": f"{type(exc).__name__}: {exc}"}


def _records():
    return {f"{case} {method}": _outcome(evaluate, build)
            for case, build in CASES.items() for method, evaluate in METHODS.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{case} {method}" for case in CASES for method in METHODS)


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("case", list(CASES))
def test_report_is_bit_identical(golden, case, method):
    assert _outcome(METHODS[method], CASES[case]) == golden[f"{case} {method}"]


WALK_ARGS = {"float": 0.3, "rational": Fraction(3, 10), "complex": 0.3 + 0j}


def _bits(value):
    return type(value), _hex(value) if not isinstance(value, Fraction) else value


@pytest.mark.parametrize("mode", list(WALK_ARGS))
@pytest.mark.parametrize("family, n", [(f, n) for f in Family for n in
                                       ((Fraction(5, 2), 3) if f.takes_n else (None,))],
                         ids=lambda v: v.value if isinstance(v, Family) else f"n={v}")
def test_walk_and_term_agree_over_forty_levels(family, n, mode):
    # the walk yields what term(k) returns, level by level, and stops just
    # before the law's zero (an integer exponent) or runs the forty levels
    x = WALK_ARGS[mode]
    stream = family.generator(n, x) if family.takes_n else family.generator(x)
    walk = list(islice(stream._walk(), 40))
    for k, (a, b) in enumerate(walk, 1):
        t = stream.term(k)
        assert (_bits(a), _bits(b)) == (_bits(t.a), _bits(t.b)), k
    if len(walk) < 40:
        assert stream.term(len(walk) + 1).a == 0
    else:
        assert all(stream.term(k).a != 0 for k in range(1, 41))


if __name__ == "__main__":
    json.dump(_records(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
