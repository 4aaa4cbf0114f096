"""The behaviour gate: every category of the parity sweep against its committed line.

``parity_sweep.sweep()`` runs once, and each line of ``tests/data/parity_sweep.txt``
(``<category> <sha256> <records>``) must match the category's fresh records.  A
change that alters behaviour on purpose regenerates that file and explains the
lines that moved; ``parity_sweep``'s docstring says how.  The gate pins bits, so
each ``float-parity`` report is also checked for being right: it is the
convergent at its depth, folded exactly over the stream's own terms, to within
a rounding error per level.
"""

from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import parity_sweep
from confrac import DEFAULT_MAX_DEPTH, Family, PoleError

EXPECTED = dict(line.split(" ", 1) for line in
                (Path(__file__).parent / "data" / "parity_sweep.txt").read_text(encoding="utf-8").splitlines())


@pytest.fixture(scope="module")
def swept():
    return parity_sweep.sweep()


def test_sweep_and_file_name_the_same_categories(swept):
    assert list(swept) == list(EXPECTED)


@pytest.mark.parametrize("category", list(EXPECTED))
def test_category_matches_its_line(swept, category):
    assert parity_sweep.line(category, swept.get(category, [])) == f"{category} {EXPECTED[category]}", (
        f"the {category!r} records moved; dump them here and at the parent, and diff:\n"
        f"PYTHONPATH=src:tests python -c \"import parity_sweep; "
        f"print(*parity_sweep.sweep()[{category!r}], sep='\\n')\"")


CASES = parity_sweep.parity_cases()
ZERO = (Fraction(0), Fraction(0))


def _exact(z):  # a scalar's exact value as a Gaussian rational, (re, im)
    return (Fraction(z.real), Fraction(z.imag)) if isinstance(z, complex) else (Fraction(z), Fraction(0))


def _mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _convergent(cf, depth):
    """(p_depth, q_depth) by the forward recurrence, exact over the stream's own terms."""
    p_prev, q_prev, p, q = (Fraction(1), Fraction(0)), ZERO, _exact(cf.b0), (Fraction(1), Fraction(0))
    for k in range(1, depth + 1):
        t = cf.term(k)
        a, b = _exact(t.a), _exact(t.b)
        p_prev, q_prev, p, q = p, q, _add(_mul(b, p), _mul(a, p_prev)), _add(_mul(b, q), _mul(a, q_prev))
    return p, q


def _norm(u):
    return u[0] ** 2 + u[1] ** 2


@pytest.mark.parametrize("method", list(parity_sweep.PARITY_METHODS))
@pytest.mark.parametrize("case", list(CASES))
def test_report_is_its_exact_convergent(case, method):
    build, stem = CASES[case], method.rstrip("0123456789")
    cap = int(method[len(stem):]) if method != stem else DEFAULT_MAX_DEPTH
    try:
        report = parity_sweep.PARITY_METHODS[method](build())
    except PoleError:  # raised only where the convergent at the cap is a pole
        assert _convergent(build(), cap)[1] == ZERO
        return
    k = report.depth_used
    if method == stem:  # every case is inside its domain: the uncapped routes converge, in a few dozen levels
        assert report.converged and k <= 40, report
    assert k == cap if not (report.converged or report.terminated) else k <= cap
    assert report.converged == (report.terminated or report.residual <= parity_sweep.PARITY_TOL.rel_tol)
    if report.terminated:
        assert (t := build().term(k + 1)) is None or t.a == 0
    p, q = _convergent(build(), k)
    assert q != ZERO
    # p/q - v = (p - v q)/q: compared in norms, exactly, past the float range too
    error = _add(p, _mul(_exact(-report.value), q))
    assert _norm(error) <= Fraction(k, 2 ** 51) ** 2 * _norm(p), report


WALK_ARGS = {"float": 0.3, "rational": Fraction(3, 10), "complex": 0.3 + 0j}


def _bits(value):
    return type(value), repr(value)


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
