"""Cross-checks of the identities the library claims.

Every check pits a continued-fraction value against an independently
computed reference: an exact rational fixture, a libm closed form, or a
structurally different route through the engine.  Checks are grouped by
what they establish; ``confrac verify`` runs them and reports one line per
check.

Groups
------
termination        integer exponents truncate to the exact rational value
n-negation         the symmetric form is even in n, binomial streams invert
tail-reduction     tails of the alternating fraction obey the two-level
                   reduction that produces the uniform law
substitution       the x = 2y rearrangement and the divide-by-(1+y) step
                   that lead to the symmetric form
cross-family       all three binomial fractions agree with the power they
                   represent at non-integer exponents
imaginary          the symmetric stream stays real at purely imaginary
                   arguments and matches the tangent-ratio closed form
tangent-multiples  multiple-angle tangent fixtures and the small-exponent
                   angle limit
limit-families     arctan, tan, log-ratio and scaled-coth streams against
                   libm
series-ratio       the scaled cotangent's power-series ratio oracle
determinant        p_k q_{k-1} - p_{k-1} q_k = (-1)^{k-1} prod(a_i), exact
engine             the three evaluators and the equivalence transform agree
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .engine import (
    CFStream,
    CFTerm,
    convergents,
    equivalence_transform,
    eval_backward,
    eval_convergents,
    eval_lentz,
    tail,
)
from .errors import DomainError
from .families import (
    arctan_cf,
    coth_scaled_cf,
    lagrange_binomial,
    log_ratio_cf,
    symmetric_binomial,
    tan_cf,
    tan_multiple,
    uniform_binomial,
)
from .oracles import (
    binomial_power,
    coth_scaled_lhs,
    log_ratio_lhs,
    series_ratio_coth,
    symmetric_lhs,
    tan_multiple_lhs,
)
from .scalars import EXACT, Scalar, ToleranceSpec, _double, _ratio, mode_of

_TOL = ToleranceSpec(rel_tol=1e-13)


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    mode: str
    passed: bool
    error: float
    bound: float
    detail: str = ""


#: What a check group yields: the fields of a CheckResult after ``group``,
#: which ``run_checks`` adds from the group's ``GROUPS`` key.
Fact = tuple[str, str, bool, float, float, str]


def _float_diff(got: Scalar, want: Scalar, relative: bool) -> float:
    # Relative errors are taken against the reference value *want*.
    diff = abs(got - want)
    if relative and want != 0:
        diff /= abs(want)
    return diff if isinstance(diff, float) else _double(_ratio(diff))


def _exact(name: str, got: Scalar, want: Scalar) -> Fact:
    ok = got == want
    err = 0.0 if ok else _float_diff(got, want, relative=True)
    return name, "rational", ok, err, 0.0, "" if ok else f"got {got!r}, want {want!r}"


def _close(name: str, mode: str, got: Scalar, want: Scalar, bound: float,
           relative: bool = True) -> Fact:
    err = _float_diff(got, want, relative)
    detail = "" if err <= bound else f"got {got!r}, want {want!r}"
    return name, mode, err <= bound, err, bound, detail


def _flag(name: str, mode: str, ok: bool, detail: str = "") -> Fact:
    return name, mode, ok, 0.0 if ok else math.inf, 0.0, detail


def _rational_value(stream: CFStream, max_depth: int = 64) -> Fraction:
    return eval_convergents(stream, EXACT, max_depth).value


def _shifted_uniform(n: Fraction, y: Scalar) -> CFStream:
    # The uniform binomial fraction at x = 2y, rearranged and with ny added:
    # 1 + y + (n^2-1)y^2/(3(1+y) + (n^2-4)y^2/(5(1+y) + ...)); its value is
    # n*y*(1 + (1+2y)^n) / ((1+2y)^n - 1).
    mode = mode_of(y)
    one_ = mode.cast(1)

    def term(k: int) -> CFTerm:
        a = mode.cast(n * n - k * k) * y * y
        return CFTerm(a, mode.cast(2 * k + 1) * (one_ + y))

    return CFStream(one_ + y, term, description=f"shifted-uniform(n={n}, y={y!r})")


# --------------------------------------------------------------------------
# termination


def _check_termination() -> Iterator[Fact]:
    for n in (1, -1):
        for z in (Fraction(1, 3), Fraction(2, 5), Fraction(-2, 7)):
            val = _rational_value(symmetric_binomial(n, z))
            yield _exact(f"symmetric n={n} z={z} -> 1", val, Fraction(1))
    for n in (2, -2):
        for z in (Fraction(1, 3), Fraction(2, 5)):
            val = _rational_value(symmetric_binomial(n, z))
            yield _exact(f"symmetric n={n} z={z} -> 1+z^2", val, 1 + z * z)
    for n in (3, -3):
        for z in (Fraction(1, 2), Fraction(1, 4)):
            val = _rational_value(symmetric_binomial(n, z))
            want = 3 * (1 + 3 * z * z) / (3 + z * z)
            yield _exact(f"symmetric n={n} z={z} -> 3(1+3z^2)/(3+z^2)", val, want)
    for n in (1, 2, 3, -1, -2, -3):
        for x in (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)):
            stream = lagrange_binomial(n, x)
            val = _rational_value(stream)
            yield _exact(f"lagrange n={n} x={x} -> (1+x)^n", val, (1 + x) ** n)
            predicted = 2 * n if n > 0 else 2 * abs(n) + 1
            yield _flag(f"lagrange n={n} x={x} terminates at level {predicted}", "rational",
                        stream.termination_level(64) == predicted)
    for n in (1, 2, 3, -1, -2, -3):
        x = Fraction(1, 2)
        stream = uniform_binomial(n, x)
        val = _rational_value(stream)
        yield _exact(f"uniform n={n} x={x} -> (1+x)^n", val, (1 + x) ** n)
        yield _flag(f"uniform n={n} terminates at level {abs(n) + 1}", "rational",
                    stream.termination_level(64) == abs(n) + 1)
    for n in range(1, 7):
        stream = symmetric_binomial(n, Fraction(1, 3))
        yield _flag(f"symmetric n={n} terminates at level {n}", "rational",
                    stream.termination_level(64) == n)


# --------------------------------------------------------------------------
# n-negation


def _check_n_negation() -> Iterator[Fact]:
    n, z = Fraction(5, 2), Fraction(1, 5)
    plus, minus = symmetric_binomial(n, z), symmetric_binomial(-n, z)
    same = all(plus.term(k) == minus.term(k) for k in range(1, 21))
    yield _flag("symmetric terms identical for n and -n (levels 1..20)", "rational", same)
    for n in (2, 3):
        for z in (Fraction(1, 3), Fraction(1, 2)):
            a = symmetric_lhs(n, z).value
            b = symmetric_lhs(-n, z).value
            yield _exact(f"symmetric lhs n={n} equals n={-n} at z={z}", a, b)
    a = symmetric_lhs(Fraction(5, 2), 0.3).value
    b = symmetric_lhs(Fraction(-5, 2), 0.3).value
    yield _close("symmetric lhs even in n at n=5/2, z=0.3", "float", a, b, 1e-13)
    for n in (1, 2, 3):
        x = Fraction(1, 3)
        prod = _rational_value(lagrange_binomial(n, x)) * _rational_value(lagrange_binomial(-n, x))
        yield _exact(f"lagrange n={n} times n={-n} is 1 at x={x}", prod, Fraction(1))


# --------------------------------------------------------------------------
# tail-reduction


def _check_tail_reduction() -> Iterator[Fact]:
    for n, x in ((0.5, 0.25), (1 / 3, 0.3)):
        cf = lagrange_binomial(n, x)
        a_val = eval_lentz(tail(cf, 1), _TOL, 4000).value
        b_val = eval_lentz(tail(cf, 3), _TOL, 4000).value
        c_val = eval_lentz(tail(cf, 5), _TOL, 4000).value
        yield _close(f"1 + nx/A recovers (1+x)^n at n={n}, x={x}", "float",
                     1 + n * x / a_val, binomial_power(n, x).value, 1e-12)
        rhs = 1 + (1 - n) * x / 2 + ((n * n - 1) * x * x / 4) / (b_val + (1 + n) * x / 2)
        yield _close(f"A reduces through B at n={n}, x={x}", "float", a_val, rhs, 1e-11)
        rhs = 3 + (2 - n) * x / 2 + ((n * n - 4) * x * x / 4) / (c_val + (2 + n) * x / 2)
        yield _close(f"B reduces through C at n={n}, x={x}", "float", b_val, rhs, 1e-11)
    cf = lagrange_binomial(Fraction(1, 2), Fraction(1, 4))
    yield _flag("tail leading term is the original b1", "rational", tail(cf, 1).b0 == cf.term(1).b)


# --------------------------------------------------------------------------
# substitution


def _check_substitution() -> Iterator[Fact]:
    for n, y in ((0.5, 0.125), (1 / 3, 0.15)):
        lhs = n * y * (1 + (1 + 2 * y) ** n) / ((1 + 2 * y) ** n - 1)
        shifted = eval_lentz(_shifted_uniform(Fraction(n), y), _TOL, 4000).value
        yield _close(f"shifted uniform value matches ny(1+(1+2y)^n)/((1+2y)^n-1) at n={n}, y={y}",
                     "float", shifted, lhs, 1e-11)
        sym = eval_lentz(symmetric_binomial(Fraction(n), y / (1 + y)), _TOL, 4000).value
        yield _close(f"(1+y) times symmetric value matches it at n={n}, y={y}", "float",
                     (1 + y) * sym, lhs, 1e-11)
    n, y = Fraction(1, 2), Fraction(1, 8)
    shifted = _shifted_uniform(n, y)
    c = 1 / (1 + y)
    divided = equivalence_transform(shifted, lambda k: c, c0=c)
    sym = symmetric_binomial(n, y / (1 + y))
    levelwise = divided.b0 == sym.b0 and all(divided.term(k) == sym.term(k) for k in range(1, 16))
    yield _flag("dividing every level by 1+y yields the symmetric stream (levels 1..15)",
                "rational", levelwise)
    preserved = equivalence_transform(shifted, lambda k: c)
    orig = convergents(shifted, 15)
    scaled = convergents(preserved, 15)
    same_values = all(o.value == s.value for o, s in zip(orig, scaled))
    yield _flag("value-preserving transform keeps every convergent (levels 0..15)",
                "rational", same_values)


# --------------------------------------------------------------------------
# cross-family


def _check_cross_family() -> Iterator[Fact]:
    tol = ToleranceSpec(rel_tol=1e-12)
    for n, x in ((Fraction(1, 2), 0.25), (Fraction(1, 3), 0.3)):
        power = binomial_power(n, x).value
        lag = eval_lentz(lagrange_binomial(n, x), tol, 4000).value
        uni = eval_lentz(uniform_binomial(n, x), tol, 4000).value
        yield _close(f"lagrange matches (1+x)^n at n={n}, x={x}", "float", lag, power, 1e-11)
        yield _close(f"uniform matches (1+x)^n at n={n}, x={x}", "float", uni, power, 1e-11)
        yield _close(f"lagrange matches uniform at n={n}, x={x}", "float", lag, uni, 1e-11)
        z = x / (2 + x)
        sym = eval_lentz(symmetric_binomial(n, z), tol, 4000).value
        yield _close(f"symmetric matches its closed form at n={n}, z=x/(2+x)", "float",
                     sym, symmetric_lhs(n, z).value, 1e-11)


# --------------------------------------------------------------------------
# imaginary


def _check_imaginary() -> Iterator[Fact]:
    for n, t in ((Fraction(5, 2), 0.4), (Fraction(5, 2), 0.25)):
        value = eval_lentz(symmetric_binomial(n, complex(0, t)), _TOL, 4000).value
        yield _close(f"imaginary argument keeps the value real at n={n}, t={t}", "complex",
                     value.imag, 0.0, 1e-12, relative=False)
        want = float(n) * t / math.tan(float(n) * math.atan(t))
        yield _close(f"real part matches nt/tan(n arctan t) at n={n}, t={t}", "complex",
                     value.real, want, 1e-10, relative=False)


# --------------------------------------------------------------------------
# tangent-multiples


def _check_tangent_multiples() -> Iterator[Fact]:
    val = _rational_value(tan_multiple(2, Fraction(1, 4)))
    yield _exact("tan 2φ fixture: 2t/(1-t^2) at t=1/4", val, Fraction(8, 15))
    val = _rational_value(tan_multiple(3, Fraction(1, 5)))
    yield _exact("tan 3φ fixture: (3t-t^3)/(1-3t^2) at t=1/5", val, Fraction(37, 55))
    got = eval_lentz(tan_multiple(Fraction(5, 2), 0.2), _TOL, 4000).value
    yield _close("non-integer multiple n=5/2 at t=0.2", "float",
                 got, tan_multiple_lhs(Fraction(5, 2), 0.2).value, 1e-11)
    for t in (0.3, 1.0):
        n_small = 1e-6
        tan_small = eval_lentz(tan_multiple(n_small, t), _TOL, 4000).value
        angle_from_multiple = math.atan(tan_small) / n_small
        angle_direct = eval_lentz(arctan_cf(t), _TOL, 4000).value
        yield _close(f"vanishing-exponent limit recovers arctan at t={t}", "float",
                     angle_from_multiple, angle_direct, 1e-5, relative=False)


# --------------------------------------------------------------------------
# limit-families


def _check_limit_families() -> Iterator[Fact]:
    val = convergents(arctan_cf(1.0), 50)[-1].value
    yield _close("arctan(1) -> pi/4 by depth 50", "float", val, math.pi / 4, 1e-12, relative=False)
    val = convergents(arctan_cf(2.0), 120)[-1].value
    yield _close("arctan(2) by depth 120", "float", val, math.atan(2.0), 1e-11, relative=False)
    val = convergents(tan_cf(1.0), 30)[-1].value
    yield _close("tan(1) by depth 30", "float", val, math.tan(1.0), 1e-12, relative=False)
    val = convergents(tan_cf(math.pi / 4), 30)[-1].value
    yield _close("tan(pi/4) -> 1 by depth 30", "float", val, 1.0, 1e-12, relative=False)
    val = convergents(log_ratio_cf(1 / 3), 40)[-1].value
    yield _close("log ratio at z=1/3 -> log 2 by depth 40", "float", val, math.log(2),
                 1e-12, relative=False)
    val = convergents(log_ratio_cf(0.5), 100)[-1].value
    yield _close("log ratio at z=1/2 -> log 3 by depth 100", "float", val, math.log(3),
                 1e-11, relative=False)
    val = eval_lentz(log_ratio_cf(0.45), _TOL, 4000).value
    yield _close("log ratio at z=0.45 matches its closed form", "float", val,
                 log_ratio_lhs(0.45).value, 1e-12, relative=False)
    val = convergents(coth_scaled_cf(1.0), 20)[-1].value
    yield _close("scaled coth at v=1 by depth 20", "float", val,
                 coth_scaled_lhs(1.0).value, 1e-13, relative=False)
    val = eval_lentz(coth_scaled_cf(0.7), _TOL, 4000).value
    yield _close("scaled coth at v=0.7 matches the series ratio", "float", val,
                 series_ratio_coth(0.7, 20).value, 1e-12, relative=False)


# --------------------------------------------------------------------------
# series-ratio


def _check_series_ratio() -> Iterator[Fact]:
    got = series_ratio_coth(Fraction(1, 2), 3).value
    yield _exact("three-term ratio at v=1/2", got, Fraction(2165, 2001))
    got = series_ratio_coth(0.7, 20).value
    yield _close("twenty-term ratio at v=0.7 vs closed form", "float",
                 got, coth_scaled_lhs(0.7).value, 1e-12, relative=False)
    for v in (Fraction(3, 10), Fraction(7, 10), Fraction(1)):
        reference = series_ratio_coth(v, 40).value
        errs = [abs(series_ratio_coth(v, t).value - reference) for t in range(1, 16)]
        monotone = all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
        yield _flag(f"series error shrinks with each term at v={v}", "rational", monotone)


# --------------------------------------------------------------------------
# determinant


def _determinant_holds(stream: CFStream, levels: int) -> bool:
    convs = convergents(stream, levels)
    product = Fraction(1)
    for k in range(1, len(convs)):
        term = stream.term(k)
        product *= term.a
        lhs = convs[k].p * convs[k - 1].q - convs[k - 1].p * convs[k].q
        if lhs != (-1) ** (k - 1) * product:
            return False
    return True


def _rational_samples() -> list[tuple[str, CFStream]]:
    return [
        ("lagrange n=1/2 x=1/4", lagrange_binomial(Fraction(1, 2), Fraction(1, 4))),
        ("uniform n=1/2 x=1/4", uniform_binomial(Fraction(1, 2), Fraction(1, 4))),
        ("symmetric n=5/2 z=1/5", symmetric_binomial(Fraction(5, 2), Fraction(1, 5))),
        ("tan-multiple n=5/2 t=1/7", tan_multiple(Fraction(5, 2), Fraction(1, 7))),
        ("arctan t=1/3", arctan_cf(Fraction(1, 3))),
        ("tan theta=1/3", tan_cf(Fraction(1, 3))),
        ("log-ratio z=1/3", log_ratio_cf(Fraction(1, 3))),
        ("coth-scaled v=1/2", coth_scaled_cf(Fraction(1, 2))),
    ]


def _check_determinant() -> Iterator[Fact]:
    for name, stream in _rational_samples():
        yield _flag(f"determinant identity levels 1..20: {name}", "rational",
                    _determinant_holds(stream, 20))


# --------------------------------------------------------------------------
# engine


def _check_engine() -> Iterator[Fact]:
    for name, stream in (
        ("coth-scaled v=1/2", coth_scaled_cf(Fraction(1, 2))),
        ("symmetric n=5/2 z=1/5", symmetric_binomial(Fraction(5, 2), Fraction(1, 5))),
    ):
        forward = convergents(stream, 12)[-1].value
        backward = eval_backward(stream, 12)
        yield _exact(f"backward fold equals forward recurrence: {name}", backward, forward)
    stream = symmetric_binomial(3, Fraction(1, 2))
    same = convergents(stream, 20) == convergents(stream, 2)
    yield _flag("convergents past termination repeat the terminal value", "rational", same)
    tol = ToleranceSpec(rel_tol=1e-12)
    samples = [
        ("lagrange n=1/2 x=0.25", lagrange_binomial(Fraction(1, 2), 0.25)),
        ("uniform n=1/3 x=0.3", uniform_binomial(Fraction(1, 3), 0.3)),
        ("symmetric n=5/2 z=0.3", symmetric_binomial(Fraction(5, 2), 0.3)),
        ("tan-multiple n=5/2 t=0.2", tan_multiple(Fraction(5, 2), 0.2)),
        ("arctan t=1.0", arctan_cf(1.0)),
        ("tan theta=1.0", tan_cf(1.0)),
        ("log-ratio z=1/3", log_ratio_cf(1 / 3)),
        ("coth-scaled v=1.0", coth_scaled_cf(1.0)),
    ]
    bound = 10 * tol.rel_tol
    for name, stream in samples:
        lentz = eval_lentz(stream, tol, 4000)
        direct = eval_convergents(stream, tol, 4000)
        err = _float_diff(lentz.value, direct.value, relative=True)
        ok = lentz.converged and direct.converged and err <= bound
        yield f"lentz agrees with the forward recurrence: {name}", "float", ok, err, bound, ""


# --------------------------------------------------------------------------

GROUPS: dict[str, Callable[[], Iterator[Fact]]] = {
    "termination": _check_termination,
    "n-negation": _check_n_negation,
    "tail-reduction": _check_tail_reduction,
    "substitution": _check_substitution,
    "cross-family": _check_cross_family,
    "imaginary": _check_imaginary,
    "tangent-multiples": _check_tangent_multiples,
    "limit-families": _check_limit_families,
    "series-ratio": _check_series_ratio,
    "determinant": _check_determinant,
    "engine": _check_engine,
}


def run_checks(only: Optional[str] = None, mode: Optional[str] = None) -> list[CheckResult]:
    """Run the identity checks, optionally restricted to one group and/or
    one scalar mode.  Failures are reported in the results, not raised;
    filters that select no check raise :class:`DomainError`.  Each group
    yields its facts and the result is built here, under the group's key."""
    if only is not None and only not in GROUPS:
        known = ", ".join(sorted(GROUPS))
        raise DomainError(f"unknown check group {only!r}; known groups: {known}")
    groups = [only] if only is not None else list(GROUPS)
    results = [CheckResult(group, *fact) for group in groups for fact in GROUPS[group]()]
    if mode is not None:
        results = [r for r in results if r.mode == mode]
    if not results:
        raise DomainError(f"no check matches only={only!r}, mode={mode!r}")
    return results
