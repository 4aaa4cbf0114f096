"""Family generator tests: term laws, exact termination, oracle agreement."""

import math
import re
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from confrac import (
    EXACT,
    CFStream,
    DomainError,
    Family,
    FamilySpec,
    ToleranceSpec,
    arctan_cf,
    binomial_power,
    convergents,
    coth_scaled_cf,
    eval_convergents,
    equivalence_transform,
    eval_lentz,
    lagrange_binomial,
    log_ratio_cf,
    series_ratio_coth,
    symmetric_binomial,
    symmetric_lhs,
    tail,
    tan_cf,
    tan_multiple,
    tan_multiple_lhs,
    uniform_binomial,
)
from confrac.engine import _integral

TOL = ToleranceSpec(rel_tol=1e-13)


def exact_value(stream, max_depth=64):
    return eval_convergents(stream, EXACT, max_depth).value


class TestLagrangeBinomial:
    def test_term_law(self):
        n, x = Fraction(1, 2), Fraction(1, 4)
        cf = lagrange_binomial(n, x)
        assert cf.b0 == 1
        assert cf.term(1).a == n * x and cf.term(1).b == 1
        # even levels: (m - n)x over 2; odd levels: (m + n)x over 2m+1
        assert cf.term(2).a == (1 - n) * x and cf.term(2).b == 2
        assert cf.term(3).a == (1 + n) * x and cf.term(3).b == 3
        assert cf.term(4).a == (2 - n) * x and cf.term(4).b == 2
        assert cf.term(5).a == (2 + n) * x and cf.term(5).b == 5
        assert cf.term(7).a == (3 + n) * x and cf.term(7).b == 7

    def test_exact_square(self):
        assert exact_value(lagrange_binomial(2, Fraction(1, 2))) == Fraction(9, 4)

    def test_exact_reciprocal(self):
        assert exact_value(lagrange_binomial(-1, Fraction(1, 3))) == Fraction(3, 4)

    def test_float_square_root(self):
        report = eval_lentz(lagrange_binomial(Fraction(1, 2), 0.2), ToleranceSpec(rel_tol=1e-12))
        assert abs(report.value - math.sqrt(1.2)) < 1e-11

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_positive_termination_level(self, n):
        assert lagrange_binomial(n, Fraction(1, 3)).termination_level(64) == 2 * n

    @pytest.mark.parametrize("n", [-1, -2, -3, -4])
    def test_negative_termination_level(self, n):
        assert lagrange_binomial(n, Fraction(1, 3)).termination_level(64) == 2 * abs(n) + 1

    def test_integer_n_terminates_exactly_in_float_mode(self):
        cf = lagrange_binomial(2, 0.3)
        assert cf.term(4).a == 0.0
        assert cf.termination_level(64) == 4
        report = eval_convergents(cf, TOL, 64)
        assert report.terminated
        assert abs(report.value - 1.3**2) < 1e-15

    def test_float_exponent_that_is_integral_still_terminates(self):
        assert lagrange_binomial(2.0, 0.3).termination_level(64) == 4

    def test_nonfinite_argument_rejected(self):
        with pytest.raises(DomainError):
            lagrange_binomial(2, float("inf"))


class TestUniformBinomial:
    def test_term_law(self):
        n, x = Fraction(1, 2), Fraction(1, 4)
        cf = uniform_binomial(n, x)
        assert cf.b0 == 1
        assert cf.term(1).a == n * x
        assert cf.term(1).b == 1 + (1 - n) * x / 2
        for k in (2, 3, 5):
            assert cf.term(k).a == (n * n - (k - 1) ** 2) * x * x / 4
            assert cf.term(k).b == (2 * k - 1) * (1 + x / 2)

    def test_exact_square(self):
        assert exact_value(uniform_binomial(2, Fraction(1, 2))) == Fraction(9, 4)

    def test_n_one_terminates_to_one_plus_x(self):
        x = Fraction(3, 7)
        cf = uniform_binomial(1, x)
        assert cf.termination_level(16) == 2
        assert exact_value(cf) == 1 + x

    def test_float_cube_root(self):
        report = eval_lentz(uniform_binomial(Fraction(1, 3), 0.3), ToleranceSpec(rel_tol=1e-12))
        assert abs(report.value - 1.3 ** (1 / 3)) < 1e-11

    @pytest.mark.parametrize("n", [1, 2, 3, -1, -2, -3])
    def test_termination_level(self, n):
        cf = uniform_binomial(n, Fraction(1, 2))
        assert cf.termination_level(32) == abs(n) + 1
        assert exact_value(cf) == (1 + Fraction(1, 2)) ** n


class TestSymmetricBinomial:
    def test_term_law(self):
        n, z = Fraction(5, 2), Fraction(1, 5)
        cf = symmetric_binomial(n, z)
        for k in (1, 2, 3, 7):
            assert cf.term(k).a == (n * n - k * k) * z * z
            assert cf.term(k).b == 2 * k + 1

    @pytest.mark.parametrize("n", [2, -2])
    @pytest.mark.parametrize("z", [Fraction(1, 3), Fraction(2, 5)])
    def test_exact_one_plus_z_squared(self, n, z):
        assert exact_value(symmetric_binomial(n, z)) == 1 + z * z

    @pytest.mark.parametrize("n", [3, -3])
    @pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(1, 4)])
    def test_exact_cubic_fixture(self, n, z):
        want = 3 * (1 + 3 * z * z) / (3 + z * z)
        assert exact_value(symmetric_binomial(n, z)) == want

    def test_non_integer_matches_closed_form(self):
        got = eval_lentz(symmetric_binomial(Fraction(5, 2), 0.3), TOL, 2000).value
        want = symmetric_lhs(Fraction(5, 2), 0.3).value
        assert abs(got - want) / abs(want) < 1e-12

    def test_negated_exponent_generates_identical_terms(self):
        plus = symmetric_binomial(Fraction(5, 2), Fraction(1, 5))
        minus = symmetric_binomial(Fraction(-5, 2), Fraction(1, 5))
        for k in range(1, 21):
            assert plus.term(k) == minus.term(k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_termination_level_matches_exponent(self, n):
        assert symmetric_binomial(n, Fraction(1, 3)).termination_level(64) == n

    def test_imaginary_argument_stays_real(self):
        report = eval_lentz(symmetric_binomial(Fraction(5, 2), 0.4j), TOL, 2000)
        assert abs(report.value.imag) < 1e-12
        want = 2.5 * 0.4 / math.tan(2.5 * math.atan(0.4))
        assert abs(report.value.real - want) < 1e-10


class TestTanMultiple:
    def test_exact_double_angle(self):
        assert exact_value(tan_multiple(2, Fraction(1, 4))) == Fraction(8, 15)

    def test_exact_triple_angle(self):
        assert exact_value(tan_multiple(3, Fraction(1, 5))) == Fraction(37, 55)

    def test_non_integer_multiple(self):
        got = eval_lentz(tan_multiple(Fraction(5, 2), 0.2), TOL, 2000).value
        want = tan_multiple_lhs(Fraction(5, 2), 0.2).value
        assert abs(got - want) / abs(want) < 1e-11

    def test_unit_multiple_returns_argument(self):
        t = Fraction(2, 7)
        assert exact_value(tan_multiple(1, t)) == t

    def test_zero_multiple_returns_zero(self):
        report = eval_convergents(tan_multiple(0, 0.3), TOL, 16)
        assert report.terminated and report.value == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_termination_level(self, n):
        assert tan_multiple(n, Fraction(1, 5)).termination_level(32) == n + 1


class TestArctan:
    def test_zero_argument(self):
        report = eval_convergents(arctan_cf(0.0), TOL, 16)
        assert report.terminated and report.value == 0.0

    def test_unit_argument_reaches_quarter_pi(self):
        value = convergents(arctan_cf(1.0), 50)[-1].value
        assert abs(value - math.pi / 4) < 1e-12

    def test_argument_two(self):
        value = convergents(arctan_cf(2.0), 120)[-1].value
        assert abs(value - math.atan(2.0)) < 1e-11

    def test_complex_argument_rejected(self):
        with pytest.raises(DomainError):
            arctan_cf(1 + 1j)


class TestTan:
    def test_zero_argument(self):
        report = eval_convergents(tan_cf(0.0), TOL, 16)
        assert report.terminated and report.value == 0.0

    def test_unit_argument(self):
        value = convergents(tan_cf(1.0), 30)[-1].value
        assert abs(value - math.tan(1.0)) < 1e-12

    def test_quarter_pi_is_one(self):
        value = convergents(tan_cf(math.pi / 4), 30)[-1].value
        assert abs(value - 1.0) < 1e-12

    @pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2, 3 * math.pi / 2, math.pi / 2 + 1e-9,
                                       Fraction(math.pi / 2) + Fraction(1, 10**5000)])
    def test_pole_guard(self, theta):
        with pytest.raises(DomainError):
            tan_cf(theta)

    @pytest.mark.parametrize("theta", [Fraction(10**5000), -(10**400)], ids=["fraction", "int"])
    def test_pole_guard_past_the_float_range(self, theta):
        # float(theta) raised an untyped OverflowError
        with pytest.raises(DomainError, match="theta is past the float range"):
            tan_cf(theta)


class TestLogRatio:
    def test_zero_argument(self):
        report = eval_convergents(log_ratio_cf(0.0), TOL, 16)
        assert report.terminated and report.value == 0.0

    def test_log_two(self):
        value = convergents(log_ratio_cf(1 / 3), 40)[-1].value
        assert abs(value - math.log(2)) < 1e-12

    def test_log_three(self):
        value = convergents(log_ratio_cf(0.5), 100)[-1].value
        assert abs(value - math.log(3)) < 1e-11

    @pytest.mark.parametrize("z, text", [(1.5, "1.5"), (1.0, "1.0"), (-1.0, "-1.0"), (-2.0, "-2.0"), (2, "2"),
                                         (Fraction(-3, 2), "Fraction(-3, 2)")])
    def test_domain_guard(self, z, text):
        with pytest.raises(DomainError, match=rf"^log_ratio_cf requires \|z\| < 1, got {re.escape(text)}$"):
            log_ratio_cf(z)

    def test_domain_guard_past_the_digit_limit(self):
        # repr of a Fraction of over 4 300 digits raised ValueError
        with pytest.raises(DomainError, match=r"got Fraction\(1000") as caught:
            log_ratio_cf(Fraction(10**5000))
        assert caught.value.args[0].endswith("000, 1)") and len(caught.value.args[0]) > 5000


class TestCothScaled:
    def test_zero_argument_terminates_to_one(self):
        report = eval_convergents(coth_scaled_cf(0.0), TOL, 16)
        assert report.terminated and report.value == 1.0

    def test_unit_argument(self):
        value = convergents(coth_scaled_cf(1.0), 20)[-1].value
        want = (math.e**2 + 1) / (math.e**2 - 1)
        assert abs(value - want) < 1e-13

    def test_matches_series_ratio(self):
        got = eval_lentz(coth_scaled_cf(0.7), TOL, 2000).value
        assert abs(got - series_ratio_coth(0.7, 20).value) < 1e-12


class TestFamilySpec:
    def test_requires_exponent(self):
        with pytest.raises(DomainError):
            FamilySpec(Family.SYMMETRIC_BINOMIAL, Fraction(1, 3))

    def test_rejects_stray_exponent(self):
        with pytest.raises(DomainError):
            FamilySpec(Family.ARCTAN, 1.0, n=2)

    def test_exponent_normalized_to_fraction(self):
        spec = FamilySpec(Family.SYMMETRIC_BINOMIAL, 0.3, n=2.5)
        assert spec.n == Fraction(5, 2)

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_exponent_is_a_domain_error(self, n):
        # inf and nan have no exact form: a DomainError naming n, as a non-finite argument raises
        for build in [lambda: FamilySpec(Family.LAGRANGE_BINOMIAL, 0.3, n), lambda: binomial_power(n, 0.3),
                      *[lambda f=f: f.generator(n, 0.3) for f in Family if f.takes_n]]:
            with pytest.raises(DomainError, match="^n must be finite"):
                build()

    @pytest.mark.parametrize("family", list(Family))
    def test_stream_dispatch_matches_generator(self, family):
        generator = {
            Family.LAGRANGE_BINOMIAL: lagrange_binomial,
            Family.UNIFORM_BINOMIAL: uniform_binomial,
            Family.SYMMETRIC_BINOMIAL: symmetric_binomial,
            Family.TAN_MULTIPLE: tan_multiple,
            Family.ARCTAN: arctan_cf,
            Family.TAN: tan_cf,
            Family.LOG_RATIO: log_ratio_cf,
            Family.COTH_SCALED: coth_scaled_cf,
        }[family]
        arg = Fraction(1, 3)
        if family.takes_n:
            spec, direct = FamilySpec(family, arg, n=2), generator(2, arg)
        else:
            spec, direct = FamilySpec(family, arg), generator(arg)
        assert convergents(spec.stream(), 8) == convergents(direct, 8)

    @pytest.mark.parametrize("family", list(Family))
    def test_terms_have_the_argument_type(self, family):
        # an int argument is a rational one: every coefficient is a Fraction
        whole = 0 if family is Family.LOG_RATIO else 2  # log-ratio needs |z| < 1
        for arg, want in ((0.3, float), (Fraction(3, 10), Fraction), (0.3 + 0j, complex), (whole, Fraction)):
            stream = family.generator(Fraction(5, 2), arg) if family.takes_n else family.generator(arg)
            values = [stream.b0]
            for k in range(1, 7):
                t = stream.term(k)
                values += [t.a, t.b]
            assert all(type(v) is want for v in values), (family, arg)

    @pytest.mark.parametrize("n", [Fraction(5, 2), 3])
    @pytest.mark.parametrize("family", list(Family))
    def test_an_int_argument_gives_the_levels_of_its_fraction(self, family, n):
        # the one level rule reads an int argument as the equal Fraction, in term(k) and in the cleared walk
        whole = 0 if family is Family.LOG_RATIO else 2  # log-ratio needs |z| < 1
        at_int, at_fraction = (family.generator(n, arg) if family.takes_n else family.generator(arg)
                               for arg in (whole, Fraction(whole)))
        assert [at_int.term(k) for k in range(1, 41)] == [at_fraction.term(k) for k in range(1, 41)]
        assert _listed(*at_int._cleared(), 40) == _listed(*at_fraction._cleared(), 40)

    def test_unknown_family_name(self):
        with pytest.raises(DomainError):
            Family.from_name("nope")

    def test_binomial_oracle_consistency(self):
        # cross-check the two binomial streams against the power oracle
        n, x = Fraction(1, 2), 0.25
        power = binomial_power(n, x).value
        for gen in (lagrange_binomial, uniform_binomial):
            got = eval_lentz(gen(n, x), ToleranceSpec(rel_tol=1e-12), 2000).value
            assert abs(got - power) / power < 1e-11


def _reference_term(family, n, x, k):
    """Level k written out as the exact-coefficient law: each coefficient is
    computed as a Fraction, cast to x's type and multiplied ``cast(α)·x·x``."""
    cast = type(x)
    one = cast(1)
    if family in (Family.SYMMETRIC_BINOMIAL, Family.COTH_SCALED):
        j = k  # no head level
    elif k == 1:
        if family is Family.LAGRANGE_BINOMIAL:
            return cast(n) * x, one
        if family is Family.UNIFORM_BINOMIAL:
            return cast(n) * x, one + cast((1 - n) / 2) * x
        if family is Family.TAN_MULTIPLE:
            return cast(n) * x, one
        if family is Family.LOG_RATIO:
            return cast(2) * x, one
        return x, one  # arctan, tan
    else:
        j = k - 1
    if family is Family.LAGRANGE_BINOMIAL:
        alpha = (j + 1) // 2 - n if j % 2 else j // 2 + n
        return cast(alpha) * x, cast(2 if j % 2 else j + 1)
    if family is Family.UNIFORM_BINOMIAL:
        return cast((n * n - j * j) / 4) * x * x, cast(2 * j + 1) * (one + cast(Fraction(1, 2)) * x)
    b = cast(2 * j + 1)
    if family is Family.SYMMETRIC_BINOMIAL:
        return cast(n * n - j * j) * x * x, b
    if family is Family.TAN_MULTIPLE:
        return cast(j * j - n * n) * x * x, b
    if family is Family.ARCTAN:
        return cast(Fraction(j * j)) * x * x, b
    if family is Family.LOG_RATIO:
        return cast(Fraction(-j * j)) * x * x, b
    if family is Family.TAN:
        return cast(Fraction(-1)) * x * x, b
    return cast(Fraction(1)) * x * x, b  # coth-scaled


def _bits(value):
    # equal bits, not just equal values: the sign of a zero counts too
    if isinstance(value, complex):
        return "complex", value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return "float", value.hex()
    return type(value).__name__, value


#: Float-derived exponents (denominators of 51 to 72 bits), negative and integer ones.
LAW_EXPONENTS = [2.37, -2.37, 1e-6, Fraction(-3, 2), Fraction(7, 3), 3, -4, 0]
LAW_ARGS = {
    "float": (0.37, -0.61),
    "rational": (Fraction(3, 7), Fraction(-5, 11), Fraction(-3, 4)),
    "complex": (complex(0.3, 0.4), complex(-0.61, 0.0)),
}
#: Termination level of each integer-exponent family (module docstring).
TERMINATION_LEVEL = {
    Family.SYMMETRIC_BINOMIAL: lambda n: abs(n),
    Family.UNIFORM_BINOMIAL: lambda n: abs(n) + 1,
    Family.LAGRANGE_BINOMIAL: lambda n: 2 * n if n > 0 else 2 * abs(n) + 1,
    Family.TAN_MULTIPLE: lambda n: abs(n) + 1,
}


REAL_ONLY = (Family.TAN_MULTIPLE, Family.ARCTAN, Family.TAN, Family.LOG_RATIO)


def _listed(head, rows, depth=None):
    # _cleared()'s pair and its first depth rows, all of them by default
    return head, list(islice(rows, depth))


def _assert_int_walk_reads_the_terms(stream, levels=40):
    # a rational family's cleared walk, read off its law, against the engine's least
    # clearing of the default int walk of a user copy, read off the lowest-terms
    # Fractions of term(k) for k = 1..levels: the same (c_k, A_k, B_k), all ints
    copy = CFStream.from_terms(stream.b0, [stream.term(k) for k in range(1, levels + 1)])
    head, cleared = _listed(*stream._cleared(), levels)
    assert head == stream.b0.as_integer_ratio() and cleared == list(_integral(copy.b0, copy._walk()))
    assert all(type(i) is int for level in cleared for i in level)


class TestIntegerLaws:
    """The integer coefficient laws reproduce the exact-coefficient formula
    bit for bit in every mode, and keep the integer-exponent zero exact."""

    @staticmethod
    def _args(family, mode):
        return [x for x in LAW_ARGS[mode]
                if not (family in REAL_ONLY and isinstance(x, complex) and x.imag)]

    @pytest.mark.parametrize("mode", list(LAW_ARGS))
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_levels_match_the_exact_coefficient_formula(self, family, mode):
        exponents = LAW_EXPONENTS if family.takes_n else [None]
        for n in exponents:
            for x in self._args(family, mode):
                stream = family.generator(n, x) if family.takes_n else family.generator(x)
                exact_n = None if n is None else Fraction(n)
                for k in range(1, 41):
                    t = stream.term(k)
                    want = _reference_term(family, exact_n, x, k)
                    assert (_bits(t.a), _bits(t.b)) == tuple(map(_bits, want)), (n, x, k)

    @given(st.floats(min_value=-60, max_value=60), st.floats(min_value=-0.95, max_value=0.95),
           st.sampled_from([f for f in Family if f.takes_n]))
    def test_float_exponents_match_bit_for_bit(self, n, x, family):
        stream = family.generator(n, x)
        for k in range(1, 41):
            t = stream.term(k)
            want = _reference_term(family, Fraction(n), x, k)
            assert (_bits(t.a), _bits(t.b)) == tuple(map(_bits, want))

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_int_walk_is_the_walk_of_the_terms(self, family):
        exponents = LAW_EXPONENTS if family.takes_n else [None]
        for n in exponents:
            for x in LAW_ARGS["rational"]:
                _assert_int_walk_reads_the_terms(family.generator(n, x) if family.takes_n
                                                 else family.generator(x))

    @given(st.sampled_from(list(Family)),
           st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=8)),
           st.fractions(Fraction(-19, 20), Fraction(19, 20), max_denominator=50))
    def test_int_walk_is_the_walk_of_the_terms_at_any_argument(self, family, n, x):
        try:
            stream = family.generator(n, x) if family.takes_n else family.generator(x)
        except DomainError:
            assume(False)
        _assert_int_walk_reads_the_terms(stream)

    @pytest.mark.parametrize("stream", [
        arctan_cf(Fraction(5, 3)),  # gcd(α(j)·P, den·Q) = 9 at 3 | j
        symmetric_binomial(Fraction(5, 2), Fraction(3, 5)),  # gcd(α(j)·P·c, den·Q) > 1
        uniform_binomial(Fraction(7, 3), Fraction(-2, 11)),  # a head with d; b_j = (2j+1)·10/11
        uniform_binomial(Fraction(1, 2), Fraction(-9, 10)),  # b_j = (2j+1)·11/20
        uniform_binomial(Fraction(7, 3), 4),  # b_j = (2j+1)·3/1
        lagrange_binomial(Fraction(-7, 2), Fraction(9, 4)),
        tan_multiple(Fraction(5, 3), Fraction(-6, 5)),
        lagrange_binomial(3, Fraction(0)),  # x = 0: no level, the head's included
        uniform_binomial(Fraction(1, 2), Fraction(0)),
        arctan_cf(0),
        coth_scaled_cf(Fraction(0)),
    ], ids=lambda s: s.description)
    def test_int_walk_keeps_the_least_factors_deep(self, stream):
        # 150 levels where the factor carried from the level before shares content
        # with the law's den·Q, or uniform's b_j is not integral; and x = 0
        _assert_int_walk_reads_the_terms(stream, 150)

    @pytest.mark.parametrize("build", [
        lambda x: lagrange_binomial(3, x), lambda x: uniform_binomial(-2, x),
        lambda x: symmetric_binomial(Fraction(5, 2), x), lambda x: arctan_cf(x), lambda x: coth_scaled_cf(x),
    ], ids=["lagrange", "uniform", "symmetric", "arctan", "coth-scaled"])
    def test_cleared_levels_from_any_level(self, build):
        # _cleared(k), past the law's zero too, is b_k in lowest terms and the least clearing below it
        # of a user copy of levels k + 1, ...; a float law's is its rational twin's, read off x's binary ratio
        cf, twin = build(0.3), build(Fraction(0.3))
        for k in range(10):
            b = twin.b0 if k == 0 else twin.term(k).b
            copy = CFStream.from_terms(b, [twin.term(j) for j in range(k + 1, k + 31)])
            assert _listed(*cf._cleared(k), 30) == _listed(*twin._cleared(k), 30) == _listed(*copy._cleared(), 30)

    @pytest.mark.parametrize("mode", list(LAW_ARGS))
    @pytest.mark.parametrize("family", list(TERMINATION_LEVEL), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [1, 2, 3, 7, -1, -2, -5])
    def test_integer_exponent_zero_is_exact_at_the_termination_level(self, family, mode, n):
        level = TERMINATION_LEVEL[family](n)
        for x in self._args(family, mode):
            stream = family.generator(n, x)
            a = stream.term(level).a
            assert a == 0 and type(a) is type(x)
            assert all(stream.term(k).a != 0 for k in range(1, level))
            assert stream.termination_level(100) == stream._end == level

    @pytest.mark.parametrize("build, value", [(arctan_cf, 1e-200), (tan_cf, 1e-200),
                                              (log_ratio_cf, 2e-200)],
                             ids=["arctan", "tan", "log-ratio"])
    @pytest.mark.parametrize("evaluate", [eval_lentz, eval_convergents])
    def test_underflowed_numerator_is_no_termination(self, build, value, evaluate):
        # a_2 = α·t·t rounds to 0.0 at t = 1e-200; the law's α is not zero
        report = evaluate(build(1e-200), TOL, 50)
        assert report.value == value and report.depth_used == 2
        assert report.converged and not report.terminated

    @pytest.mark.parametrize("wrap", [lambda s: tail(s, 1),
                                      lambda s: equivalence_transform(s, lambda k: 1.0)],
                             ids=["tail", "equivalence"])
    def test_structural_operations_keep_the_laws_termination(self, wrap):
        # the wrapped level's zero flag, not the underflowed a_2 = 0.0, decides
        stream = wrap(arctan_cf(1e-200))
        assert stream.termination_level(30) is None
        report = eval_lentz(stream, TOL, 50)
        assert report.converged and not report.terminated

    @pytest.mark.parametrize("stream, level", [
        (symmetric_binomial(2, 1e-200), 2),
        (uniform_binomial(3, 1e-300), 4),
        (lagrange_binomial(Fraction(1, 2), 5e-324), None),  # head n·x rounds to 0.0
        (lagrange_binomial(0, 0.3), 1),  # the head's h is 0
        (symmetric_binomial(Fraction(1, 2), 0.0), 1),
    ], ids=["symmetric", "uniform", "lagrange", "lagrange-h-zero", "symmetric-x-zero"])
    def test_termination_level_is_read_off_the_law(self, stream, level):
        assert stream.termination_level(30) == stream._end == level

    def test_termination_level_answers_from_the_recorded_end(self):
        # the law's end is read once, when the stream is built; no walk repeats it
        stream = symmetric_binomial(30000, 0.5)

        def walk():
            raise AssertionError("termination_level walked a stream whose end is recorded")

        stream._walk = walk
        assert stream.termination_level(40000) == stream.termination_level(30000) == 30000
        assert stream.termination_level(20000) is None and stream.termination_level(29999) is None

    @given(st.sampled_from(list(Family)), st.sampled_from(list(LAW_ARGS)), st.data())
    def test_walk_reads_the_levels_term_returns(self, family, mode, data):
        # the evaluators' walk and term(k) share one level function: same
        # bits and types, and the walk stops only at the law's exact zero,
        # also through a tail or an equivalence transform of the stream
        n = data.draw(st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=8),
                                st.floats(-6, 6)))
        real = st.one_of(st.floats(-0.95, 0.95), st.sampled_from([1e-200, -1e-300, 5e-324, 0.0]))
        if mode == "rational":
            x = data.draw(st.fractions(Fraction(-19, 20), Fraction(19, 20), max_denominator=50))
        elif mode == "float":
            x = data.draw(real)
        else:
            x = complex(data.draw(real), 0.0 if family in REAL_ONLY else data.draw(real))
        try:
            stream = family.generator(n, x) if family.takes_n else family.generator(x)
        except DomainError:
            assume(False)
        s, one = data.draw(st.integers(1, 4)), type(x)(1)
        law = sum(1 for _ in islice(stream._walk(), 30 + s))  # the levels before the law's zero
        for wrapped, levels in ((stream, law), (tail(stream, s), law - s),
                                (equivalence_transform(stream, lambda k: one), law)):
            walk = list(islice(wrapped._walk(), 30))
            for k, (a, b) in enumerate(walk, 1):
                t = wrapped.term(k)
                assert (_bits(a), _bits(b)) == (_bits(t.a), _bits(t.b))
            if levels >= 0:  # a tail from past the zero walks on
                assert len(walk) == min(levels, 30)
            if len(walk) < 30:
                assert wrapped.term(len(walk) + 1).a == 0


class TestOneLawObject:
    """A family stream is one object of one class: its walks, level and exact
    form are the class's methods, not per-stream closures, and its label is
    the same text as before, formatted when read."""

    @pytest.mark.parametrize("mode", list(LAW_ARGS))
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_law_methods_resolve_to_the_class(self, family, mode):
        x = LAW_ARGS[mode][0]
        if family in REAL_ONLY and isinstance(x, complex):
            x = complex(x.real, 0.0)
        stream = family.generator(Fraction(5, 2), x) if family.takes_n else family.generator(x)
        assert stream.mode.value == mode
        for name in ("_walk", "_level", "_cleared"):
            assert name not in vars(stream), name

    @pytest.mark.parametrize("stream, label", [
        (lambda: lagrange_binomial(2.5, 0.3), "lagrange-binomial(n=5/2, x=0.3)"),
        (lambda: arctan_cf(0.5), "arctan(0.5)"),
        (lambda: symmetric_binomial(Fraction(5, 2), Fraction(1, 5)),
         "symmetric-binomial(n=5/2, z=Fraction(1, 5))"),
        (lambda: tail(arctan_cf(0.5), 2), "tail(arctan(0.5), 2)"),
        (lambda: lagrange_binomial(3, Fraction(0.3)),
         "lagrange-binomial(n=3, x=Fraction(5404319552844595, 18014398509481984))"),
    ], ids=["lagrange", "arctan", "symmetric", "tail", "exact-form"])
    def test_description_is_unchanged(self, stream, label):
        assert stream().description == label


#: Float exponents whose exact ratios are wide: N/D with D = 2^53, 2^51 and 2^41.
WIDE_EXPONENTS = [0.37, -2.77, 1234.56]
WIDE_ARGS = [0.3, -0.45, complex(0.3, 0.4), complex(-0.45, 0.0), complex(0.0, 0.5)]
#: Exponents M·2^-e, M odd, so D = 2^e, on both sides of the bound within which a level's quotient is a
#: product by 1/den: den = 2^s in [2, 2^899] (den is D, D² or 4D² by family). The last is the integer
#: M·2^398, whose N is past 2^452.
POWER_OF_TWO_EXPONENTS = [math.ldexp(6004799503160661, -e) for e in (0, 1, 26, 27, 51, 449, 450, 600, -398)]


class TestWideExponentRatios:
    """At a float exponent with a wide exact ratio, every level is the exact
    coefficient α(j)/den, a Fraction written out here, rounded once and
    multiplied in the order ``cast(num/den)·x·x``; the walk yields the same
    bits, and the rational twin's cleared walk is the engine's clearing."""

    @pytest.mark.parametrize("n", WIDE_EXPONENTS)
    @pytest.mark.parametrize("family", [f for f in Family if f.takes_n], ids=lambda f: f.value)
    def test_levels_round_the_exact_coefficient_once(self, family, n):
        for x in WIDE_ARGS:
            if family in REAL_ONLY and isinstance(x, complex) and x.imag:
                continue
            stream = family.generator(n, x)
            assert stream.termination_level(60) is None
            want = [tuple(map(_bits, _reference_term(family, Fraction(n), x, k))) for k in range(1, 61)]
            assert [(_bits(t.a), _bits(t.b)) for t in map(stream.term, range(1, 61))] == want, x
            assert [(_bits(a), _bits(b)) for a, b in islice(stream._walk(), 60)] == want, x

    @pytest.mark.parametrize("n", WIDE_EXPONENTS)
    @pytest.mark.parametrize("family", [f for f in Family if f.takes_n], ids=lambda f: f.value)
    def test_rational_twin_clears_as_the_engine_does(self, family, n):
        for x in (x for x in WIDE_ARGS if isinstance(x, float)):
            twin = family.generator(n, Fraction(x))
            cleared = _listed(*family.generator(n, x)._cleared(), 60)
            assert cleared == (twin.b0.as_integer_ratio(), list(islice(_integral(twin.b0, twin._walk()), 60)))
            assert cleared == _listed(*twin._cleared(), 60)

    @pytest.mark.parametrize("n", POWER_OF_TWO_EXPONENTS)
    @pytest.mark.parametrize("family", [f for f in Family if f.takes_n], ids=lambda f: f.value)
    def test_power_of_two_denominators_round_as_int_true_division(self, family, n):
        # a quotient by den = 2^s may be a product by the exact 1/den only where it has the same bits
        for x in WIDE_ARGS:
            if family in REAL_ONLY and isinstance(x, complex) and x.imag:
                continue
            stream = family.generator(n, x)
            want = [tuple(map(_bits, _reference_term(family, Fraction(n), x, k))) for k in range(1, 41)]
            assert [(_bits(t.a), _bits(t.b)) for t in map(stream.term, range(1, 41))] == want, x

    def test_a_quotient_past_the_float_range_still_overflows(self):
        with pytest.raises(DomainError, match="^level 1 is past the float range, so it has no float value$"):
            symmetric_binomial(1e200, 0.1).term(1)


def _quotient_level(alpha, den, x, power, b):
    # the reference level's bits: α(j)/den by int true division, rounded once, times x (twice at power 2),
    # over b; DomainError where the quotient is past the float range
    try:
        a = alpha / den * x
    except OverflowError:
        return DomainError
    return _bits(a * x if power == 2 else a), _bits(b)


def _level_bits(stream, k):
    try:
        term = stream.term(k)
    except DomainError:
        return DomainError
    return _bits(term.a), _bits(term.b)


class TestOneQuotientRule:
    """A float law's level at den = 2^s is α(j)/den rounded once, as int true division rounds it, times x: on
    the product path by 1/den (den up to 2^899), and on _double's value where float(α(j)) overflows."""

    @given(m=st.integers(-(2**52), 2**52 - 1), s=st.integers(1, 53), k=st.integers(2, sys.maxsize),
           x=st.floats(-1e3, 1e3))
    def test_lagrange_at_a_float_n(self, m, s, k, x):
        # den = D up to 2^53, and α(j) = (j+1)/2·D - N or j/2·D + N passes 53 bits from j ≈ 8 at D = 2^51
        N, D, j = 2 * m + 1, 2**s, k - 1
        alpha = (j + 1) // 2 * D - N if j % 2 else j // 2 * D + N
        want = _quotient_level(alpha, D, x, 1, 2.0 if j % 2 else float(j + 1))
        assert _level_bits(lagrange_binomial(math.ldexp(N, -s), x), k) == want

    @given(m=st.integers(0, 2**1100), s=st.integers(0, 449), k=st.integers(1, sys.maxsize), z=st.floats(-1, 1))
    @example(m=(3**700 - 1) // 2, s=20, k=1, z=0.5)  # n = 3^700/2^20: every level is past the float range
    @example(m=(3**340 - 1) // 2, s=400, k=5, z=0.5)  # float(α(j)) overflows, α(j)/den is about 2^278
    @example(m=0, s=449, k=sys.maxsize, z=0.5)  # float(α(j)) overflows: this raised UnboundLocalError
    def test_symmetric_past_450_bits(self, m, s, k, z):
        # n = N/2^s with N odd, so den = D² = 2^2s up to 2^898, and |N| up to past 1100 bits
        N, D = 2 * m + 1, 2**s
        want = _quotient_level(N * N - k * k * D * D, D * D, z, 2, float(2 * k + 1))
        assert _level_bits(symmetric_binomial(Fraction(N, D), z), k) == want


def _assert_no_fraction_made(run):
    # run() with Fraction construction counted: none may be made; returns what run() returned
    made, new = [], Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counting
    try:
        result = run()
    finally:
        Fraction.__new__ = new
    assert made == []
    assert Fraction.__dict__["__new__"] is new and Fraction(3, 6) == Fraction(1, 2)
    return result


class TestNoFractionOutsideRationalMode:
    """Building and evaluating a float or complex family stream at a float
    exponent constructs no Fraction: the exponent is read as an int pair; nor
    does a float law's exact answer, its tail's or its transform's."""

    @pytest.mark.parametrize("build", [
        lambda: lagrange_binomial(-2.77, 0.3),
        lambda: uniform_binomial(1.37, -0.4),
        lambda: tan_multiple(0.63, 0.8),
        lambda: symmetric_binomial(0.77, 0.5j),
    ], ids=["lagrange", "uniform", "tan-multiple", "symmetric-complex"])
    def test_build_and_evaluate_make_no_fraction(self, build):
        reports = _assert_no_fraction_made(lambda: [eval_lentz(build(), TOL), eval_convergents(build(), TOL)])
        assert all(r.converged and not r.terminated for r in reports)

    @pytest.mark.parametrize("build", [
        lambda: lagrange_binomial(3, 0.3),
        lambda: uniform_binomial(3, 0.3),
        lambda: tail(uniform_binomial(3, 0.3), 1),
        lambda: equivalence_transform(uniform_binomial(3, 0.3), lambda k: 0.7),
        lambda: equivalence_transform(tail(uniform_binomial(3, 0.3), 1), lambda k: 0.7),
    ], ids=["lagrange", "uniform", "tail", "transform", "transform-of-tail"])
    def test_a_law_answer_makes_no_fraction(self, build):
        # the exact fold reads x's and each factor's int ratio, and rounds once by int true division
        reports = _assert_no_fraction_made(lambda: [eval_lentz(build(), TOL), eval_convergents(build(), TOL)])
        assert all(r.converged and r.terminated for r in reports)
        assert reports[0].value == reports[1].value


#: The six families whose inner levels all have b_j = 2j+1: no unit, no β of their own.
ODD_FAMILIES = [Family.SYMMETRIC_BINOMIAL, Family.TAN_MULTIPLE, Family.ARCTAN, Family.TAN, Family.LOG_RATIO,
                Family.COTH_SCALED]
#: Tail starts on both sides of 2^51 and 2^53, and near sys.maxsize: from 2^53 on, 2j+1 has no double.
ODD_STARTS = [1, 2, 2**51 - 3, 2**52 + 1, 2**54 + 1, sys.maxsize - 40]


class TestOddDenominators:
    """A walk carries b = 2j+1 from level to level by adding 2, which is exact only while 2j+1 is a double;
    every level's b is still cast(2j+1), bit for bit, where 2j+1 has no double too: from 2^53 on
    ``float(2**54 + 1) + 2.0`` is 2^54, while 2^54 + 3 rounds to 2^54 + 4.  The four real-only families
    have a head, level 1 with b = 1, so inner level j is level j + 1."""

    @staticmethod
    def _stream(family, mode):
        x = {"float": 0.37, "rational": Fraction(3, 7), "complex": complex(0.3, 0.0 if family in REAL_ONLY else 0.4)}
        return family.generator(Fraction(5, 2), x[mode]) if family.takes_n else family.generator(x[mode])

    @pytest.mark.parametrize("mode", list(LAW_ARGS))
    @pytest.mark.parametrize("family", ODD_FAMILIES, ids=lambda f: f.value)
    def test_a_level_is_two_j_plus_one(self, family, mode):
        cf, shift = self._stream(family, mode), family in REAL_ONLY
        for k in (1, 2, 3, 2**51 - 3, 2**52 + 1, 2**54 + 1, sys.maxsize):
            assert _bits(cf.term(k).b) == _bits(cf.mode.cast(2 * (k - shift) + 1)), k

    @pytest.mark.parametrize("start", ODD_STARTS)
    @pytest.mark.parametrize("mode", list(LAW_ARGS))
    @pytest.mark.parametrize("family", ODD_FAMILIES, ids=lambda f: f.value)
    def test_a_tail_walks_two_j_plus_one(self, family, mode, start):
        cf, shift = self._stream(family, mode), family in REAL_ONLY
        levels = list(islice(tail(cf, start)._walk(), 20))
        assert len(levels) == 20
        for k, (_, b) in enumerate(levels, start + 1):
            assert _bits(b) == _bits(cf.mode.cast(2 * (k - shift) + 1)), k
