"""Oracle tests: closed forms, exact-rational paths, the series ratio."""

import math
import re
import sys
from fractions import Fraction

import pytest

from confrac import (
    DomainError,
    Family,
    FamilySpec,
    binomial_power,
    coth_scaled_lhs,
    log_ratio_lhs,
    oracle_value,
    series_ratio_coth,
    symmetric_lhs,
    tan_multiple_lhs,
)
from confrac.oracles import arctan_lhs, tan_lhs


class TestBinomialPower:
    def test_exact_square(self):
        result = binomial_power(2, Fraction(1, 2))
        assert result.value == Fraction(9, 4)
        assert isinstance(result.value, Fraction)

    def test_zero_exponent(self):
        assert binomial_power(0, Fraction(17, 3)).value == 1
        assert binomial_power(0, 0.9).value == 1

    def test_negative_exponent_exact(self):
        assert binomial_power(-3, Fraction(1, 2)).value == Fraction(8, 27)

    def test_square_root(self):
        result = binomial_power(Fraction(1, 2), 0.2)
        assert isinstance(result.value, float)
        assert abs(result.value - math.sqrt(1.2)) < 1e-15

    def test_minus_one_with_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            binomial_power(-2, Fraction(-1))
        with pytest.raises(DomainError):
            binomial_power(-2, -1.0)

    def test_nonpositive_base_with_fractional_exponent_rejected(self):
        with pytest.raises(DomainError):
            binomial_power(Fraction(1, 2), -1.5)


class TestSymmetricLhs:
    def test_exact_quadratic(self):
        result = symmetric_lhs(2, Fraction(1, 3))
        assert result.value == Fraction(10, 9)
        assert isinstance(result.value, Fraction)

    def test_exact_cubic(self):
        assert symmetric_lhs(3, Fraction(1, 2)).value == Fraction(21, 13)

    def test_even_in_exponent(self):
        assert symmetric_lhs(-3, Fraction(1, 2)).value == symmetric_lhs(3, Fraction(1, 2)).value

    def test_float_path_matches_direct_formula(self):
        n, z = 2.5, 0.3
        want = n * z * ((1 + z) ** n + (1 - z) ** n) / ((1 + z) ** n - (1 - z) ** n)
        assert symmetric_lhs(Fraction(5, 2), z).value == pytest.approx(want, rel=1e-15)

    def test_zero_exponent_rejected(self):
        with pytest.raises(DomainError):
            symmetric_lhs(0, Fraction(1, 3))

    def test_argument_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            symmetric_lhs(2, Fraction(3, 2))

    def test_zero_argument_rejected(self):
        with pytest.raises(DomainError):
            symmetric_lhs(2, Fraction(0))


class TestTanMultipleLhs:
    def test_double_angle_fixture(self):
        assert tan_multiple_lhs(2, 0.25).value == pytest.approx(8 / 15, rel=1e-15)

    def test_identity_multiple(self):
        t = 0.37
        assert tan_multiple_lhs(1, t).value == pytest.approx(t, rel=1e-15)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            tan_multiple_lhs(2, 1.0)  # 2 * arctan(1) = pi/2


class TestLogRatioLhs:
    def test_zero(self):
        assert log_ratio_lhs(0.0).value == 0.0

    def test_log_two(self):
        assert abs(log_ratio_lhs(1 / 3).value - math.log(2)) < 5e-16

    def test_log_three(self):
        assert abs(log_ratio_lhs(0.5).value - math.log(3)) < 5e-16

    def test_domain(self):
        with pytest.raises(DomainError):
            log_ratio_lhs(1.0)


class TestCothScaledLhs:
    def test_unit_value(self):
        want = (math.e**2 + 1) / (math.e**2 - 1)
        assert coth_scaled_lhs(1.0).value == pytest.approx(want, rel=1e-15)

    def test_even_function(self):
        assert coth_scaled_lhs(-1.0).value == pytest.approx(coth_scaled_lhs(1.0).value, rel=1e-15)

    def test_half_argument(self):
        v = 0.5
        want = v * (math.exp(2 * v) + 1) / (math.exp(2 * v) - 1)
        assert coth_scaled_lhs(v).value == pytest.approx(want, rel=1e-14)

    def test_zero_argument_rejected(self):
        with pytest.raises(DomainError):
            coth_scaled_lhs(0.0)


class TestSeriesRatioCoth:
    def test_zero_argument_is_one(self):
        assert series_ratio_coth(Fraction(0), 5).value == 1
        assert series_ratio_coth(0.0, 5).value == 1.0

    def test_three_term_exact_fixture(self):
        # (1 + 1/8 + 1/384) / (1 + 1/24 + 1/1920) reduced by hand
        result = series_ratio_coth(Fraction(1, 2), 3)
        assert result.value == Fraction(2165, 2001)
        assert isinstance(result.value, Fraction)

    def test_twenty_terms_match_closed_form(self):
        got = series_ratio_coth(0.7, 20).value
        assert abs(got - coth_scaled_lhs(0.7).value) < 1e-14

    def test_terms_must_be_positive(self):
        with pytest.raises(ValueError):
            series_ratio_coth(0.7, 0)


class TestOracleValue:
    def test_dispatch_per_family(self):
        cases = [
            (FamilySpec(Family.LAGRANGE_BINOMIAL, 0.25, n=Fraction(1, 2)), math.sqrt(1.25)),
            (FamilySpec(Family.UNIFORM_BINOMIAL, Fraction(1, 2), n=2), Fraction(9, 4)),
            (FamilySpec(Family.SYMMETRIC_BINOMIAL, Fraction(1, 3), n=2), Fraction(10, 9)),
            (FamilySpec(Family.TAN_MULTIPLE, 0.25, n=2), 8 / 15),
            (FamilySpec(Family.ARCTAN, 1.0), math.pi / 4),
            (FamilySpec(Family.TAN, 1.0), math.tan(1.0)),
            (FamilySpec(Family.LOG_RATIO, 0.5), math.log(3)),
            (FamilySpec(Family.COTH_SCALED, 1.0), (math.e**2 + 1) / (math.e**2 - 1)),
        ]
        for spec, want in cases:
            got = oracle_value(spec)
            if isinstance(want, Fraction):
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12)

    def test_complex_mode_has_no_oracle(self):
        with pytest.raises(DomainError):
            oracle_value(FamilySpec(Family.SYMMETRIC_BINOMIAL, 0.4j, n=Fraction(5, 2)))


class TestOraclesInTheFloatRange:
    @pytest.mark.parametrize("v", [400.0, 354.8913564466921, 1e308])
    def test_the_scaled_cotangent_past_the_range_of_its_exponential(self, v):
        # expm1(2v) raised OverflowError ("math range error") where -v gave the value
        assert coth_scaled_lhs(v).value == coth_scaled_lhs(-v).value == v

    def test_the_scaled_cotangent_keeps_its_bits_below_that_range(self):
        # only the branch that raised changed: every v with a finite e^{2v} keeps the closed form's bits
        for v in [0.5, 1.0, 19.5, 20.25, 300.0, 351.9, -354.8913564466921, -400.0]:
            em = math.expm1(2 * v)
            assert coth_scaled_lhs(v).value == v * (em + 2) / em

    @pytest.mark.parametrize("v", [352.0, 353.0, 354.5, 354.8913564466920])
    def test_the_scaled_cotangent_divides_first_where_its_numerator_overflows(self, v):
        # v·(e^{2v} + 1) passed the float range before the division by e^{2v} - 1: these gave inf
        em = math.expm1(2 * v)
        assert math.isinf(v * (em + 2))
        assert coth_scaled_lhs(v).value == v == oracle_value(FamilySpec(Family.COTH_SCALED, v))

    def test_the_symmetric_form_divides_first_where_its_numerator_overflows(self):
        # n·z·((1+z)^n + (1-z)^n) passed the float range: this gave inf, where the value is n·z ((1-z)^n is 0)
        assert symmetric_lhs(1100.5, 0.9).value == 1100.5 * 0.9 == 990.45
        assert symmetric_lhs(1100.5, -0.9).value == 990.45  # an even function of z: -inf, now the value
        assert symmetric_lhs(Fraction(2201, 2), 0.9).value == 990.45
        exact = symmetric_lhs(1100, Fraction(9, 10)).value  # its numerator is past the float range, and exact
        assert type(exact) is Fraction and 0 < exact - 990 < Fraction(1, 10**300)

    @pytest.mark.parametrize("v, terms", [(1e100, 5), (-1e100, 5), (1e150, 3), (1e160, 2)])
    def test_the_series_ratio_past_the_float_range_raises(self, v, terms):
        # a term v^{2k}/(2k)! of each has no double: v^4/4! at ±1e100 and 1e150, v²/2 at 1e160
        message = rf"^the series at v={re.escape(repr(v))} to {terms} terms passes the float range$"
        with pytest.raises(DomainError, match=message):
            series_ratio_coth(v, terms)

    @pytest.mark.parametrize("v, terms, want", [
        (0.7, 20, 1.1582351450618407), (0.7, 85, 1.1582351450618407), (0.7, 100, 1.1582351450618407),
        (0.7, sys.maxsize, 1.1582351450618407), (1e154, 2, 3.0), (300.0, 40, 78.8541519013425),
        (-2.5, 7, 2.533916767134925), (1e-200, 5, 1.0),
    ])
    def test_the_series_ratio_is_correctly_rounded(self, v, terms, want):
        # the exact ratio of the two terms-term sums rounded once (mpmath at 80 digits); the float sums gave
        # 1.1582351450618404 at (0.7, 20) and (0.7, 85), and raised DomainError from 86 terms on
        assert series_ratio_coth(v, terms).value == want

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_the_series_ratio_of_a_nan_or_inf_raises(self, v):
        # nan came back as the value nan, and then "value must be finite", naming no argument
        with pytest.raises(DomainError, match="^v must be finite"):
            series_ratio_coth(v, 3)

    def test_the_series_ratio_of_an_exact_argument_past_the_float_range_stays_exact(self):
        big = Fraction(10**200)
        assert series_ratio_coth(big, 3).value == (1 + big**2 / 2 + big**4 / 24) / (1 + big**2 / 6 + big**4 / 120)

    @pytest.mark.parametrize("n", [1.5e308, -1.5e308, Fraction(10**308 * 3, 2)])
    def test_a_multiple_angle_past_the_float_range_raises(self, n):
        # n·arctan t overflowed to inf, and math.cos(inf) raised an untyped ValueError ("math domain error")
        message = r"^n·arctan t = -?1\.5e\+308 \* arctan 10\.0 is past the float range$"
        with pytest.raises(DomainError, match=message):
            tan_multiple_lhs(n, 10)
        with pytest.raises(DomainError, match="past the float range"):
            oracle_value(FamilySpec(Family.TAN_MULTIPLE, 10.0, n))

    @pytest.mark.parametrize("spec, message", [
        (FamilySpec(Family.SYMMETRIC_BINOMIAL, 1e-20, n=Fraction(5, 2)), "float division by zero"),
        (FamilySpec(Family.SYMMETRIC_BINOMIAL, 0.9, n=Fraction(4001, 2)), "Numerical result out of range"),
        (FamilySpec(Family.LAGRANGE_BINOMIAL, 10.0, n=400), "Numerical result out of range"),
        (FamilySpec(Family.UNIFORM_BINOMIAL, 10.0, n=Fraction(801, 2)), "math range error"),
    ], ids=["symmetric-difference-rounds-to-0", "symmetric-overflows", "binomial-overflows",
            "binomial-pow-overflows"])
    def test_a_closed_form_failing_in_float_arithmetic_has_no_oracle(self, spec, message):
        # libm's ZeroDivisionError and OverflowError reached table and compare untyped
        oracle = spec.family.oracle.__name__
        with pytest.raises(DomainError, match=rf"^oracle {oracle} fails in float arithmetic: .*{message}"):
            oracle_value(spec)

    @pytest.mark.parametrize("oracle, args, name", [
        (arctan_lhs, (Fraction(10**400),), "t"),
        (tan_lhs, (-(10**400),), "theta"),
        (coth_scaled_lhs, (Fraction(10**400, 3),), "v"),
        (binomial_power, (Fraction(1, 2), Fraction(10**400)), "x"),
        (binomial_power, (Fraction(10**400 + 1, 2), 0.5), "n"),
        (symmetric_lhs, (Fraction(10**400 + 1, 2), 0.5), "n"),
        (tan_multiple_lhs, (Fraction(10**400), 0.5), "n"),
    ], ids=["arctan", "tan", "coth-scaled", "binomial-x", "binomial-n", "symmetric-n", "tan-multiple-n"])
    def test_an_exact_argument_past_the_float_range_raises(self, oracle, args, name):
        # float() raised OverflowError
        with pytest.raises(DomainError, match=f"^{name} is past the float range, so it has no float value$"):
            oracle(*args)
        if oracle is arctan_lhs:
            with pytest.raises(DomainError, match="^t is past the float range"):
                oracle_value(FamilySpec(Family.ARCTAN, *args))

    def test_the_number_of_terms_is_a_count(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            series_ratio_coth(0.7, 3.0)
        with pytest.raises(DomainError, match="^terms must be >= 1, got 0$"):
            series_ratio_coth(0.7, 0)
