"""Oracle tests: closed forms, exact-rational paths, the series ratio."""

import math
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

    @pytest.mark.parametrize("v", [Fraction(3, 10), Fraction(7, 10), Fraction(1)])
    def test_error_shrinks_with_terms(self, v):
        reference = series_ratio_coth(v, 40).value
        errors = [abs(series_ratio_coth(v, t).value - reference) for t in range(1, 16)]
        assert all(errors[i + 1] <= errors[i] for i in range(len(errors) - 1))


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
