"""Family generator tests: term laws, exact termination, oracle agreement."""

import math
from fractions import Fraction

import pytest

from confrac import (
    EXACT,
    DomainError,
    Family,
    FamilySpec,
    ToleranceSpec,
    arctan_cf,
    binomial_power,
    convergents,
    coth_scaled_cf,
    eval_convergents,
    eval_lentz,
    lagrange_binomial,
    log_ratio_cf,
    series_ratio_coth,
    symmetric_binomial,
    symmetric_lhs,
    tan_cf,
    tan_multiple,
    tan_multiple_lhs,
    uniform_binomial,
)

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

    @pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2, 3 * math.pi / 2, math.pi / 2 + 1e-9])
    def test_pole_guard(self, theta):
        with pytest.raises(DomainError):
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

    @pytest.mark.parametrize("z", [1.5, 1.0, -1.0, -2.0])
    def test_domain_guard(self, z):
        with pytest.raises(DomainError):
            log_ratio_cf(z)


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
        for arg in (0.3, Fraction(3, 10), 0.3 + 0j):
            stream = family.generator(Fraction(5, 2), arg) if family.takes_n else family.generator(arg)
            values = [stream.b0]
            for k in range(1, 7):
                t = stream.term(k)
                values += [t.a, t.b]
            assert all(type(v) is type(arg) for v in values), (family, arg)

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
