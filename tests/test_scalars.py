"""Kernel tests: scalar modes, exact construction, tolerance comparison."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from confrac import (
    DEFAULT_TOLERANCE,
    EXACT,
    DomainError,
    Mode,
    ModeMismatchError,
    ToleranceSpec,
    arctan_cf,
    as_fraction,
    eval_convergents,
    eval_lentz,
    mode_of,
    nearly_equal,
)
from confrac.engine import _backward_report
from confrac.scalars import _double, _rel_tol, _relative_change, _within, coerce


class TestModeOf:
    def test_basic_types(self):
        assert mode_of(1.5) is Mode.FLOAT
        assert mode_of(Fraction(1, 3)) is Mode.RATIONAL
        assert mode_of(7) is Mode.RATIONAL
        assert mode_of(2 + 1j) is Mode.COMPLEX

    def test_rejects_bool(self):
        with pytest.raises(ModeMismatchError):
            mode_of(True)

    def test_rejects_strings(self):
        with pytest.raises(ModeMismatchError):
            mode_of("1/2")

    def test_float_subclass_is_float_and_bool_is_rejected(self):
        class Tagged(float):
            pass

        assert mode_of(Tagged(0.5)) is Mode.FLOAT
        with pytest.raises(ModeMismatchError):
            mode_of(True)


    @pytest.mark.parametrize(
        "base, mode",
        [(float, Mode.FLOAT), (complex, Mode.COMPLEX), (int, Mode.RATIONAL),
         (Fraction, Mode.RATIONAL)],
        ids=["float", "complex", "int", "Fraction"],
    )
    def test_subclasses_take_their_base_mode(self, base, mode):
        # the exact-type lookup misses a subclass; the isinstance path decides
        sub = type("Sub", (base,), {})
        assert mode_of(base(1)) is mode_of(sub(1)) is mode

    @pytest.mark.parametrize("value", [False, None, [1.0]], ids=repr)
    def test_non_scalars_rejected(self, value):
        with pytest.raises(ModeMismatchError):
            mode_of(value)


class TestModeTable:
    @pytest.mark.parametrize("mode", list(Mode), ids=str)
    def test_cast_and_finiteness(self, mode):
        assert mode_of(mode.cast(1)) is mode
        assert mode.isfinite(mode.cast(1))
        if mode is not Mode.RATIONAL:
            assert not mode.isfinite(mode.cast(math.inf))


class TestNearlyEqual:
    def test_identical_floats(self):
        assert nearly_equal(1.0, 1.0, ToleranceSpec(rel_tol=1e-12))

    def test_reduced_rationals_exactly_equal(self):
        assert nearly_equal(Fraction(2, 4), Fraction(1, 2), EXACT)

    def test_forced_false(self):
        assert not nearly_equal(1.0, 1.0 + 1e-9, ToleranceSpec(rel_tol=1e-12))

    def test_relative_tolerance_near_zero(self):
        # the only tolerance is relative: a step away from 0 is never
        # within it, and tiny values compare like any others
        assert not nearly_equal(0.0, 5e-15, DEFAULT_TOLERANCE)
        assert nearly_equal(1e-300, 1e-300 * (1 + 1e-13), DEFAULT_TOLERANCE)
        assert not nearly_equal(1e-300, 1e-300 * (1 + 1e-11), DEFAULT_TOLERANCE)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            nearly_equal(1.0, Fraction(1), DEFAULT_TOLERANCE)

    def test_infinite_difference_is_never_within_tolerance(self):
        # inf <= rel_tol * inf holds, so the relative test alone would pass
        assert not nearly_equal(math.inf, 1.0, ToleranceSpec(rel_tol=1e-12))
        assert not nearly_equal(1.0, -math.inf, ToleranceSpec(rel_tol=1e-12))

    def test_exact_mode_discriminates_below_float_resolution(self):
        a = Fraction(1, 3)
        b = a + Fraction(1, 10**40)
        assert not nearly_equal(a, b, EXACT)
        assert nearly_equal(a, b, DEFAULT_TOLERANCE)

    def test_complex_modulus(self):
        assert nearly_equal(1 + 1j, 1 + 1j + 1e-16j, ToleranceSpec(rel_tol=1e-12))
        assert not nearly_equal(1 + 1j, 1.1 + 1j, ToleranceSpec(rel_tol=1e-12))

    def test_complex_modulus_past_the_float_range(self):
        # abs(z) raises OverflowError although both parts are finite
        z = 1.3e308 + 1.3e308j
        assert nearly_equal(z, z)
        assert not nearly_equal(z, z / 2)
        assert _relative_change(z, z / 2) == 0.5

    def test_relative_change_between_two_zeros_is_zero(self):
        assert _relative_change(0.0, 0.0) == 0.0

    @given(
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    )
    def test_symmetric(self, a, b):
        tol = ToleranceSpec(rel_tol=1e-6)
        assert nearly_equal(a, b, tol) == nearly_equal(b, a, tol)


class TestOneComparison:
    """``nearly_equal`` is the mode check plus the one comparison
    ``_within``, which the evaluators call with the tolerance and the
    finiteness test resolved once per evaluation."""

    finite_or_not = st.floats(allow_nan=True, allow_infinity=True)
    tols = st.sampled_from([0.0, 1e-300, 1e-12, 0.5, 1.0, 2.0])

    @staticmethod
    def _resolved(mode, tol):
        # _within as an evaluator calls it: tolerance and finiteness fixed once
        rel_tol, finite = _rel_tol(mode, tol), mode.isfinite
        return lambda a, b: _within(a, b, rel_tol, finite)

    @staticmethod
    def _outcome(compare, a, b):
        # the result, or the type of the exception (a complex modulus past
        # the float range raises OverflowError in both)
        try:
            return compare(a, b)
        except OverflowError as exc:
            return type(exc)

    def _agree(self, mode, a, b, rel_tol):
        tol = ToleranceSpec(rel_tol=rel_tol)
        assert self._outcome(self._resolved(mode, tol), a, b) is self._outcome(
            lambda a, b: nearly_equal(a, b, tol), a, b)

    @given(finite_or_not, finite_or_not, tols)
    def test_float(self, a, b, rel_tol):
        self._agree(Mode.FLOAT, a, b, rel_tol)

    @given(st.complex_numbers(allow_nan=True, allow_infinity=True),
           st.complex_numbers(allow_nan=True, allow_infinity=True), tols)
    def test_complex(self, a, b, rel_tol):
        self._agree(Mode.COMPLEX, a, b, rel_tol)

    @given(st.fractions(), st.fractions(), tols)
    def test_rational(self, a, b, rel_tol):
        self._agree(Mode.RATIONAL, a, b, rel_tol)

    @pytest.mark.parametrize(
        "a, b", [(math.inf, 1.0), (1.0, -math.inf), (math.inf, math.inf), (math.nan, 1.0),
                 (complex(math.inf, 0), 1 + 0j), (1.7e308, -1.7e308)],
        ids=["inf", "-inf", "inf-inf", "nan", "complex-inf", "overflowing-difference"],
    )
    def test_non_finite_difference_is_never_within(self, a, b):
        # inf <= rel_tol * inf holds: only the finiteness test rejects these
        mode = mode_of(a)
        for rel_tol in (0.0, 1e-12, 1.0):
            tol = ToleranceSpec(rel_tol=rel_tol)
            assert not self._resolved(mode, tol)(a, b) and not nearly_equal(a, b, tol)

    def test_rational_tolerance_is_exact(self):
        # 1e-12 is made the exact Fraction of its binary value, not compared as a float
        r = Fraction(1e-12)
        edge = 1 + r / (1 - r)
        tol = ToleranceSpec(rel_tol=1e-12)
        assert self._resolved(Mode.RATIONAL, tol)(edge, Fraction(1))
        assert not self._resolved(Mode.RATIONAL, tol)(edge + Fraction(1, 10**60), Fraction(1))
        assert not self._resolved(Mode.RATIONAL, EXACT)(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**40))


class TestToleranceSpec:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ToleranceSpec(rel_tol=-1e-9)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ToleranceSpec(rel_tol=float("nan"))

    def test_rejects_a_string(self):
        with pytest.raises(ValueError, match="must be a number"):
            ToleranceSpec(rel_tol="1e-3")

    @pytest.mark.parametrize("tol", [1e-12, None, "1e-12", 0])
    @pytest.mark.parametrize("call", [
        lambda tol: eval_lentz(arctan_cf(1.0), tol),
        lambda tol: eval_convergents(arctan_cf(1.0), tol),
        lambda tol: eval_convergents(arctan_cf(Fraction(1, 2)), tol, 5),
        lambda tol: _backward_report(arctan_cf(1.0), 5, tol),
        lambda tol: nearly_equal(1.0, 1.0, tol),
    ], ids=["lentz", "forward", "forward-rational", "backward-report", "nearly_equal"])
    def test_a_tol_that_is_no_spec_is_a_typed_error_naming_it(self, call, tol):
        # each raised AttributeError: 'float' object has no attribute 'rel_tol'
        with pytest.raises(DomainError) as raised:
            call(tol)
        assert str(raised.value) == f"tol must be a ToleranceSpec, got {tol!r}"


class TestCoerce:
    def test_exact_to_all_modes(self):
        assert coerce(Fraction(1, 4), Mode.FLOAT) == 0.25
        assert coerce(3, Mode.COMPLEX) == 3 + 0j
        assert coerce(Fraction(2, 6), Mode.RATIONAL) == Fraction(1, 3)

    def test_complex_to_real_modes_rejected(self):
        with pytest.raises(ModeMismatchError):
            coerce(1 + 0j, Mode.FLOAT)
        with pytest.raises(ModeMismatchError):
            coerce(1j, Mode.RATIONAL)

    def test_zero_one_are_in_mode(self):
        assert Mode.COMPLEX.cast(0) == 0j and isinstance(Mode.COMPLEX.cast(0), complex)
        assert Mode.RATIONAL.cast(1) == 1 and isinstance(Mode.RATIONAL.cast(1), Fraction)


class TestAsFraction:
    def test_float_binary_expansion_is_exact(self):
        assert as_fraction(0.5) == Fraction(1, 2)
        assert as_fraction(0.1) == Fraction(3602879701896397, 36028797018963968)

    def test_complex_rejected(self):
        with pytest.raises(ModeMismatchError):
            as_fraction(1j)

    def test_bool_rejected(self):
        with pytest.raises(ModeMismatchError, match="not a scalar"):
            as_fraction(True)

    @pytest.mark.parametrize("value, kind", [("1/3", "str"), (Decimal("2"), "Decimal")])
    def test_a_str_or_decimal_is_no_scalar(self, value, kind):
        # Fraction(value) read them as 1/3 and 2, where every other entry raised
        with pytest.raises(ModeMismatchError) as raised:
            as_fraction(value)
        assert str(raised.value) == f"unsupported scalar type {kind}"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_is_a_domain_error(self, value):
        with pytest.raises(DomainError, match="must be finite"):
            as_fraction(value)


def _within_ulps(a, b, ulps):
    if a == b:
        return True
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


class TestFieldAxioms:
    # Exact in rational mode for arbitrary values; floats are checked at
    # benign sampled magnitudes where a 4-ulp bound is meaningful.

    @given(
        st.fractions(min_value=-10**8, max_value=10**8, max_denominator=10**4),
        st.fractions(min_value=-10**8, max_value=10**8, max_denominator=10**4),
        st.fractions(min_value=-10**8, max_value=10**8, max_denominator=10**4),
    )
    def test_rational_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    FLOAT_TRIPLES = [
        (0.3, 0.7, 1.9),
        (1.5, -0.25, 3.75),
        (0.12345, 6.789, 2.5),
        (-1.1, 2.2, -3.3),
        (0.001, 0.002, 0.003),
    ]

    @pytest.mark.parametrize("a,b,c", FLOAT_TRIPLES)
    def test_float_associativity_within_4_ulp(self, a, b, c):
        assert _within_ulps((a + b) + c, a + (b + c), 4)

    @pytest.mark.parametrize("a,b,c", FLOAT_TRIPLES)
    def test_float_distributivity_within_4_ulp(self, a, b, c):
        assert _within_ulps(a * (b + c), a * b + a * c, 4)


class TestDouble:
    """The one float-range rule: an int ratio rounds once, as int true division does; past the float
    range a value to report is ±inf and anything named raises DomainError."""

    @given(st.fractions(), st.integers(min_value=-1100, max_value=1100), st.integers(min_value=1, max_value=99))
    def test_rounds_once_as_int_true_division(self, q, shift, common):
        q *= Fraction(2) ** shift
        num, den = q.numerator * common, q.denominator * common  # an unreduced ratio rounds alike
        try:
            want = q.numerator / q.denominator
        except OverflowError:
            assert _double((num, den)) == (math.inf if q > 0 else -math.inf)
            with pytest.raises(DomainError, match="^q is past the float range, so it has no complex value$"):
                _double((num, den), "q", Mode.COMPLEX)
        else:
            assert _double((num, den)) == _double((num, den), "q") == want

    def test_the_edges_of_the_range(self):
        top = Fraction(sys.float_info.max)
        assert _double(top.as_integer_ratio(), "x") == sys.float_info.max
        assert _double((2**1024 - 2**970 - 1, 1), "x") == sys.float_info.max  # rounds down, in range
        assert _double((-(2**1024 - 2**970), 1)) == -math.inf
        with pytest.raises(DomainError, match="^x is past the float range, so it has no float value$"):
            _double((2**1024 - 2**970, 1), "x")  # rounds to 2^1024
        assert _double((1, 10**400), "x") == 0.0  # underflow is no error here

    @pytest.mark.parametrize("rel_tol", [-1.0, math.inf, math.nan, "1e-3", True])
    def test_a_bad_tolerance_is_a_domain_error(self, rel_tol):
        with pytest.raises(DomainError, match="^rel_tol must be"):
            ToleranceSpec(rel_tol=rel_tol)
