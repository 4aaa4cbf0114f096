"""Kernel tests: scalar modes, exact construction, tolerance comparison."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from confrac import (
    DEFAULT_TOLERANCE,
    EXACT,
    Mode,
    ModeMismatchError,
    ToleranceSpec,
    as_fraction,
    mode_of,
    nearly_equal,
)
from confrac.scalars import coerce


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

    def test_abs_tolerance_near_zero(self):
        assert nearly_equal(0.0, 5e-15, ToleranceSpec(abs_tol=1e-14))
        assert not nearly_equal(0.0, 5e-15, ToleranceSpec(rel_tol=1e-3))

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

    @given(
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    )
    def test_symmetric(self, a, b):
        tol = ToleranceSpec(rel_tol=1e-6)
        assert nearly_equal(a, b, tol) == nearly_equal(b, a, tol)


class TestToleranceSpec:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ToleranceSpec(rel_tol=-1e-9)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ToleranceSpec(abs_tol=float("nan"))


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
