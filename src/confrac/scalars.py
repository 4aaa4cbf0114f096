"""Scalar modes and tolerance-aware comparison.

All arithmetic in this package runs in one of three scalar modes:

* ``Mode.FLOAT``    -- IEEE-754 double precision (:class:`float`);
* ``Mode.RATIONAL`` -- exact arbitrary-precision rationals
  (:class:`fractions.Fraction`, always in lowest terms with positive
  denominator; plain ``int`` values count as rationals);
* ``Mode.COMPLEX``  -- double-precision complex (:class:`complex`).

Values are ordinary Python numbers and the mode is carried by the type.
Modes never mix silently: an operation that meets two different modes
raises :class:`~confrac.errors.ModeMismatchError` instead of promoting,
because the exactness guarantees downstream rest on rational computations
staying rational.

Division by an exact zero is an error in every mode (Python's native
behaviour), never an infinity; pole detection in the fraction engine
depends on that.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ModeMismatchError

Scalar = Union[Fraction, int, float, complex]


class Mode(enum.Enum):
    """Arithmetic mode a scalar lives in."""

    FLOAT = "float"
    RATIONAL = "rational"
    COMPLEX = "complex"

    def __str__(self) -> str:
        return self.value


def mode_of(value: Scalar) -> Mode:
    """Mode of *value*; integers count as exact rationals."""
    if isinstance(value, bool):
        raise ModeMismatchError(f"not a scalar: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Mode.RATIONAL
    if isinstance(value, float):
        return Mode.FLOAT
    if isinstance(value, complex):
        return Mode.COMPLEX
    raise ModeMismatchError(f"unsupported scalar type {type(value).__name__!s}")


def same_mode(a: Scalar, b: Scalar) -> Mode:
    """Common mode of *a* and *b*, raising on a mismatch."""
    ma, mb = mode_of(a), mode_of(b)
    if ma is not mb:
        raise ModeMismatchError(f"mode mismatch: {ma} vs {mb}")
    return ma


def coerce(value: Scalar, mode: Mode) -> Scalar:
    """Convert *value* to *mode* without inventing precision.

    Exact values (ints, fractions) convert to every mode; floats convert to
    FLOAT and COMPLEX, and to RATIONAL through their exact binary expansion.
    Complex values only stay complex.
    """
    src = mode_of(value)
    if mode is Mode.RATIONAL:
        if src is Mode.COMPLEX:
            raise ModeMismatchError("cannot convert complex to rational")
        return Fraction(value)
    if mode is Mode.FLOAT:
        if src is Mode.COMPLEX:
            raise ModeMismatchError("cannot convert complex to float")
        return float(value)
    return complex(value)


def zero(mode: Mode) -> Scalar:
    return coerce(Fraction(0), mode)


def one(mode: Mode) -> Scalar:
    return coerce(Fraction(1), mode)


def as_fraction(value: Scalar) -> Fraction:
    """Exact rational equal to *value*.

    Floats convert through their exact binary expansion.  Used wherever a
    decision (termination, integrality of an exponent) must be exact no
    matter which mode the surrounding evaluation runs in.
    """
    if isinstance(value, complex):
        raise ModeMismatchError("complex value has no exact rational form")
    if isinstance(value, bool):
        raise ModeMismatchError(f"not a scalar: {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class ToleranceSpec:
    """Relative/absolute tolerance pair for :func:`nearly_equal`.

    Both fields may be zero, in which case comparison means exact equality
    (the natural setting for rational mode).
    """

    rel_tol: float = 0.0
    abs_tol: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{name} must be a number, got {v!r}")
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")

    @property
    def is_exact(self) -> bool:
        return self.rel_tol == 0 and self.abs_tol == 0


#: Default comparison tolerance for the verify suite: comfortably inside
#: double precision for desk-scale arguments.
DEFAULT_TOLERANCE = ToleranceSpec(rel_tol=1e-12, abs_tol=1e-14)

#: Exact comparison (zero tolerances); meaningful mainly in rational mode.
EXACT = ToleranceSpec()


def nearly_equal(a: Scalar, b: Scalar, tol: ToleranceSpec = DEFAULT_TOLERANCE) -> bool:
    """True iff ``|a-b| <= abs_tol`` or ``|a-b| <= rel_tol * max(|a|, |b|)``.

    An infinite or NaN difference is never within tolerance, even though
    ``inf <= rel_tol * inf`` holds.  *a* and *b* must share a mode.  In
    rational mode the whole comparison is carried out in exact arithmetic
    (the tolerances are converted to exact fractions), so zero tolerances
    mean exact equality.
    """
    mode = same_mode(a, b)
    if mode is Mode.RATIONAL:
        fa, fb = Fraction(a), Fraction(b)
        diff = abs(fa - fb)
        return diff <= Fraction(tol.abs_tol) or diff <= Fraction(tol.rel_tol) * max(abs(fa), abs(fb))
    diff = abs(a - b)
    if not math.isfinite(diff):
        return False
    return diff <= tol.abs_tol or diff <= tol.rel_tol * max(abs(a), abs(b))
