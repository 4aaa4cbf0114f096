"""Scalar modes and tolerance-aware comparison.

All arithmetic in this package runs in one of three scalar modes:

* ``Mode.FLOAT``    -- IEEE-754 double precision (:class:`float`);
* ``Mode.RATIONAL`` -- exact arbitrary-precision rationals
  (:class:`fractions.Fraction`, always in lowest terms with positive
  denominator; plain ``int`` values count as rationals);
* ``Mode.COMPLEX``  -- double-precision complex (:class:`complex`).

Values are ordinary Python numbers and the mode is carried by the type.
:class:`Mode` is the one table of what a mode means: its constructor
(``cast``) and its finiteness test (``isfinite``).  Modes never mix
silently: an operation that meets two different modes raises
:class:`~confrac.errors.ModeMismatchError` instead of promoting, because
the exactness guarantees downstream rest on rational computations staying
rational.

Division by an exact zero is an error in every mode (Python's native
behaviour), never an infinity; pole detection in the fraction engine
depends on that.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import ModeMismatchError

Scalar = Union[Fraction, int, float, complex]


class Mode(enum.Enum):
    """Arithmetic mode a scalar lives in.  Each member holds ``cast``, its
    constructor, and ``isfinite``, its finiteness test (always true for
    exact values)."""

    FLOAT = ("float", float, math.isfinite)
    RATIONAL = ("rational", Fraction, lambda _: True)
    COMPLEX = ("complex", complex, cmath.isfinite)

    def __new__(cls, name: str, cast: Callable, isfinite: Callable) -> "Mode":
        member = object.__new__(cls)
        member._value_ = name
        member.cast = cast
        member.isfinite = isfinite
        return member

    def __str__(self) -> str:
        return self.value


def mode_of(value: Scalar) -> Mode:
    """Mode of *value*; integers count as exact rationals."""
    if isinstance(value, float):
        return Mode.FLOAT
    if isinstance(value, complex):
        return Mode.COMPLEX
    if isinstance(value, bool):
        raise ModeMismatchError(f"not a scalar: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Mode.RATIONAL
    raise ModeMismatchError(f"unsupported scalar type {type(value).__name__!s}")


def coerce(value: Scalar, mode: Mode) -> Scalar:
    """Convert *value* to *mode* without inventing precision.

    Exact values (ints, fractions) convert to every mode; floats convert to
    FLOAT and COMPLEX, and to RATIONAL through their exact binary expansion.
    Complex values only stay complex.
    """
    if mode_of(value) is Mode.COMPLEX and mode is not Mode.COMPLEX:
        raise ModeMismatchError(f"cannot convert complex to {mode}")
    return mode.cast(value)


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
    mode, other = mode_of(a), mode_of(b)
    if mode is not other:
        raise ModeMismatchError(f"mode mismatch: {mode} vs {other}")
    if mode is Mode.RATIONAL:
        diff = abs(a - b)
        return diff <= Fraction(tol.abs_tol) or diff <= Fraction(tol.rel_tol) * max(abs(a), abs(b))
    diff = abs(a - b)
    if not math.isfinite(diff):
        return False
    return diff <= tol.abs_tol or diff <= tol.rel_tol * max(abs(a), abs(b))
