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
rational.  The stopping comparison lives in the private ``_within``, which
:func:`nearly_equal` calls and the evaluators inline (calling it where a complex
modulus overflows), and a report's residual in ``_relative_change``; both hold there.

Division by an exact zero is an error in every mode (Python's native
behaviour), never an infinity; pole detection in the fraction engine
depends on that.  An exact value becomes a double in one place, ``_double``, and a
value a caller passes is read in one, ``_scalar`` (``_ratio`` where it must be exact):
no scalar raises ``ModeMismatchError``, inf or nan ``DomainError`` naming the argument.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import index
from typing import Callable, Optional, Union

from .errors import DomainError, ModeMismatchError

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


_FLOAT, _RATIONAL, _COMPLEX = Mode.FLOAT, Mode.RATIONAL, Mode.COMPLEX  # read as globals: Mode.X is a descriptor call
_MODE_OF_TYPE = {float: _FLOAT, complex: _COMPLEX, int: _RATIONAL, Fraction: _RATIONAL}


def mode_of(value: Scalar) -> Mode:
    """Mode of *value* (a subclass counts as its base, ``bool`` as no scalar)."""
    if (mode := _MODE_OF_TYPE.get(type(value))) is not None:
        return mode
    if isinstance(value, bool):
        raise ModeMismatchError(f"not a scalar: {value!r}")
    for cls, mode in _MODE_OF_TYPE.items():
        if isinstance(value, cls):
            return mode
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
    """Exact rational equal to *value*, an int, a ``Fraction`` or a finite float (its exact binary expansion).
    Used wherever a decision (termination, integrality of an exponent) must be exact in every mode."""
    return Fraction(*_ratio(value))


def _scalar(value: Scalar, what: str, level: int = 0) -> Mode:
    # The one input rule, read before any other test on a value a caller passes: its mode, mode_of's error where it
    # is no scalar, or DomainError naming what (at level, where given: formatted only when raising) at inf or nan
    if not (mode := mode_of(value)).isfinite(value):
        raise DomainError(f"{f'{what} at level {level}' if level else what} must be finite, got {value!r}")
    return mode


def _ratio(value: Scalar, what: str = "value") -> tuple[int, int]:
    # as_fraction(value)'s int pair in lowest terms, the input rule naming what; an int or float builds no Fraction
    if type(value) is float and math.isfinite(value) or type(value) in (int, Fraction):
        return value.as_integer_ratio()
    if _scalar(value, what) is _COMPLEX:
        raise ModeMismatchError("complex value has no exact rational form")
    return value.as_integer_ratio()


def _double(ratio: tuple[int, int], what: Optional[str] = None, mode: Mode = Mode.FLOAT, level: int = 0) -> float:
    # The one float-range rule: an int ratio (num, den > 0) rounded once, as num / den does; past the float range
    # ±inf where nothing is named (a value to report), else DomainError naming what (an input or a level), as _scalar
    try:
        return ratio[0] / ratio[1]
    except OverflowError:
        if what is None:
            return math.inf if ratio[0] > 0 else -math.inf
        what = f"{what} at level {level}" if level else what
        raise DomainError(f"{what} is past the float range, so it has no {mode} value") from None


def _count(value: int, name: str, least: int) -> int:
    # A count (a depth, a cap, a level, a number of terms) is an int from least up to islice's sys.maxsize
    if not least <= (value := index(value)) <= sys.maxsize:
        bound = f">= {least}" if value < least else f"<= {sys.maxsize}"
        raise DomainError(f"{name} must be {bound}, got {_text(value)}")
    return value


def _text(value: Scalar, spelled: bool = True) -> str:
    # repr(value), or str(value) where not spelled, an exact value's ints written through Decimal:
    # repr and str stop at the interpreter's limit on int-to-text digits.
    if not isinstance(value, (int, Fraction)):
        return repr(value)
    num, den = map(Decimal, value.as_integer_ratio())
    if spelled and isinstance(value, Fraction):
        return f"Fraction({num}, {den})"
    return f"{num}" if den == 1 else f"{num}/{den}"


@dataclass(frozen=True)
class ToleranceSpec:
    """Relative tolerance for :func:`nearly_equal`, the one stopping
    tolerance.

    Zero means exact equality (the natural setting for rational mode).
    """

    rel_tol: float = 0.0

    def __post_init__(self) -> None:
        v = self.rel_tol
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DomainError(f"rel_tol must be a number, got {v!r}")
        if not math.isfinite(v) or v < 0:
            raise DomainError(f"rel_tol must be finite and nonnegative, got {v!r}")


#: Tolerance the evaluators and the CLI use when none is given: comfortably
#: inside double precision for desk-scale arguments.
DEFAULT_TOLERANCE = ToleranceSpec(rel_tol=1e-12)

#: Exact comparison (zero tolerance); meaningful mainly in rational mode.
EXACT = ToleranceSpec()


def nearly_equal(a: Scalar, b: Scalar, tol: ToleranceSpec = DEFAULT_TOLERANCE) -> bool:
    """True iff ``|a-b| <= rel_tol * max(|a|, |b|)``.

    *a* and *b* must share a mode.  An infinite or NaN difference is never
    within tolerance, even though ``inf <= rel_tol * inf`` holds.  In
    rational mode the tolerance is made an exact fraction, so the whole
    comparison is exact and a zero tolerance means exact equality.
    """
    mode, other = mode_of(a), mode_of(b)
    if mode is not other:
        raise ModeMismatchError(f"mode mismatch: {mode} vs {other}")
    return _within(a, b, _rel_tol(mode, tol), mode.isfinite)


def _rel_tol(mode: Mode, tol: ToleranceSpec) -> Scalar:  # tol's one read, in the mode's arithmetic
    try:
        return Fraction(tol.rel_tol) if mode is _RATIONAL else tol.rel_tol
    except AttributeError:
        raise DomainError(f"tol must be a ToleranceSpec, got {tol!r}") from None


def _within(a: Scalar, b: Scalar, rel_tol: Scalar, finite: Callable[[Scalar], bool]) -> bool:
    try:
        diff = abs(a - b)
        return finite(diff) and diff <= rel_tol * max(abs(a), abs(b))
    except OverflowError:
        # abs() of a finite complex whose modulus is past the float range: the
        # relation is scale-invariant, and halving is exact at that size
        return _within(a / 2, b / 2, rel_tol, finite)


def _relative_change(value: Scalar, previous: Scalar) -> float:
    # |value - previous| / max(|value|, |previous|), the residual a report
    # gives.  A nonzero step too small for a float is reported as the
    # smallest positive float, so a residual of 0 means the step was exactly 0.
    try:
        diff = abs(value - previous)
        scale = max(abs(value), abs(previous))
    except OverflowError:  # as in _within
        return _relative_change(value / 2, previous / 2)
    if scale == 0:
        return 0.0
    change = float(diff / scale)
    return math.ulp(0.0) if change == 0 and diff != 0 else change
