"""Generators for the eight continued-fraction families.

Binomial powers (exponent n, argument x or z):

* ``lagrange_binomial`` -- the alternating-law fraction for (1+x)^n:

      1 + nx/(1 + (1-n)x/(2 + (1+n)x/(3 + (2-n)x/(2 + (2+n)x/(5 + ...)))))

  even levels carry (k-n)x over 2, odd levels (k+n)x over 2k+1.
* ``uniform_binomial`` -- the same value rearranged onto a uniform law:

      1 + nx/(1 + (1-n)x/2 + ((n²-1)x²/4)/(3(1+x/2) + ((n²-4)x²/4)/(5(1+x/2) + ...)))

* ``symmetric_binomial`` -- the form in which only n² appears:

      1 + (n²-1)z²/(3 + (n²-4)z²/(5 + (n²-9)z²/(7 + ...)))
        = nz[(1+z)^n + (1-z)^n] / [(1+z)^n - (1-z)^n]

  so n and -n generate identical streams, level by level.

Limiting forms (no exponent parameter except ``tan_multiple``):

* ``tan_multiple``:   tan(nφ) = nt/(1 - (n²-1)t²/(3 - (n²-4)t²/(5 - ...))), t = tan φ
* ``arctan_cf``:      arctan t = t/(1 + t²/(3 + 4t²/(5 + 9t²/(7 + ...))))
* ``tan_cf``:         tan θ = θ/(1 - θ²/(3 - θ²/(5 - θ²/(7 - ...))))
* ``log_ratio_cf``:   log((1+z)/(1-z)) = 2z/(1 - z²/(3 - 4z²/(5 - 9z²/(7 - ...)))), |z| < 1
* ``coth_scaled_cf``: v coth v = v(e^{2v}+1)/(e^{2v}-1) = 1 + v²/(3 + v²/(5 + ...))

The "minus" fractions are simply streams with negative partial numerators;
there is no separate sign convention.  The four full-fraction families
(tan_multiple, arctan_cf, tan_cf, log_ratio_cf) are streams with ``b0 = 0``
whose first level holds the top numerator over the inner fraction's
leading term.

Exponents are carried as exact rationals regardless of evaluation mode:
the level coefficients (k ± n) and (n² - k²) are computed exactly and only
then cast once into the argument's mode (``Fraction``, ``float`` or
``complex``, resolved once per stream), so for integer n the vanishing
partial numerator is an exact zero even in floating point and termination
is never lost to rounding.  Termination levels: ``symmetric_binomial`` at
|n|, ``uniform_binomial`` at |n|+1, ``lagrange_binomial`` at 2n (n > 0) or
2|n|+1 (n < 0), ``tan_multiple`` at |n|+1.

:class:`Family` is the one table that maps each family to its generator
and its oracle (from :mod:`confrac.oracles`); :class:`FamilySpec` and
:func:`oracle_value` read it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .engine import CFStream, CFTerm
from .errors import DomainError
from .oracles import (
    OracleResult,
    arctan_lhs,
    binomial_power,
    coth_scaled_lhs,
    log_ratio_lhs,
    symmetric_lhs,
    tan_lhs,
    tan_multiple_lhs,
)
from .scalars import Mode, Scalar, as_fraction, mode_of

#: Reject tan_cf arguments closer than this to an odd multiple of pi/2.
TAN_POLE_GUARD = 1e-8


def _require_finite(value: Scalar, name: str) -> None:
    if isinstance(value, complex):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise DomainError(f"{name} must be finite, got {value!r}")
    elif isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _require_real(value: Scalar, name: str) -> None:
    if isinstance(value, complex) and value.imag != 0:
        raise DomainError(f"{name} must be real, got {value!r}")


_CAST: dict[Mode, Callable[[Union[int, Fraction]], Scalar]] = {
    Mode.RATIONAL: Fraction,
    Mode.FLOAT: float,
    Mode.COMPLEX: complex,
}


def _cast_for(arg: Scalar, name: str) -> Callable[[Union[int, Fraction]], Scalar]:
    # Checks that the argument is finite, then returns the constructor of its
    # mode.  Generators apply it to exact coefficients: an exact rational zero
    # stays an exact zero in every mode, and float(Fraction) rounds correctly.
    _require_finite(arg, name)
    return _CAST[mode_of(arg)]


def lagrange_binomial(n: Union[int, float, Fraction], x: Scalar) -> CFStream:
    """Alternating-law stream for (1+x)^n.

    Terminates at level 2n for positive integer n, 2|n|+1 for negative
    integer n, with the exact rational value.  For real evaluation against
    the binomial oracle keep x > -1; the stream itself exists for any
    finite x.
    """
    n = as_fraction(n)
    cast = _cast_for(x, "x")
    one_, two = cast(1), cast(2)

    def term(k: int) -> CFTerm:
        if k == 1:
            return CFTerm(cast(n) * x, one_)
        m = k // 2
        if k % 2 == 0:
            return CFTerm(cast(m - n) * x, two)
        return CFTerm(cast(m + n) * x, cast(2 * m + 1))

    return CFStream(one_, term, description=f"lagrange-binomial(n={n}, x={x!r})")


def uniform_binomial(n: Union[int, float, Fraction], x: Scalar) -> CFStream:
    """Uniform-law stream for (1+x)^n; terminates at level |n|+1 for integer n."""
    n = as_fraction(n)
    cast = _cast_for(x, "x")
    one_, half = cast(1), cast(Fraction(1, 2))

    def term(k: int) -> CFTerm:
        if k == 1:
            return CFTerm(cast(n) * x, one_ + cast((1 - n) / 2) * x)
        num = cast((n * n - (k - 1) ** 2) / 4)
        return CFTerm(num * x * x, cast(2 * k - 1) * (one_ + half * x))

    return CFStream(one_, term, description=f"uniform-binomial(n={n}, x={x!r})")


def symmetric_binomial(n: Union[int, float, Fraction], z: Scalar) -> CFStream:
    """Stream 1 + (n²-1)z²/(3 + (n²-4)z²/(5 + ...)).

    Only n² enters the terms, so n and -n give identical streams; integer n
    terminates at level |n|.  Complex z is allowed (the terms stay real for
    purely imaginary z since z only appears squared).
    """
    n = as_fraction(n)
    cast = _cast_for(z, "z")

    def term(k: int) -> CFTerm:
        return CFTerm(cast(n * n - k * k) * z * z, cast(2 * k + 1))

    return CFStream(cast(1), term, description=f"symmetric-binomial(n={n}, z={z!r})")


def tan_multiple(n: Union[int, float, Fraction], t: Scalar) -> CFStream:
    """Full fraction nt/(1 - (n²-1)t²/(3 - (n²-4)t²/(5 - ...))) = tan(nφ), t = tan φ.

    Terminates at level |n|+1 for integer n (tan 2φ = 2t/(1-t²) and so on).
    A pole of tan(nφ) shows up at evaluation time as a vanishing
    denominator, not here.
    """
    n = as_fraction(n)
    cast = _cast_for(t, "t")
    _require_real(t, "t")

    def term(k: int) -> CFTerm:
        if k == 1:
            return CFTerm(cast(n) * t, cast(1))
        j = k - 1
        return CFTerm(cast(j * j - n * n) * t * t, cast(2 * j + 1))

    return CFStream(cast(0), term, description=f"tan-multiple(n={n}, t={t!r})")


def arctan_cf(t: Scalar) -> CFStream:
    """Full fraction t/(1 + t²/(3 + 4t²/(5 + 9t²/(7 + ...)))) = arctan t."""
    cast = _cast_for(t, "t")
    _require_real(t, "t")

    def term(k: int) -> CFTerm:
        if k == 1:
            return CFTerm(t, cast(1))
        return CFTerm(cast((k - 1) ** 2) * t * t, cast(2 * k - 1))

    return CFStream(cast(0), term, description=f"arctan({t!r})")


def tan_cf(theta: Scalar) -> CFStream:
    """Full fraction θ/(1 - θ²/(3 - θ²/(5 - ...))) = tan θ.

    Arguments within ``TAN_POLE_GUARD`` of an odd multiple of pi/2 are
    rejected: the true function has a pole there and truncations are
    meaningless.
    """
    cast = _cast_for(theta, "theta")
    _require_real(theta, "theta")
    residue = math.fmod(abs(float(theta.real if isinstance(theta, complex) else theta)), math.pi)
    if abs(residue - math.pi / 2) < TAN_POLE_GUARD:
        raise DomainError(
            f"theta={theta!r} is within {TAN_POLE_GUARD} of an odd multiple of pi/2 (tangent pole)"
        )

    def term(k: int) -> CFTerm:
        if k == 1:
            return CFTerm(theta, cast(1))
        return CFTerm(-(theta * theta), cast(2 * k - 1))

    return CFStream(cast(0), term, description=f"tan({theta!r})")


def log_ratio_cf(z: Scalar) -> CFStream:
    """Full fraction 2z/(1 - z²/(3 - 4z²/(5 - 9z²/(7 - ...)))) = log((1+z)/(1-z)).

    Requires real |z| < 1, mirroring the left-hand side's domain.
    """
    cast = _cast_for(z, "z")
    _require_real(z, "z")
    if abs(z) >= 1:
        raise DomainError(f"log_ratio_cf requires |z| < 1, got {z!r}")

    def term(k: int) -> CFTerm:
        if k == 1:
            return CFTerm(cast(2) * z, cast(1))
        return CFTerm(cast(-((k - 1) ** 2)) * z * z, cast(2 * k - 1))

    return CFStream(cast(0), term, description=f"log-ratio({z!r})")


def coth_scaled_cf(v: Scalar) -> CFStream:
    """Stream 1 + v²/(3 + v²/(5 + v²/(7 + ...))) = v coth v  (value 1 at v = 0)."""
    cast = _cast_for(v, "v")

    def term(k: int) -> CFTerm:
        return CFTerm(v * v, cast(2 * k + 1))

    return CFStream(cast(1), term, description=f"coth-scaled({v!r})")


class Family(enum.Enum):
    """The eight families, named as on the command line.

    This is the family table: each member holds its generator, the oracle
    for its left-hand side, and whether both take the exponent n ahead of
    the argument.
    """

    LAGRANGE_BINOMIAL = ("lagrange-binomial", lagrange_binomial, binomial_power, True)
    UNIFORM_BINOMIAL = ("uniform-binomial", uniform_binomial, binomial_power, True)
    SYMMETRIC_BINOMIAL = ("symmetric-binomial", symmetric_binomial, symmetric_lhs, True)
    TAN_MULTIPLE = ("tan-multiple", tan_multiple, tan_multiple_lhs, True)
    ARCTAN = ("arctan", arctan_cf, arctan_lhs, False)
    TAN = ("tan", tan_cf, tan_lhs, False)
    LOG_RATIO = ("log-ratio", log_ratio_cf, log_ratio_lhs, False)
    COTH_SCALED = ("coth-scaled", coth_scaled_cf, coth_scaled_lhs, False)

    def __new__(
        cls,
        name: str,
        generator: Callable[..., CFStream],
        oracle: Callable[..., OracleResult],
        takes_n: bool,
    ) -> "Family":
        member = object.__new__(cls)
        member._value_ = name
        member.generator = generator
        member.oracle = oracle
        member.takes_n = takes_n
        return member

    @classmethod
    def from_name(cls, name: str) -> "Family":
        try:
            return cls(name)
        except ValueError:
            known = ", ".join(f.value for f in cls)
            raise DomainError(f"unknown family {name!r}; known families: {known}") from None


@dataclass(frozen=True)
class FamilySpec:
    """A family plus its parameters: the exponent n (where applicable) and
    the argument (x, y/z, t, θ or v depending on the family).

    The exponent is normalized to an exact :class:`fractions.Fraction` at
    construction so termination decisions never depend on the evaluation
    mode of the argument.
    """

    family: Family
    arg: Scalar
    n: Optional[Union[int, float, Fraction]] = None

    def __post_init__(self) -> None:
        if self.family.takes_n:
            if self.n is None:
                raise DomainError(f"family {self.family.value} requires an exponent n")
            object.__setattr__(self, "n", as_fraction(self.n))
        elif self.n is not None:
            raise DomainError(f"family {self.family.value} takes no exponent parameter")
        _require_finite(self.arg, "arg")

    @property
    def mode(self) -> Mode:
        return mode_of(self.arg)

    def _params(self) -> tuple:
        return (self.n, self.arg) if self.family.takes_n else (self.arg,)

    def stream(self) -> CFStream:
        return self.family.generator(*self._params())


def oracle_value(spec: FamilySpec) -> Scalar:
    """Reference value for a family spec via the family's oracle.

    Raises :class:`DomainError` where no oracle applies (complex-mode
    arguments, or parameter combinations outside the oracle's domain).
    """
    return spec.family.oracle(*spec._params()).value
