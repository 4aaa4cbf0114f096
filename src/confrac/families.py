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

Every generator is one call of a private builder, ``_stream``, with its row
of the law table.  After an optional head level, inner level j is
``a_j = α(j)·x^p`` over ``b_j = β(j)·(1 + s·x)``; with a head, inner level
j is stream level j+1, without one it is level j:

    family              b0  head (level 1)     α(j)              p  β(j)           s
    lagrange-binomial   1   nx/1               (j+1)/2 - n odd,  1  2 odd,         -
                                               j/2 + n even         j+1 even
    uniform-binomial    1   nx/(1 + (1-n)x/2)  (n² - j²)/4       2  2j+1           1/2
    symmetric-binomial  1   -                  n² - j²           2  2j+1           -
    tan-multiple        0   nt/1               j² - n²           2  2j+1           -
    arctan              0   t/1                j²                2  2j+1           -
    tan                 0   θ/1                a_j = -(θ·θ)         2j+1           -
    log-ratio           0   2z/1               -j²               2  2j+1           -
    coth-scaled         1   -                  a_j = v·v            2j+1           -

Exponents are carried as exact rationals regardless of evaluation mode:
α(j) and β(j) are computed exactly (n² and (1-n)/2 once per stream) and
only then cast, once per level, into the argument's mode (``Fraction``,
``float`` or ``complex``, looked up once per stream), so for integer n the
vanishing partial numerator is an exact zero even in floating point and
termination is never lost to rounding.  Termination levels:
``symmetric_binomial`` at |n|, ``uniform_binomial`` at |n|+1,
``lagrange_binomial`` at 2n (n > 0) or 2|n|+1 (n < 0), ``tan_multiple`` at
|n|+1.

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
    if not mode_of(value).isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _require_real(value: Scalar, name: str) -> None:
    if isinstance(value, complex) and value.imag != 0:
        raise DomainError(f"{name} must be real, got {value!r}")


#: An exact coefficient law: inner level j -> int or Fraction.
_Law = Callable[[int], Union[int, Fraction]]


def _stream(family: str, name: str, x: Scalar, b0: int, alpha: Union[_Law, int], *,
            n: Optional[Fraction] = None, beta: Optional[_Law] = None, power: int = 2,
            scale: Optional[Fraction] = None, head: Optional[tuple] = None) -> CFStream:
    """The one builder of family streams: a row of the law table.

    Inner level j is ``cast(alpha(j))·x^power / (cast(beta(j))·(1 + scale·x))``,
    where ``beta(j)`` defaults to 2j+1 and the factor ``(1 + scale·x)`` is
    there only when ``scale`` is given.  An int ``alpha`` is a fixed sign
    instead: every inner numerator is the one value ``x·x`` or ``-(x·x)``.
    With ``head = (h, d)`` level 1 is ``h·x / (1 + d·x)`` and inner level j
    is level j+1; without a head it is level j.  ``h = None`` puts x itself
    on top (``complex(1)·x`` would turn a ``-0.0`` imaginary part into
    ``+0.0``) and ``d = None`` leaves the bare 1.  Each exact coefficient is
    cast once per level and multiplied in the order ``cast(alpha)·x·x``
    (``x·x`` first rounds differently, and overflows to ``0·inf``), so an
    exact zero stays exact in every mode.  The finiteness check comes
    first, so a generator's own domain checks, which follow the call, only
    see finite arguments.
    """
    _require_finite(x, name)
    cast = mode_of(x).cast
    one = cast(1)
    fixed = None if callable(alpha) else (x * x if alpha > 0 else -(x * x))
    unit = None if scale is None else one + cast(scale) * x
    shift = 0 if head is None else 1

    def term(k: int) -> CFTerm:
        j = k - shift
        if j == 0:
            h, d = head
            return CFTerm(x if h is None else cast(h) * x, one if d is None else one + cast(d) * x)
        if fixed is None:
            a = cast(alpha(j)) * x
            if power == 2:
                a = a * x
        else:
            a = fixed
        b = cast(2 * j + 1 if beta is None else beta(j))
        return CFTerm(a, b if unit is None else b * unit)

    label = f"{family}({x!r})" if n is None else f"{family}(n={n}, {name}={x!r})"
    return CFStream(cast(b0), term, description=label)


def lagrange_binomial(n: Union[int, float, Fraction], x: Scalar) -> CFStream:
    """Alternating-law stream for (1+x)^n.

    Terminates at level 2n for positive integer n, 2|n|+1 for negative
    integer n, with the exact rational value.  For real evaluation against
    the binomial oracle keep x > -1; the stream itself exists for any
    finite x.
    """
    n = as_fraction(n)
    return _stream("lagrange-binomial", "x", x, 1,
                   lambda j, n=n: (j + 1) // 2 - n if j % 2 else j // 2 + n,
                   n=n, beta=lambda j: 2 if j % 2 else j + 1, power=1, head=(n, None))


def uniform_binomial(n: Union[int, float, Fraction], x: Scalar) -> CFStream:
    """Uniform-law stream for (1+x)^n; terminates at level |n|+1 for integer n."""
    n = as_fraction(n)
    return _stream("uniform-binomial", "x", x, 1, lambda j, n2=n * n: (n2 - j * j) / 4,
                   n=n, scale=Fraction(1, 2), head=(n, (1 - n) / 2))


def symmetric_binomial(n: Union[int, float, Fraction], z: Scalar) -> CFStream:
    """Stream 1 + (n²-1)z²/(3 + (n²-4)z²/(5 + ...)).

    Only n² enters the terms, so n and -n give identical streams; integer n
    terminates at level |n|.  Complex z is allowed (the terms stay real for
    purely imaginary z since z only appears squared).
    """
    n = as_fraction(n)
    return _stream("symmetric-binomial", "z", z, 1, lambda j, n2=n * n: n2 - j * j, n=n)


def tan_multiple(n: Union[int, float, Fraction], t: Scalar) -> CFStream:
    """Full fraction nt/(1 - (n²-1)t²/(3 - (n²-4)t²/(5 - ...))) = tan(nφ), t = tan φ.

    Terminates at level |n|+1 for integer n (tan 2φ = 2t/(1-t²) and so on).
    A pole of tan(nφ) shows up at evaluation time as a vanishing
    denominator, not here.
    """
    n = as_fraction(n)
    stream = _stream("tan-multiple", "t", t, 0, lambda j, n2=n * n: j * j - n2,
                     n=n, head=(n, None))
    _require_real(t, "t")
    return stream


def arctan_cf(t: Scalar) -> CFStream:
    """Full fraction t/(1 + t²/(3 + 4t²/(5 + 9t²/(7 + ...)))) = arctan t."""
    stream = _stream("arctan", "t", t, 0, lambda j: j * j, head=(None, None))
    _require_real(t, "t")
    return stream


def tan_cf(theta: Scalar) -> CFStream:
    """Full fraction θ/(1 - θ²/(3 - θ²/(5 - ...))) = tan θ.

    Arguments within ``TAN_POLE_GUARD`` of an odd multiple of pi/2 are
    rejected: the true function has a pole there and truncations are
    meaningless.
    """
    stream = _stream("tan", "theta", theta, 0, -1, head=(None, None))
    _require_real(theta, "theta")
    residue = math.fmod(abs(float(theta.real if isinstance(theta, complex) else theta)), math.pi)
    if abs(residue - math.pi / 2) < TAN_POLE_GUARD:
        raise DomainError(
            f"theta={theta!r} is within {TAN_POLE_GUARD} of an odd multiple of pi/2 (tangent pole)"
        )
    return stream


def log_ratio_cf(z: Scalar) -> CFStream:
    """Full fraction 2z/(1 - z²/(3 - 4z²/(5 - 9z²/(7 - ...)))) = log((1+z)/(1-z)).

    Requires real |z| < 1, mirroring the left-hand side's domain.
    """
    stream = _stream("log-ratio", "z", z, 0, lambda j: -j * j, head=(2, None))
    _require_real(z, "z")
    if abs(z) >= 1:
        raise DomainError(f"log_ratio_cf requires |z| < 1, got {z!r}")
    return stream


def coth_scaled_cf(v: Scalar) -> CFStream:
    """Stream 1 + v²/(3 + v²/(5 + v²/(7 + ...))) = v coth v  (value 1 at v = 0)."""
    return _stream("coth-scaled", "v", v, 1, 1)


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
