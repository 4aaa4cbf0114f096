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

Every generator builds one private stream class, ``_Law``, with its row
of the law table.  After an optional head level, inner level j is
``a_j = α(j)·x^p`` over ``b_j = β(j)·(1 + s·x)``; with a head, inner level
j is stream level j+1, without one it is level j.  α(j) is an integer
numerator over the stream's denominator, with N/D = n in lowest terms
(so n² is N²/D², in lowest terms too):

    family              b0  head (level 1)     α(j)                   p  β(j)       s
    lagrange-binomial   1   nx/1               ((j+1)/2·D - N)/D odd, 1  2 odd,     -
                                               (j/2·D + N)/D even        j+1 even
    uniform-binomial    1   nx/(1 + (1-n)x/2)  (N²-j²D²)/4D²          2  2j+1       1/2
    symmetric-binomial  1   -                  (N²-j²D²)/D²           2  2j+1       -
    tan-multiple        0   nt/1               (j²D²-N²)/D²           2  2j+1       -
    arctan              0   t/1                j²/1                   2  2j+1       -
    tan                 0   θ/1                -1                     2  2j+1       -
    log-ratio           0   2z/1               -j²/1                  2  2j+1       -
    coth-scaled         1   -                  1                      2  2j+1       -

A generator reads n once as the int pair (N, D), and N², D² once: α(j) is one wide product a level.
A mode fixes only the quotient of an int pair, ``div(num, den)``: ``Fraction`` in rational mode, in
lowest terms, and otherwise int true division, correctly rounded (a complex x promotes the float as
``complex(q)``), which the rule gets cheaper at den = 2^s in [2, 2^899] as float(α(j)) times 1/den (both round
α(j) once, the quotient being normal), falling back where float(α(j)) overflows to ``scalars._double``'s
α(j)/den: that, or DomainError naming the level (or n) past the float range.  One loop states a level for every
arithmetic, ``div(α(j), den)·x·x`` over ``β(j)·(1 + div(s)·x)``, and the head takes the same products; the
exact levels, ``_cleared()``, are the engine's least clearing read off the ints and x's exact ratio.
Termination is read off the ints, never a rounded product: a level is the
exact zero where α(j), the head's h or x is 0, so an underflowed numerator
(``x·x`` at x = 1e-200) does not end the fraction.  α(j) is 0 only at a
nonzero integer n, at level |n| (symmetric), |n|+1 (uniform, tan-multiple),
2n (lagrange, n > 0) or 2|n|+1 (lagrange, n < 0); x = 0 or h = 0 ends it
at level 1.  So a stream reads, when built, the level at which its law
ends it, ``_end``: it answers ``termination_level``; a float or rational
evaluation capped at or past it walks nothing and reports the law's one
exact fold (a float one read at x's exact ratio, rounded once), and every
other walk is the law's loop over j, which ``_end`` bounds.

:class:`Family` is the one table that maps each family to its generator
and its oracle's name; ``Family.oracle`` reads that name from
:mod:`confrac.oracles` on first use, so a command that only evaluates never
imports the oracles.  :class:`FamilySpec` and :func:`oracle_value` read it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from operator import mul, truediv
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from .engine import CFStream
from .errors import DomainError
from .scalars import Mode, Scalar, _double, _ratio, _scalar, _text, mode_of

if TYPE_CHECKING:
    from .oracles import OracleResult

#: Reject tan_cf arguments closer than this to an odd multiple of pi/2.
TAN_POLE_GUARD = 1e-8
_HALF = (1, 2)  # uniform-binomial's s
_ODD_CARRY = 2**51  # a walk from a first j below this carries 2j+1 exactly: no walk runs 2**51 levels


def _require_real(value: Scalar, name: str) -> None:
    if isinstance(value, complex) and value.imag != 0:
        raise DomainError(f"{name} must be real, got {value!r}")


#: An integer coefficient law: inner level j -> α's numerator, or β itself.
_Rule = Callable[[int], int]


class _Law(CFStream):
    """A family stream: a row of the law table, read by the class's methods.

    Inner level j is ``div(alpha(j), den)·x^power / (cast(beta(j))·unit)`` (module
    docstring), ``beta(j)`` 2j+1 by default and ``unit = 1 + div(*scale)·x`` only when
    ``scale`` is given.  With ``head = (h, d)``, level 1 is ``div(*h)·x / (1 + div(*d)·x)``
    and inner level j is level j+1; without a head it is level j.  ``n``, ``scale``, h
    and d are int pairs (num, den).  ``h = None`` puts x itself on top, cast to its mode
    (``complex(1)·x`` would turn a ``-0.0`` imaginary part into ``+0.0``), and
    ``d = None`` leaves the bare 1.  ``_walk(k)`` walks the levels in one loop per shape, the
    odd loop (β, power and unit the defaults) carrying b = 2j+1 by adding 2, and multiplies in the
    order ``div(num, den)·x·x`` (``x·x`` first rounds differently, and overflows to
    ``0·inf``).  ``_end``, the law's zero, is read off the ints once, when built, and
    bounds ``_walk(k)``, the levels from k on (after the head level at k = 1, on past
    the zero, none at x = 0), except through the zero (``term(k)``, a tail's head: every
    level, at x = 0 too), and ``_rows``, its int loop on x's exact ratio, which clears
    the levels by the engine's ``_integral`` rule in every mode for ``_cleared(k)``.
    A build stores the row, makes no closure and no ``Fraction`` outside rational mode,
    and ``description`` is formatted when read.  The input rule (``scalars._scalar``)
    reads x first, so a generator's domain checks see a finite scalar.
    """

    def __init__(self, family: str, name: str, x: Scalar, b0: int, alpha: _Rule, den: int = 1,
                 n: Optional[tuple] = None, beta: Optional[_Rule] = None, power: int = 2,
                 scale: Optional[tuple] = None, head: Optional[tuple] = None):
        mode = self.mode = _scalar(x, name)
        self._args, cast, one = (family, name, b0, n, scale, head), mode.cast, mode.cast(1)
        div = Fraction if cast is Fraction else truediv  # the rule's quotient (module docstring): a den > 1 has an n
        dyadic = div is truediv and den > 1 and den.bit_count() == 1 and den.bit_length() <= 900  # as α(j)/den rounds
        self.b0, unit = cast(b0), None if scale is None else one + div(*scale) * x
        self._law = (x, alpha, den, beta, power, cast, unit, mul if dyadic else div, 1.0 / den if dyadic else den)
        h, d = head or (None, None)  # _top: level 1, (a_1, b_1), where the row has a head; d is in range where h is
        self._top = head and (cast(x) if h is None else (Fraction(*h) if div is Fraction else _double(h, "n")) * x,
                              one if d is None else one + div(*d) * x)
        if x == 0 or h is not None and h[0] == 0:
            self._end = 1
        elif e := n is not None and n[1] == 1 and abs(n[0]):  # α(j) = 0 only at e, 2e-1, 2e
            self._end = next((j + (head is not None) for j in (e, 2 * e - 1, 2 * e) if alpha(j) == 0), None)

    @property
    def description(self) -> str:
        (family, name, _, n), x = self._args[:4], self._law[0]
        return f"{family}({_text(x)})" if n is None else f"{family}(n={_text(Fraction(*n), False)}, {name}={_text(x)})"

    def _inner(self, k: int = 1) -> Iterable[int]:  # the j of levels k, k+1, ... before the zero
        shift, end = self._top is not None, self._end
        if end is not None and k <= end:  # k - shift is 0 only at the head
            return range(k - shift or 1, end - shift)
        return () if self._law[0] == 0 else count(k - shift or 1)  # walks on past the zero; x = 0 zeroes all

    def _walk(self, k: int = 1, through: bool = False) -> Iterator[tuple[Scalar, Scalar]]:
        # levels k, k+1, ... up to the zero (after the head level at k = 1, none at x = 0), or on through it
        shift, (x, alpha, den, beta, power, cast, unit, quotient, by) = self._top is not None, self._law
        if k == 1 and shift and (through or self._end != 1):
            yield self._top
        first = k - shift or 1
        js = count(first) if through else self._inner(k)
        if beta is None and unit is None and power == 2 and first < _ODD_CARRY:  # the odd loop: no shape test a level
            b, two = cast(2 * first + 1), cast(2)  # b = 2j+1, carried exactly: a walk stays below 2**53
            for j in js:
                try:
                    a = quotient(alpha(j), by) * x
                except OverflowError:  # as in the general loop below
                    a = _double((alpha(j), den), f"level {j + shift}", self.mode) * x
                yield a * x, b
                b += two
            return
        for j in js:
            try:
                a = quotient(alpha(j), by) * x
            except OverflowError:  # α(j) or α(j)/den past the float range: α(j)/den rounded once, or DomainError
                a = _double((alpha(j), den), f"level {j + shift}", self.mode) * x
            b = cast(2 * j + 1 if beta is None else beta(j))
            yield a * x if power == 2 else a, b if unit is None else b * unit

    def _cleared(self, k: int = 0) -> tuple[tuple[int, int], Iterator[tuple[int, int, int]]]:
        # b_k in lowest terms (B_k/c_k of level k's row below 1, a zero level's too) and the rows below it
        (xn, xd), shift = self._law[0].as_integer_ratio(), self._top is not None
        if k == 0:
            return (self._args[2], 1), self._rows(self._inner(1), 1, xn, xd, shift and self._end != 1)
        c, _, B = next(self._rows((k - shift,), 1, xn, xd, k == 1 and shift))
        return (B // (g := math.gcd(B, c)), c // g), self._rows(self._inner(k + 1), c // g, xn, xd)

    def _rows(self, js: Iterable[int], c: int, xn: int, xd: int, top: bool = False) -> Iterator[tuple[int, int, int]]:
        # _integral's rows of the inner levels js below c, after the head level's where top
        (_, alpha, den, beta, power, *_), (*_, scale, head), gcd = self._law, self._args, math.gcd
        U, V = (scale[1] * xd + scale[0] * xn, scale[1] * xd) if scale else (1, 1)  # unit = 1 + s·x
        if top:  # a_1 = h·x over b_1 = 1 + d·x, as int ratios a/M over b/W in any terms
            (hn, hd), (dn, dd) = head[0] or (1, 1), head[1] or (0, 1)
            a, M, b, W = hn * xn * c, hd * xd, dd * xd + dn * xn, dd * xd
            c = math.lcm(d := M // (g := gcd(a, M)), W // gcd(b, W))
            yield c, a // g * (c // d), b * c // W
        P, M, wide = xn ** power, den * xd ** power, scale is not None
        for j in js:  # M/gcd(α(j)·P·c, M) is _integral's den a/gcd(den a, c) on a = α(j)·P/M
            a, b = alpha(j) * P * c, 2 * j + 1 if beta is None else beta(j)
            c = M // (g := gcd(a, M))
            if wide:  # uniform's b_j = βU/V: c_k = lcm(d, V/gcd(βU, V)); else U = V = 1
                d, c = c, math.lcm(c, V // gcd(b * U, V))
                yield c, a // g * (c // d), b * U * c // V
            else:
                yield c, a // g, b * c


def lagrange_binomial(n: Union[int, float, Fraction], x: Scalar) -> CFStream:
    """Alternating-law stream for (1+x)^n.

    Terminates at level 2n for positive integer n, 2|n|+1 for negative
    integer n, with the exact rational value.  For real evaluation against
    the binomial oracle keep x > -1; the stream itself exists for any
    finite x.
    """
    N, D = n = _ratio(n, "n")
    return _Law("lagrange-binomial", "x", x, 1,
                lambda j: (j + 1) // 2 * D - N if j % 2 else j // 2 * D + N, den=D,
                n=n, beta=lambda j: 2 if j % 2 else j + 1, power=1, head=(n, None))


def uniform_binomial(n: Union[int, float, Fraction], x: Scalar) -> CFStream:
    """Uniform-law stream for (1+x)^n; terminates at level |n|+1 for integer n."""
    N, D = n = _ratio(n, "n")
    N2, D2 = N * N, D * D
    return _Law("uniform-binomial", "x", x, 1, lambda j: N2 - j * j * D2, den=4 * D2,
                n=n, scale=_HALF, head=(n, (D - N, 2 * D)))


def symmetric_binomial(n: Union[int, float, Fraction], z: Scalar) -> CFStream:
    """Stream 1 + (n²-1)z²/(3 + (n²-4)z²/(5 + ...)).

    Only n² enters the terms, so n and -n give identical streams; integer n
    terminates at level |n|.  Complex z is allowed (the terms stay real for
    purely imaginary z since z only appears squared).
    """
    N, D = n = _ratio(n, "n")
    N2, D2 = N * N, D * D
    return _Law("symmetric-binomial", "z", z, 1, lambda j: N2 - j * j * D2, den=D2, n=n)


def tan_multiple(n: Union[int, float, Fraction], t: Scalar) -> CFStream:
    """Full fraction nt/(1 - (n²-1)t²/(3 - (n²-4)t²/(5 - ...))) = tan(nφ), t = tan φ.

    Terminates at level |n|+1 for integer n (tan 2φ = 2t/(1-t²) and so on).
    A pole of tan(nφ) shows up at evaluation time as a vanishing
    denominator, not here.
    """
    N, D = n = _ratio(n, "n")
    N2, D2 = N * N, D * D
    stream = _Law("tan-multiple", "t", t, 0, lambda j: j * j * D2 - N2, den=D2, n=n, head=(n, None))
    _require_real(t, "t")
    return stream


def arctan_cf(t: Scalar) -> CFStream:
    """Full fraction t/(1 + t²/(3 + 4t²/(5 + 9t²/(7 + ...)))) = arctan t."""
    stream = _Law("arctan", "t", t, 0, lambda j: j * j, head=(None, None))
    _require_real(t, "t")
    return stream


def tan_cf(theta: Scalar) -> CFStream:
    """Full fraction θ/(1 - θ²/(3 - θ²/(5 - ...))) = tan θ.

    Arguments within ``TAN_POLE_GUARD`` of an odd multiple of pi/2 are
    rejected: the true function has a pole there and truncations are
    meaningless.
    """
    stream = _Law("tan", "theta", theta, 0, lambda j: -1, head=(None, None))
    _require_real(theta, "theta")
    residue = math.fmod(abs(t if isinstance(t := theta.real, float) else _double(_ratio(t), "theta")), math.pi)
    if abs(residue - math.pi / 2) < TAN_POLE_GUARD:
        raise DomainError(
            f"theta={_text(theta)} is within {TAN_POLE_GUARD} of an odd multiple of pi/2 (tangent pole)"
        )
    return stream


def log_ratio_cf(z: Scalar) -> CFStream:
    """Full fraction 2z/(1 - z²/(3 - 4z²/(5 - 9z²/(7 - ...)))) = log((1+z)/(1-z)).

    Requires real |z| < 1, mirroring the left-hand side's domain.
    """
    stream = _Law("log-ratio", "z", z, 0, lambda j: -j * j, head=((2, 1), None))
    _require_real(z, "z")
    if abs(z) >= 1:
        raise DomainError(f"log_ratio_cf requires |z| < 1, got {_text(z)}")
    return stream


def coth_scaled_cf(v: Scalar) -> CFStream:
    """Stream 1 + v²/(3 + v²/(5 + v²/(7 + ...))) = v coth v  (value 1 at v = 0)."""
    return _Law("coth-scaled", "v", v, 1, lambda j: 1)


class Family(enum.Enum):
    """The eight families, named as on the command line.

    This is the family table: each member holds its generator, the name of
    the oracle for its left-hand side (``oracle`` reads it on first use), and
    whether both take the exponent n ahead of the argument.
    """

    LAGRANGE_BINOMIAL = ("lagrange-binomial", lagrange_binomial, "binomial_power", True)
    UNIFORM_BINOMIAL = ("uniform-binomial", uniform_binomial, "binomial_power", True)
    SYMMETRIC_BINOMIAL = ("symmetric-binomial", symmetric_binomial, "symmetric_lhs", True)
    TAN_MULTIPLE = ("tan-multiple", tan_multiple, "tan_multiple_lhs", True)
    ARCTAN = ("arctan", arctan_cf, "arctan_lhs", False)
    TAN = ("tan", tan_cf, "tan_lhs", False)
    LOG_RATIO = ("log-ratio", log_ratio_cf, "log_ratio_lhs", False)
    COTH_SCALED = ("coth-scaled", coth_scaled_cf, "coth_scaled_lhs", False)

    def __new__(cls, name: str, generator: Callable[..., CFStream], oracle: str, takes_n: bool) -> "Family":
        member = object.__new__(cls)
        member._value_ = name
        member.generator = generator
        member._oracle = oracle
        member.takes_n = takes_n
        return member

    @cached_property
    def oracle(self) -> Callable[..., OracleResult]:
        """The family's oracle, read from :mod:`confrac.oracles` on first use: ``eval`` never loads it."""
        from . import oracles
        return getattr(oracles, self._oracle)

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
            object.__setattr__(self, "n", Fraction(*_ratio(self.n, "n")))
        elif self.n is not None:
            raise DomainError(f"family {self.family.value} takes no exponent parameter")
        _scalar(self.arg, "arg")

    @property
    def mode(self) -> Mode:
        return mode_of(self.arg)

    def _params(self) -> tuple:
        return (self.n, self.arg) if self.family.takes_n else (self.arg,)

    def stream(self) -> CFStream:
        return self.family.generator(*self._params())


def oracle_value(spec: FamilySpec) -> Scalar:
    """Reference value for a family spec via the family's oracle.

    Raises :class:`DomainError` where no oracle applies (complex-mode arguments,
    outside the oracle's domain, or a closed form failing in float arithmetic).
    """
    try:
        return spec.family.oracle(*spec._params()).value
    except ArithmeticError as exc:  # libm's range error, or a zero division, in float arithmetic
        raise DomainError(f"oracle {spec.family.oracle.__name__} fails in float arithmetic: {exc}") from None
