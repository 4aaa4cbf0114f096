"""Independent reference values for every family's left-hand side.

These are the cross-checks for the continued fractions, deliberately
computed by a different route: platform libm closed forms (trusted to
about 1 ulp), exact rational arithmetic where integer exponents make it
possible, and a truncated power-series ratio for the scaled hyperbolic
cotangent, summed exactly in both modes.  Exact-rational paths never
touch floating point, and a float one rounds its exact ratio once.

The removable singularities (z = 0 for the symmetric form, v = 0 for the
scaled cotangent) are 0/0 forms and raise :class:`DomainError`: an oracle
returns formula values only, never a limit value.

Each closed form is written once; exact or float only picks the argument,
``Fraction(x)`` or a float (``_real``, which reads it by the input rule of
:mod:`confrac.scalars` and refuses a complex one), and the exponent, read once
as its int ratio, an int or its double.  The family table in
:mod:`confrac.families` decides which serves which family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError
from .scalars import _COMPLEX, _RATIONAL, Scalar, _count, _double, _ratio, _scalar


@dataclass(frozen=True)
class OracleResult:
    """Reference value of a left-hand side."""

    value: Scalar


def _real(value: Scalar, name: str, exact: bool = False) -> Union[float, Fraction]:
    # An oracle's argument, read by the input rule (scalars._scalar), real: a float, or an exact one's Fraction if exact
    if (mode := _scalar(value, name)) is _COMPLEX:
        raise DomainError(f"{name} must be real for this oracle, got {value!r}")
    return value if mode is not _RATIONAL else Fraction(value) if exact else _double(value.as_integer_ratio(), name)


def binomial_power(n: Union[int, float, Fraction], x: Scalar) -> OracleResult:
    """(1+x)^n; exact rational when n is an integer and x is rational."""
    N, D = _ratio(n, "n")
    base = 1 + _real(x, "x", D == 1)
    if D == 1:
        if N < 0 and base == 0:
            raise DomainError("x = -1 with a negative exponent")
        return OracleResult(base ** N)
    if base <= 0:
        raise DomainError(f"1 + x must be positive for non-integer n, got x={x!r}")
    return OracleResult(math.pow(base, _double((N, D), "n")))


def symmetric_lhs(n: Union[int, float, Fraction], z: Scalar) -> OracleResult:
    """nz[(1+z)^n + (1-z)^n] / [(1+z)^n - (1-z)^n] for 0 < |z| < 1, n != 0.

    An even function of n.  At z = 0 the quotient is 0/0 with limit 1 and
    raises :class:`DomainError`.  At n = 0 the expression is 0/0
    whose limit is the log-ratio form; use :func:`log_ratio_lhs` instead.
    Exact rational for integer n and rational z.
    """
    N, D = _ratio(n, "n")
    real = _real(z, "z", D == 1)
    if N == 0:
        raise DomainError("n = 0 is a 0/0 form; its limit is 2z/log((1+z)/(1-z))")
    if abs(z) >= 1:
        raise DomainError(f"symmetric form needs |z| < 1, got {z!r}")
    if z == 0:
        raise DomainError("z = 0 is a 0/0 form with limit 1")
    z, n = real, N if isinstance(real, Fraction) else _double((N, D), "n")
    plus, minus = (1 + z) ** n, (1 - z) ** n
    top = n * z * (plus + minus)  # past the float range only where a power nears its end: there divide first
    return OracleResult(n * z * ((plus + minus) / (plus - minus)) if abs(top) == math.inf else top / (plus - minus))


def tan_multiple_lhs(n: Union[int, float, Fraction], t: Scalar) -> OracleResult:
    """tan(n * arctan t), the multiple-angle tangent with t = tan φ."""
    nf = _double(_ratio(n, "n"), "n")
    tf = _real(t, "t")
    angle = nf * math.atan(tf)
    if math.isinf(angle):  # math.cos would raise its untyped ValueError
        raise DomainError(f"n·arctan t = {nf} * arctan {tf} is past the float range")
    if abs(math.cos(angle)) < 1e-12:
        raise DomainError(f"tan({nf} * arctan {tf}) sits on a tangent pole")
    return OracleResult(math.tan(angle))


def arctan_lhs(t: Scalar) -> OracleResult:
    """arctan t for real t."""
    return OracleResult(math.atan(_real(t, "t")))


def tan_lhs(theta: Scalar) -> OracleResult:
    """tan θ for real θ."""
    return OracleResult(math.tan(_real(theta, "theta")))


def log_ratio_lhs(z: Scalar) -> OracleResult:
    """log((1+z)/(1-z)) for real |z| < 1."""
    zf = _real(z, "z")
    if abs(z) >= 1:
        raise DomainError(f"log ratio needs |z| < 1, got {z!r}")
    return OracleResult(math.log1p(zf) - math.log1p(-zf))


def coth_scaled_lhs(v: Scalar) -> OracleResult:
    """v(e^{2v}+1)/(e^{2v}-1) = v coth v; even in v.  v = 0, a 0/0 form
    with limit 1, raises :class:`DomainError`."""
    vf = _real(v, "v")
    if v == 0:
        raise DomainError("v = 0 is a 0/0 form with limit 1")
    if vf > 512 * math.log(2):  # the form is even, and expm1 raises where e^{2v} > 2^1024, past the float range
        vf = -vf
    em = math.expm1(2 * vf)
    top = vf * (em + 2)  # past the float range only where e^{2v} nears its end: there divide first
    return OracleResult(vf * ((em + 2) / em) if math.isinf(top) else top / em)


def series_ratio_coth(v: Scalar, terms: int) -> OracleResult:
    """Σ v^{2k}/(2k)! over Σ v^{2k}/(2k+1)!, k < terms, tending to the scaled cotangent: exact for a rational v,
    correctly rounded for a float v, with :class:`DomainError` where a term of a float v has no double."""
    terms = _count(terms, "terms", 1)
    exact = isinstance(real := _real(v, "v", True), Fraction)
    p2, q2 = (part * part for part in real.as_integer_ratio())
    num = den = power = scale = 1  # both sums to term k over one denominator, q^{2k}(2k+1)! (scale); power = p^{2k}
    for j in range(3, 2 * terms, 2):  # j = 2k + 1: term k is term k-1 times v²/((j-1)j)
        step, power = q2 * (j - 1) * j, power * p2
        num, den = num * step + power * j, den * step + power
        if not exact:
            scale *= step
            if _double((power * j, scale)) == math.inf:  # term k, v^{2k}/(2k)!, has no double
                raise DomainError(f"the series at v={v!r} to {terms} terms passes the float range")
            if 2 * p2 <= q2 * j * (j + 1) and (low := _double((num, den + power))) == _double((num + power * j, den)):
                return OracleResult(low)  # the term ratio is at most 1/2, so each sum's tail is below its last term
    return OracleResult(Fraction(num, den) if exact else _double((num, den)))
