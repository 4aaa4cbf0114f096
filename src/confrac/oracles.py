"""Independent reference values for every family's left-hand side.

These are the cross-checks for the continued fractions, deliberately
computed by a different route: platform libm closed forms (trusted to
about 1 ulp), exact rational arithmetic where integer exponents make it
possible, and a truncated power-series ratio for the scaled hyperbolic
cotangent.  Exact-rational paths never touch floating point.

The removable singularities (z = 0 for the symmetric form, v = 0 for the
scaled cotangent) are 0/0 forms and raise :class:`DomainError`: an oracle
returns formula values only, never a limit value.

This module holds only the closed forms; which one serves which family is
decided by the family table in :mod:`confrac.families`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError
from .scalars import Mode, Scalar, as_fraction, mode_of


@dataclass(frozen=True)
class OracleResult:
    """Reference value of a left-hand side."""

    value: Scalar


def _real(value: Scalar, name: str) -> float:
    if isinstance(value, complex):
        raise DomainError(f"{name} must be real for this oracle, got {value!r}")
    return float(value)


def binomial_power(n: Union[int, float, Fraction], x: Scalar) -> OracleResult:
    """(1+x)^n; exact rational when n is an integer and x is rational."""
    n = as_fraction(n)
    if n.denominator == 1:
        ni = int(n)
        if mode_of(x) is Mode.RATIONAL:
            base = 1 + Fraction(x)
            if ni < 0 and base == 0:
                raise DomainError("x = -1 with a negative exponent")
            return OracleResult(base**ni)
        xf = _real(x, "x")
        if ni < 0 and 1 + xf == 0:
            raise DomainError("x = -1 with a negative exponent")
        return OracleResult((1 + xf) ** ni)
    xf = _real(x, "x")
    if 1 + xf <= 0:
        raise DomainError(f"1 + x must be positive for non-integer n, got x={x!r}")
    return OracleResult(math.pow(1 + xf, float(n)))


def symmetric_lhs(n: Union[int, float, Fraction], z: Scalar) -> OracleResult:
    """nz[(1+z)^n + (1-z)^n] / [(1+z)^n - (1-z)^n] for 0 < |z| < 1, n != 0.

    An even function of n.  At z = 0 the quotient is 0/0 with limit 1 and
    raises :class:`DomainError`.  At n = 0 the expression is 0/0
    whose limit is the log-ratio form; use :func:`log_ratio_lhs` instead.
    Exact rational for integer n and rational z.
    """
    n = as_fraction(n)
    if n == 0:
        raise DomainError("n = 0 is a 0/0 form; its limit is 2z/log((1+z)/(1-z))")
    if abs(z) >= 1:
        raise DomainError(f"symmetric form needs |z| < 1, got {z!r}")
    if z == 0:
        raise DomainError("z = 0 is a 0/0 form with limit 1")
    if n.denominator == 1 and mode_of(z) is Mode.RATIONAL:
        zq = Fraction(z)
        ni = int(n)
        plus, minus = (1 + zq) ** ni, (1 - zq) ** ni
        return OracleResult(n * zq * (plus + minus) / (plus - minus))
    zf = _real(z, "z")
    nf = float(n)
    plus, minus = (1 + zf) ** nf, (1 - zf) ** nf
    return OracleResult(nf * zf * (plus + minus) / (plus - minus))


def tan_multiple_lhs(n: Union[int, float, Fraction], t: Scalar) -> OracleResult:
    """tan(n * arctan t), the multiple-angle tangent with t = tan φ."""
    nf = float(as_fraction(n))
    tf = _real(t, "t")
    angle = nf * math.atan(tf)
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
    if abs(z) >= 1:
        raise DomainError(f"log ratio needs |z| < 1, got {z!r}")
    zf = _real(z, "z")
    return OracleResult(math.log1p(zf) - math.log1p(-zf))


def coth_scaled_lhs(v: Scalar) -> OracleResult:
    """v(e^{2v}+1)/(e^{2v}-1) = v coth v; even in v.  v = 0, a 0/0 form
    with limit 1, raises :class:`DomainError`."""
    if v == 0:
        raise DomainError("v = 0 is a 0/0 form with limit 1")
    vf = _real(v, "v")
    em = math.expm1(2 * vf)
    return OracleResult(vf * (em + 2) / em)


def series_ratio_coth(v: Scalar, terms: int) -> OracleResult:
    """Ratio of the truncated series Σ v^{2k}/(2k)! over Σ v^{2k}/(2k+1)!.

    Both sums take ``terms`` terms (k = 0..terms-1).  Converges to the
    scaled cotangent; exact rational for rational v.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if mode_of(v) is Mode.RATIONAL:
        v2 = Fraction(v) ** 2
        num = sum((v2**k) * Fraction(1, math.factorial(2 * k)) for k in range(terms))
        den = sum((v2**k) * Fraction(1, math.factorial(2 * k + 1)) for k in range(terms))
        return OracleResult(num / den)
    vf = _real(v, "v")
    v2 = vf * vf
    num = sum(v2**k / math.factorial(2 * k) for k in range(terms))
    den = sum(v2**k / math.factorial(2 * k + 1) for k in range(terms))
    return OracleResult(num / den)
