"""Representation and evaluation of generalized continued fractions.

A generalized continued fraction

    b0 + a1/(b1 + a2/(b2 + a3/(b3 + ...)))

is held as the leading term ``b0`` plus a lazy, deterministic sequence of
levels ``(a_k, b_k)``, ``k >= 1``, computed on each pull.  A vanishing
partial numerator is the termination signal: if ``a_m == 0`` the value is
the convergent truncated just before level ``m``.  The evaluators' way in
is the stream's walk, ``cf._walk(k)`` from level k, 1 by default (in
rational mode its cleared form, see below), a generator of the levels in
order that stops before that zero: a family's is its law's loop, which
reads the zero off the exact law, never off a rounded ``a``; a user
stream's reads ``term_fn(k)`` for k, k+1, ... and tests ``a == 0``;
:func:`tail` (the sub-fraction hanging off a level) walks the wrapped
stream from the level below its start, and :func:`equivalence_transform`
(a level-wise rescaling that keeps every convergent value) rescales the
wrapped walk; both keep its end, and read their exact levels off the wrapped
stream's (see below).  The walk is the one way to a level: ``cf._walk(k, True)``
goes on through the zero (a user stream's to the end of its terms), and
``term(k)`` and a tail's head read its first level, the zero level's pair too;
``term(k)`` stays O(1), since a walk from k starts at k.
The stream's :class:`~confrac.scalars.Mode` supplies the seeds and the
stopping rule's finiteness test (``cf.mode.isfinite``).

Three evaluation routes with different trade-offs:

* :func:`convergents` / :func:`eval_convergents` -- the forward three-term
  recurrence ``p_k = b_k p_{k-1} + a_k p_{k-2}`` (likewise ``q_k``), seeded
  with ``p_{-1} = 1, q_{-1} = 0, p_0 = b0, q_0 = 1``, one loop (``_forward``,
  ``_forward_exact`` on ints) whose rows both read.  In floating point the pair
  ``(p, q)`` is occasionally rescaled by a power of two (cancels in ``p/q``).
* :func:`eval_lentz` -- the modified Lentz iteration, which sidesteps the
  magnitude growth of the forward recurrence entirely, a step taken inside
  ``_settle``'s loop on the walk.  Floating-point and complex modes only.
* :func:`eval_backward` -- backward folding from an assumed-zero tail at a
  fixed depth; reproduces the depth-truncated convergent exactly in
  rational mode, also when an inner partial value is infinite.

Exact work runs on Python ints, read off every stream's one exact interface,
``cf._cleared(k)`` (k = 0 by default): ``((B, C), rows)``, the exact ``b_k = B/C``
and the levels below it made integral (an equivalence transform), ``(c_j, A_j =
c_j·c_{j-1}·a_j, B_j = c_j·b_j)`` from ``c_k = C``.  Each stream reads them off its
own data: a user stream's are ``_integral`` of its walk's exact ratios, cleared by
the least ``c_j = lcm(den b_j, den a_j / gcd(den a_j, c_{j-1}))``; a family's are the
same, off its law's ints; a tail's are its parent's, a transform's its parent's times
each factor.  The rows' common content, a divisor of ``±C·A_1···A_j``, is divided out
at a few checks of a deep walk (``_divided``).  A value is reduced, to one ``Fraction``,
when ``_settle`` reads it, the rows of every route, exact folds included.

Every route's report comes from one stopping rule, ``_settle``, one loop in one frame over the
Lentz steps, the forward rows or the folds (it forms each row's ``p/q``), and so does
:func:`eval_backward`'s bare value.  A fraction that ends has one exact answer, ``_law_value``: a
fold on ints of the stream's cleared levels, reduced once, or in float mode rounded once by int
true division (±inf past the float range).  It answers a law that ends within the cap (``cf._end``,
the level of its zero) before a step is pulled, and a float walk with no law once it terminates,
unless a level is inf or nan (no exact ratio; the walk keeps its value).  Other walks stop at the
first two successive values that agree, unless a law ends them, or at the first non-finite one
(not converged); a walk that runs out has terminated, unless at the cap.  Complex mode keeps the
route's value (no exact complex type).  Every route marks a pole (``q_k = 0``, an infinite fold) as
``None``; only ``_settle`` raises :class:`PoleError`, for one it would report.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice, pairwise, starmap
from operator import index
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import DomainError, ModeMismatchError, PoleError
from .scalars import (
    DEFAULT_TOLERANCE,
    _COMPLEX,
    _FLOAT,
    _RATIONAL,
    Scalar,
    ToleranceSpec,
    _count,
    _double,
    _ratio,
    _rel_tol,
    _relative_change,
    _scalar,
    _text,
    _within,
    mode_of,
)

#: Depth bound used when callers do not supply one.  Desk-scale arguments
#: converge in far fewer steps; the bound exists to catch divergence.
DEFAULT_MAX_DEPTH = 10_000

# Forward-recurrence rescaling window (float and complex modes).  Keeping max(|p|, |q|) inside [2^-256, 2^256]
# leaves headroom for one step with term magnitudes up to about 1e230 before anything can overflow.  A modulus
# is at most √2 times the larger part, so _forward skips _rescale for |q| in (2^-255, 2^256) and |p| < 2^256.
_RESCALE_BOUND = 2.0**256

#: Stand-in the Lentz iteration puts in place of an exactly-zero
#: intermediate (each one is counted in ``tiny_substitutions``).
LENTZ_TINY = 1e-300

_FIRST_CHECK, _CHECKED_DEPTH = 64, 384  # the exact kernels' first content check (_divided)


@dataclass(frozen=True)
class CFTerm:
    """One level of a continued fraction: partial numerator and denominator.

    ``a == 0`` is legal and terminates the fraction at this level.
    """

    a: Scalar
    b: Scalar


TermFn = Callable[[int], Optional[CFTerm]]


class CFStream:
    """A continued fraction: leading term plus lazy levels.

    ``term_fn(k)`` must be pure: it returns the level-``k`` term (``k >= 1``)
    or ``None`` once a finite stream is exhausted, and it is called on each
    pull, with no cache.  This makes a user stream: each term is checked to
    be in the mode of ``b0``, and ``a == 0`` terminates it.  Family streams
    read both off their law, tails and transforms (``_Tail``, ``_Scaled``)
    off the wrapped stream.  Streams are immutable once constructed and safe to share.
    """

    _end: Optional[int] = None  # the level of the zero that ends the fraction, where a law tells

    def __init__(self, b0: Scalar, term_fn: TermFn, description: str = ""):
        self.b0 = b0
        self.mode = mode_of(b0)
        self.description = description
        self._term_fn = term_fn

    @classmethod
    def from_terms(
        cls,
        b0: Scalar,
        terms: Iterable[Union[CFTerm, tuple[Scalar, Scalar]]],
        description: str = "",
    ) -> "CFStream":
        """Finite stream from an explicit list of terms or (a, b) pairs."""
        fixed = [t if isinstance(t, CFTerm) else CFTerm(*t) for t in terms]
        return cls(b0, lambda k: fixed[k - 1] if k <= len(fixed) else None, description)

    def _walk(self, k: int = 1, through: bool = False) -> Iterator[tuple[Scalar, Scalar]]:
        # The levels in order, (a_k, b_k) from level k on, each checked, up to the zero or the end of a
        # finite stream: every evaluator's way in; through the zero, to the end, for a single level.
        for k in count(k):
            if (t := self._term_fn(k)) is None or (ab := self._in_mode(k, t.a, t.b))[0] == 0 and not through:
                return
            yield ab

    def _cleared(self, k: int = 0) -> tuple[tuple[int, int], Iterator[tuple[int, int, int]]]:
        # The one exact interface (module docstring): b_k's ratio, and the walk from k + 1 made integral below it.
        b = self.b0 if k == 0 else next(self._walk(k, True))[1]  # the pair at a zero level too
        return _ratio(b), _integral(b, self._walk(k + 1))

    def _in_mode(self, k: int, a: Scalar, b: Scalar) -> tuple[Scalar, Scalar]:
        # The one mode check: (a, b) of level k, both in the mode of b0.
        if mode_of(a) is not self.mode or mode_of(b) is not self.mode:
            raise ModeMismatchError(
                f"term {k} of {self.description or 'stream'} is not in {self.mode} mode")
        return a, b

    def term(self, k: int) -> Optional[CFTerm]:
        """Level-``k`` term, or ``None`` past the end of a finite stream."""
        ab = next(self._walk(_count(k, "level", 1), True), None)  # a level is a count, as a depth is
        return None if ab is None else CFTerm(*ab)

    def termination_level(self, within: int) -> Optional[int]:
        """Level of the stream's termination zero: ``_end`` where its law
        records one, else scanned for; the end of a finite stream counts
        too.  ``None`` if the stream runs past ``within`` levels without it."""
        within = _count(within, "within", 0)
        if self._end is not None:
            return self._end if self._end <= within else None
        levels = sum(1 for _ in islice(self._walk(), within))
        return levels + 1 if levels < within else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.description!r}" if self.description else ""
        return f"CFStream(b0={_text(self.b0)}, mode={self.mode}{label})"


class Convergent:
    """Numerator/denominator pair of the depth-``k`` truncation.

    ``q == 0`` marks a pole of the truncation, not corruption; at k = 0 ``value`` is ``p``
    itself (``q_0 = 1``).  In floating-point modes ``p`` and ``q`` may carry a common
    power-of-two rescaling; the ratio is unaffected.  In rational mode it holds the ints
    ``s·p/G``, ``s·q/G`` and ``s`` or ``(s, G)`` (G: content divided out), reduced
    on each read: ``p``, ``q`` in lowest terms, ``value`` one ``Fraction``.  Immutable.
    """

    __slots__ = ("_p", "_q", "_scale", "_k")

    def __init__(self, p: Scalar, q: Scalar, k: int, scale: Union[None, int, tuple[int, int]] = None):
        self._p, self._q, self._scale, self._k = p, q, scale, k

    p = property(lambda self: self._unscaled(self._p))
    q = property(lambda self: self._unscaled(self._q))
    k = property(lambda self: self._k)

    @property
    def is_pole(self) -> bool:
        return self._q == 0

    @property
    def value(self) -> Scalar:
        if self.is_pole:
            raise PoleError(f"convergent {self.k} is a pole (q = 0)")
        return Fraction(self._p, self._q) if self._scale is not None else self._p / self._q if self._k else self._p

    def _unscaled(self, row: Scalar) -> Scalar:  # row/s, or row·G/s where the scale is (s, G)
        s = self._scale
        return row if s is None else Fraction(row, s) if type(s) is int else Fraction(row * s[1], s[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Convergent):
            return NotImplemented
        return (self.p, self.q, self.k) == (other.p, other.q, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.k))

    def __repr__(self) -> str:
        return f"Convergent(p={_text(self.p)}, q={_text(self.q)}, k={self.k!r})"


@dataclass(frozen=True, init=False)  # the class writes its own __init__: the decorator's would be dead work
class EvalReport:
    """Outcome of an iterative evaluation.

    ``residual`` is ``|v - u| / max(|v|, |u|)`` for the reported value and
    the one before it in every evaluator: 0 when the fraction terminated
    (or the step was exactly 0), inf after a pole, nan at a non-finite
    value; a nonzero step is never reported as 0.  ``converged`` means that
    step was within the relative tolerance, or the fraction terminated; it
    is not an error bound.  ``tiny_substitutions`` counts the zero
    intermediates the Lentz iteration had to nudge away from zero.
    """

    value: Scalar
    depth_used: int
    converged: bool
    terminated: bool
    residual: float
    tiny_substitutions: int = 0

    def __init__(self, value, depth_used, converged, terminated, residual, tiny_substitutions=0):
        d = self.__dict__  # no frozen setattrs, and no keyword dict
        d["value"], d["depth_used"], d["converged"] = value, depth_used, converged  # 3-tuples build no tuple
        d["terminated"], d["residual"], d["tiny_substitutions"] = terminated, residual, tiny_substitutions


def _settle(cf: CFStream, rows: Iterable[tuple], tol: ToleranceSpec, max_depth: int, cap: str = "max_depth",
            lentz: bool = False) -> EvalReport:
    # The one stopping rule (see the module docstring), in one frame: rows are pulled only where no law answers,
    # and run out before max_depth (named cap in its error) only when the fraction terminates.  With lentz, cf's walk
    # is read here, each level's modified Lentz step taken inline; else rows are (p_k, q_k, k, _), Convergent's or a
    # rational fold's, read as p_k/q_k (p_0 at k = 0), one Fraction if exact; or a float fold's (value, None, k, None).
    # A value None is a pole.  Every mode compares inline, as _within would, with rel_tol·max(|v|, |u|) the larger of
    # two products (a Fraction is below inf); _within takes a complex modulus past the float range.
    if not 1 <= (max_depth := index(max_depth)) <= sys.maxsize:  # _count's rule, inline: it runs per evaluation
        _count(max_depth, cap, 1)
    mode, end, inf, value, prev, substitutions, k, vanish = cf.mode, cf._end, math.inf, None, None, 0, 0, False
    finite, rel_tol, exact, agree = mode.isfinite, _rel_tol(mode, tol), mode is _RATIONAL, end is None
    law = not agree and end <= max_depth and mode is not _COMPLEX  # ends within the cap
    if lentz and not law:  # f_0 = C_0 = b0, D_0 = 0; a non-finite b0 is a row of its own, reported unwalked
        f = c = cf.b0
        d = zero = mode.cast(0)
        if lentz := finite(f):
            rows, value, full = islice(cf._walk(), max_depth), f, f == 0
        else:
            rows = ((f, None, 0, None),)
    for row in () if law else rows:
        if lentz:  # level k, (a_k, b_k): a zero D_k = q_{k-1}/q_k is a pole (None), a zero C_k = p_k/p_{k-1}
            a, b = row  # is p_k = 0 (0); the stand-in walks on, and each is counted
            k += 1
            if pole := (d := b + a * d) == 0:
                d, substitutions = LENTZ_TINY, substitutions + 1
            d = 1 / d
            if full:  # level 1 of a full fraction (b0 = 0): f_1 = a_1/b_1, C_1 = A_1/A_0 = inf, so C_2 = b_2
                f, c, full = a * d, inf, False
            else:
                if vanish := (c := b + a / c) == 0:
                    c, substitutions = LENTZ_TINY, substitutions + 1
                f *= c * d
            prev, value = value, None if pole else zero if vanish else f
        else:
            p, q, k, _ = row
            prev, value = value, (p if q is None else None if q == 0 else Fraction(p, q) if exact
                                  else p / q if k else p)
        if value is None:
            continue
        try:  # prev is finite (a non-finite value ends the walk), so after a finite step value is finite too
            if agree and prev is not None and (diff := abs(value - prev)) < inf:
                if diff <= rel_tol * abs(value) or diff <= rel_tol * abs(prev):
                    converged, terminated = True, False
                    break
            elif not finite(value):
                converged = terminated = False
                break
        except OverflowError:  # abs() of a complex value with finite parts (an inf or nan part gives inf or nan)
            if _within(value, prev, rel_tol, finite):
                converged, terminated = True, False
                break
    else:
        if law:  # answered before any row is pulled; a non-finite answer's residual is |v - v|/|v|, nan
            value = prev = _law_value(cf, k := end - 1)
        elif k < max_depth and mode is _FLOAT:  # a float walk with no law that terminated
            try:
                value = _law_value(cf, k)
            except DomainError:  # an inf or nan level: the walked value stands
                pass
        if value is None:
            raise PoleError(f"convergent {k}, the value to report, is a pole (q = 0)")
        converged = terminated = k < max_depth and finite(value)
    if converged and not terminated and mode is _FLOAT:  # _relative_change's bits, off the test's diff; a nonzero
        residual = diff / scale if (scale := max(abs(value), abs(prev))) else 0.0  # float step over scale is >= 2^-53
    else:
        residual = 0.0 if terminated else inf if prev is None else _relative_change(value, prev)
    return EvalReport(value, k, converged, terminated, residual, substitutions)


def _rescale(p, q, p_prev, q_prev):
    # Keeps |p|, |q| inside floating-point range; the common power-of-two
    # factor cancels in every ratio p/q.  A rescale that flushes a nonzero q
    # to zero, a fake pole, or leaves p_prev or q_prev infinite is skipped;
    # a flushed p, p_prev or q_prev is harmless.
    m = max(abs(p.real), abs(p.imag), abs(q.real), abs(q.imag))  # a modulus can overflow
    if math.isfinite(m) and m != 0 and not 1 / _RESCALE_BOUND < m < _RESCALE_BOUND:
        factor = math.ldexp(1.0, -max(math.frexp(m)[1], -1023))  # brings m into [0.5, 1), a subnormal m toward it
        scaled = p * factor, q * factor, p_prev * factor, q_prev * factor
        if (q == 0 or scaled[1] != 0) and all(map(cmath.isfinite, scaled)):
            return scaled
    return p, q, p_prev, q_prev


def _forward(cf: CFStream, depth: int) -> Iterator[tuple[Scalar, Scalar, int, None]]:
    # The forward recurrence (float and complex modes): yields Convergent's (p_k, q_k, k, None)
    # for k = 0..depth along the walk, so a last k below depth means termination.
    one_ = cf.mode.cast(1)
    p_prev, q_prev = one_, cf.mode.cast(0)
    p, q = cf.b0, one_
    low, high = 2 / _RESCALE_BOUND, _RESCALE_BOUND
    yield p, q, 0, None
    for k, (a, b) in zip(range(1, depth + 1), cf._walk()):
        p, p_prev = b * p + a * p_prev, p
        q, q_prev = b * q + a * q_prev, q
        try:
            if not (low < abs(q) < high and abs(p) < high):
                p, q, p_prev, q_prev = _rescale(p, q, p_prev, q_prev)
        except OverflowError:  # a complex modulus past the float range
            p, q, p_prev, q_prev = _rescale(p, q, p_prev, q_prev)
        yield p, q, k, None


def _integral(b0: Scalar, walk: Iterable[tuple[Scalar, Scalar]]) -> Iterator[tuple[int, int, int]]:
    # The levels of a walk below b0, each coefficient's exact ratio (inf or nan raises DomainError), made
    # integral by the least factors (an equivalence transform): yields (c_k, c_k·c_{k-1}·a_k, c_k·b_k), with
    # c_0 = denominator(b0) and c_k = lcm(den b_k, den a_k / gcd(den a_k, c_{k-1})), so c_{k-1} clears what it
    # can of a_k first.  At a constant a-denominator d and integral b, c_k alternates d and 1.
    c = _ratio(b0)[1]
    for a, b in walk:
        (a_num, a_den), (b_num, b_den) = _ratio(a), _ratio(b)
        d = a_den // (g := math.gcd(a_den, c))
        c_k = math.lcm(d, b_den)
        yield c_k, a_num * (c // g) * (c_k // d), b_num * (c_k // b_den)
        c = c_k


def _divided(rows: tuple[int, ...], k: int, span: int, size: int, depth: int) -> tuple:
    # Content check at level k of a walk to depth, span levels after the one that left the rows
    # at size bits: (rows over their content g, g, their size, next check level or None); a zero
    # row stays 0 (a fold's pole den = 0).  A gcd and divisions of n-bit rows cost n²/25 + 50 000
    # bit-products; content gained at r bits a span costs as much, on each row's product, at a
    # span of sqrt(2·cost·span/(rows·r)).  Under an eighth of the growth ends the checks, undivided.
    n, g = max(rows[0].bit_length(), rows[1].bit_length()), math.gcd(*rows)
    if 8 * (removed := g.bit_length() - 1) < max(n - size, 1):  # none, or under an eighth
        return rows, 1, n, None
    span, left = math.isqrt((n * n // 25 + 50_000) * 2 * span // (len(rows) * removed)), depth - k
    due = None if 2 * left < 3 * span else k + min(span, left // 2)
    return tuple(r // g for r in rows), g, n - removed, due


def _forward_exact(cf: CFStream, depth: int) -> Iterator[tuple[int, int, int, Union[int, tuple[int, int]]]]:
    # _forward on Python ints over the cleared levels, 4 big products by small ints a level: yields
    # Convergent's (s·p_k/G, s·q_k/G, k, s or (s, G)), s = c_0···c_k, G the content checks removed.
    (p, s), walk = cf._cleared()
    p_prev, q_prev, q, content, size, k, last = 1, 0, s, 1, 0, 0, 0
    due = _FIRST_CHECK if depth >= _CHECKED_DEPTH else None
    yield p, q, 0, s
    while True:
        for k, (c, a, b) in zip(range(k + 1, (due or depth) + 1), walk):
            p, p_prev = b * p + a * p_prev, p
            q, q_prev = b * q + a * q_prev, q
            s *= c
            yield p, q, k, s if content == 1 else (s, content)
        if k != due:  # the walk ended, or ran on with no more checks
            return
        (p, q, p_prev, q_prev), g, size, due = _divided((p, q, p_prev, q_prev), k, k - last, size, depth)
        content, last = content * g, k


def convergents(cf: CFStream, depth: int) -> list[Convergent]:
    """Convergents 0..depth by the forward recurrence.

    Stops early at the first vanishing partial numerator (termination) or
    at the end of a finite stream, so the result may be shorter than
    ``depth + 1`` entries.  Convergents with ``q == 0`` are kept in the
    sequence as poles.
    """
    depth = _count(depth, "depth", 0)
    return list(starmap(Convergent, (_forward_exact if cf.mode is _RATIONAL else _forward)(cf, depth)))


def eval_convergents(
    cf: CFStream,
    tol: ToleranceSpec = DEFAULT_TOLERANCE,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> EvalReport:
    """Iterate the forward recurrence until two successive convergents agree.

    Terminates early at a vanishing partial numerator (``terminated`` set,
    residual 0).  At ``max_depth`` or a non-finite convergent ``converged``
    is False and that convergent is the value.  Raises :class:`PoleError`
    when the value that would be reported sits on a pole.
    """
    return _settle(cf, (_forward_exact if cf.mode is _RATIONAL else _forward)(cf, max_depth), tol, max_depth)


def eval_lentz(
    cf: CFStream,
    tol: ToleranceSpec = DEFAULT_TOLERANCE,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> EvalReport:
    """Modified Lentz evaluation (floating-point and complex modes only).

    Exactly-zero intermediates inside the fraction are replaced by
    :data:`LENTZ_TINY` and counted in the report; a zero leading term needs
    no stand-in, level 1 is ``a_1/b_1`` itself.  Ends like
    :func:`eval_convergents`: early at a vanishing partial numerator
    (``terminated`` set, residual 0), and a pole (``q_k = 0``) is skipped
    or raised the same way.  Agrees with :func:`eval_convergents`
    within a small multiple of the tolerance whenever both converge.
    """
    if cf.mode is _RATIONAL:
        raise ModeMismatchError(
            "eval_lentz needs float or complex mode; use eval_convergents for rational streams"
        )
    return _settle(cf, (), tol, max_depth, lentz=True)


def _fold(b0: Scalar, levels: list[tuple[Scalar, Scalar]]) -> Optional[Scalar]:
    # Backward fold of b0 + a_1/(b_1 + ... + a_m/b_m), the (a_k, b_k) of a float or complex
    # walk, from an assumed-zero tail.  r is None where a partial value is infinite; the level
    # above folds to its b (a/inf = 0), and a None result is a pole, the marker _forward yields at q = 0.
    b = [b0] + [b for _, b in levels]  # b[k] = b_k
    r, above = b[-1], zip([a for a, _ in reversed(levels)], reversed(b[:-1]))  # (a_k, b_{k-1})
    for a, b_up in above:
        r = None if r == 0 else b_up if r is None else b_up + a / r
    return r


def _fold_exact(head: tuple[int, int], levels: list[tuple[int, int, int]]) -> tuple[int, int]:
    # _fold on _cleared()'s pair (B, C) and levels (c_k, A_k, B_k): (num, den), the value num/den
    # unreduced with den >= 0 (0 / -5 would round to -0.0), and a pole is den = 0.  The cleared
    # fraction B + A_1/(B_1 + ...) is C times the value.
    tops, ups = [a for _, a, _ in levels], [head[0]] + [b for _, _, b in levels]  # A_k, B_{k-1}
    num, den = ups.pop(), 1  # r = num/den, 2 big products by small ints a level
    above, folded, size, m = zip(reversed(tops), reversed(ups)), 0, 0, len(tops)
    due = _FIRST_CHECK if m >= _CHECKED_DEPTH else None  # checks count the levels folded
    while True:
        for a, b_up in above if due is None else islice(above, due - folded):
            num, den = b_up * num + a * den, num
        if due is None:
            break
        folded, ((num, den), _, size, due) = due, _divided((num, den), due, due - folded, size, m)
    den *= head[1]
    return (num, den) if den >= 0 else (-num, -den)


def _law_value(cf: CFStream, depth: int) -> Optional[Scalar]:
    # The one exact answer of a fraction that ends after depth levels: the fold of its cleared levels, cf._cleared(),
    # reduced once in rational mode and in float mode a double (±inf past the float range); None at an exact pole.
    # An inf or nan level has no exact ratio and raises DomainError (_settle keeps a walked value there).
    head, rows = cf._cleared()
    num, den = _fold_exact(head, list(islice(rows, depth)))
    return None if den == 0 else Fraction(num, den) if cf.mode is _RATIONAL else _double((num, den))


def _backward(cf: CFStream, depth: int, both: bool = False) -> Iterator[tuple]:
    # The backward route's rows for _settle: the fold at depth, or the terminated fold, after the fold at depth - 1 when
    # both are asked for; rational: _fold_exact's (num, den, k, None), like a forward row, else (fold, None, k, None).
    rational = cf.mode is _RATIONAL
    b0, walk = cf._cleared() if rational else (cf.b0, cf._walk())
    levels = list(islice(walk, depth))
    for f in [levels[:-1], levels] if both and len(levels) == depth else [levels]:
        yield (*_fold_exact(b0, f), len(f), None) if rational else (_fold(b0, f), None, len(f), None)


def eval_backward(cf: CFStream, depth: int) -> Scalar:
    """Value of the depth-truncated fraction by backward folding.

    The tail beyond ``depth`` is taken as zero; a vanishing partial
    numerator at or before ``depth`` shortens the fold accordingly.  Exact
    in rational mode.  An exact zero met inside the fold makes that partial
    value infinite and the level above it folds to its own ``b``.  The one
    fold settles like every route's value: a terminated float fraction
    reports its exact value, and :class:`PoleError` is raised only when
    the value to report is infinite.
    """
    return _settle(cf, _backward(cf, depth), DEFAULT_TOLERANCE, depth, "depth").value


def _backward_report(cf: CFStream, depth: int, tol: ToleranceSpec) -> EvalReport:
    # The folds at depth - 1 and depth, or the one terminated fold.
    return _settle(cf, _backward(cf, depth, both=True), tol, depth, "depth")


class _Tail(CFStream):
    # tail(cf, s): level k is cf's level s + k, a count; the walk and cleared levels from level k are cf's from s + k.
    def __init__(self, cf: CFStream, s: int):
        s = _count(s, "start_level", 1)
        if (head := next(cf._walk(s, True), None)) is None:
            raise ValueError(f"stream ends before level {s}")
        self.b0, self.mode, self._parent, self._start = head[1], cf.mode, cf, s
        self._end = cf._end - s if (cf._end or 0) > s else None

    description = property(lambda self: f"tail({self._parent.description or 'cf'}, {self._start})")

    def _walk(self, k: int = 1, through: bool = False) -> Iterator[tuple[Scalar, Scalar]]:
        return self._parent._walk(_count(self._start + k, "level", 1), through)

    def _cleared(self, k: int = 0) -> tuple[tuple[int, int], Iterator[tuple[int, int, int]]]:
        return self._parent._cleared(_count(self._start + k, "level", 1))


class _Scaled(CFStream):
    # equivalence_transform(cf, scale, c0): cf's levels by _walk, cleared levels by _cleared, each factor by _factor.
    def __init__(self, cf: CFStream, scale: Callable[[int], Scalar], c0: Scalar):
        self._parent, self._scale, self._c0, self.mode, self._end = cf, scale, c0, cf.mode, cf._end
        self.b0 = cf.b0 if self._factor(0) == 1 else c0 * cf.b0

    description = property(lambda self: f"equivalence({self._parent.description or 'cf'})")

    def _factor(self, k: int) -> Scalar:  # c_k read by the input rule, its label formatted only when raising
        v, what = (self._c0, "c0") if k == 0 else (self._scale(k), "scale factor")
        mode = _scalar(v, what, k)
        if v == 0:
            raise ValueError(f"zero scale factor at level {k}")
        if mode is _RATIONAL is not self.mode:  # an exact factor on a float or complex stream
            _double(_ratio(v), what, self.mode, k)
        elif mode is not self.mode and self.mode is not _COMPLEX:  # any other mode but float on complex
            if k == 0:
                raise ModeMismatchError(f"c0={v!r} takes {self._parent.description or 'the stream'} "
                                        f"out of {self.mode} mode")
            self._in_mode(k, v, v)  # raises
        return v

    def _walk(self, k: int = 1, through: bool = False) -> Iterator[tuple[Scalar, Scalar]]:
        # cf's levels k, k+1, ... as (c_k·c_{k-1}·a_k, c_k·b_k), each c_k read once, after its level; none made 0
        ck = None
        for k, (a, b) in enumerate(self._parent._walk(k, through), k):
            cj, ck = self._factor(k - 1) if ck is None else ck, self._factor(k)
            try:
                scaled = ck * cj * a, ck * b
            except OverflowError:  # an exact c_k·c_{k-1} past the float range
                scaled = _double(_ratio(ck * cj), f"c_{k}·c_{k - 1}", self.mode) * a, ck * b
            if scaled[0] == 0 != a or scaled[1] == 0 != b:
                raise DomainError(f"level {k} scales a nonzero coefficient to 0 in {self.mode} mode")
            yield scaled

    def _cleared(self, k: int = 0) -> tuple[tuple[int, int], Iterator[tuple[int, int, int]]]:
        # cf's cleared levels times each c_j = n_j/d_j, cleared by c_j·d_j (no gcd): b_k is n_k·B/(d_k·C)
        (B, C), rows = self._parent._cleared(k)
        ratios = map(_ratio, map(self._factor, count(k)))  # c_j's exact ratio, j = k, k + 1, ...
        (n, d), pairs = (head := next(ratios)), pairwise(chain([head], ratios))  # (c_{j-1}, c_j), j = k + 1, ...
        return (n * B, d * C), ((c * dj, nj * ni * A, nj * B) for (c, A, B), ((ni, _), (nj, dj)) in zip(rows, pairs))


def tail(cf: CFStream, start_level: int) -> CFStream:
    """Sub-fraction starting at ``start_level``:
    ``b_s + a_{s+1}/(b_{s+1} + a_{s+2}/(...))``.

    The new stream's leading term is the original ``b_{start_level}`` and
    its level ``k`` is the original level ``start_level + k``, termination too.
    """
    return _Tail(cf, start_level)


def equivalence_transform(cf: CFStream, scale: Callable[[int], Scalar], c0: Scalar = 1) -> CFStream:
    """Rescale levels: ``a'_k = c_k c_{k-1} a_k``, ``b'_k = c_k b_k``.

    ``scale(k)`` supplies the nonzero factor ``c_k`` for ``k >= 1``.  With
    the default ``c0 = 1`` every convergent value of the result equals the
    original's.  A non-unit ``c0`` additionally multiplies the leading term
    and the first partial numerator -- the classical "divide every partial
    fraction top and bottom" manipulation -- scaling the fraction's value
    by ``c0``.  Termination is the original's; each factor is checked once, when read.
    """
    return _Scaled(cf, scale, c0)
