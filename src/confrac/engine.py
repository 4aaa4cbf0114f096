"""Representation and evaluation of generalized continued fractions.

A generalized continued fraction

    b0 + a1/(b1 + a2/(b2 + a3/(b3 + ...)))

is held as the leading term ``b0`` plus a lazy, deterministic sequence of
levels ``(a_k, b_k)``, ``k >= 1``.  A vanishing partial numerator is the
termination signal: if ``a_m == 0`` the value of the fraction is the
convergent truncated immediately before level ``m`` and deeper levels are
never consulted.  Family generators arrange for that zero to be exact in
every mode, so termination is a hard event, not a rounding accident.

Three evaluation routes with different trade-offs:

* :func:`convergents` / :func:`eval_convergents` -- the forward three-term
  recurrence ``p_k = b_k p_{k-1} + a_k p_{k-2}`` (likewise ``q_k``), seeded
  with ``p_{-1} = 1, q_{-1} = 0, p_0 = b0, q_0 = 1``.  Exact in rational
  mode; in floating point the pair ``(p, q)`` is occasionally rescaled by a
  power of two to dodge overflow (the factor cancels in ``p/q``).
* :func:`eval_lentz` -- the modified Lentz iteration, which sidesteps the
  magnitude growth of the forward recurrence entirely.  Floating-point and
  complex modes only.
* :func:`eval_backward` -- backward folding from an assumed-zero tail at a
  fixed depth; reproduces the depth-truncated convergent exactly in
  rational mode.

Plus two structural operations: :func:`tail` (the sub-fraction hanging off
a given level) and :func:`equivalence_transform` (level-wise rescaling that
leaves every convergent value unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import ModeMismatchError, PoleError
from .scalars import (
    DEFAULT_TOLERANCE,
    Mode,
    Scalar,
    ToleranceSpec,
    mode_of,
    nearly_equal,
    one,
    zero,
)

#: Depth bound used when callers do not supply one.  Desk-scale arguments
#: converge in far fewer steps; the bound exists to catch divergence.
DEFAULT_MAX_DEPTH = 10_000

# Forward-recurrence rescaling window (floating-point modes only).  Keeping
# max(|p|, |q|) inside [2^-256, 2^256] leaves headroom for one step with
# term magnitudes up to about 1e230 before anything can overflow.
_RESCALE_BOUND = 2.0**256


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

    ``term_fn(k)`` must deterministically return the level-``k`` term
    (``k >= 1``) or ``None`` once a finite stream is exhausted.  Terms are
    cached, so requesting a level twice is cheap and guaranteed identical.
    Streams are immutable once constructed and safe to share.
    """

    def __init__(self, b0: Scalar, term_fn: TermFn, description: str = ""):
        self.b0 = b0
        self.mode = mode_of(b0)
        self.description = description
        self._term_fn = term_fn
        self._cache: dict[int, Optional[CFTerm]] = {}

    @classmethod
    def from_terms(
        cls,
        b0: Scalar,
        terms: Iterable[Union[CFTerm, tuple[Scalar, Scalar]]],
        description: str = "",
    ) -> "CFStream":
        """Finite stream from an explicit list of terms or (a, b) pairs."""
        fixed = [t if isinstance(t, CFTerm) else CFTerm(*t) for t in terms]

        def term_fn(k: int) -> Optional[CFTerm]:
            return fixed[k - 1] if k <= len(fixed) else None

        return cls(b0, term_fn, description)

    def term(self, k: int) -> Optional[CFTerm]:
        """Level-``k`` term, or ``None`` past the end of a finite stream."""
        if k < 1:
            raise ValueError(f"term levels start at 1, got {k}")
        if k in self._cache:
            return self._cache[k]
        t = self._term_fn(k)
        if t is not None:
            if mode_of(t.a) is not self.mode or mode_of(t.b) is not self.mode:
                raise ModeMismatchError(
                    f"term {k} of {self.description or 'stream'} is not in {self.mode} mode"
                )
        self._cache[k] = t
        return t

    def termination_level(self, within: int) -> Optional[int]:
        """Level of the first vanishing partial numerator, scanning at most
        ``within`` levels; the end of a finite stream counts too.  ``None``
        if the stream runs past ``within`` levels without terminating."""
        for k in range(1, within + 1):
            t = self.term(k)
            if t is None or t.a == 0:
                return k
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.description!r}" if self.description else ""
        return f"CFStream(b0={self.b0!r}, mode={self.mode}{label})"


@dataclass(frozen=True)
class Convergent:
    """Numerator/denominator pair of the depth-``k`` truncation.

    ``q == 0`` marks a pole of the truncation, not corruption.  In
    floating-point modes ``p`` and ``q`` may carry a common power-of-two
    rescaling; the ratio is unaffected.
    """

    p: Scalar
    q: Scalar
    k: int

    @property
    def is_pole(self) -> bool:
        return self.q == 0

    @property
    def value(self) -> Scalar:
        if self.is_pole:
            raise PoleError(f"convergent {self.k} is a pole (q = 0)")
        return self.p / self.q


@dataclass(frozen=True)
class EvalReport:
    """Outcome of an iterative evaluation.

    ``residual`` is the relative change of the last step (0 when the
    fraction terminated).  ``tiny_substitutions`` counts the zero
    intermediates the Lentz iteration had to nudge away from zero.
    """

    value: Scalar
    depth_used: int
    converged: bool
    terminated: bool
    residual: float
    tiny_substitutions: int = 0


def _relative_change(value: Scalar, previous: Scalar) -> float:
    diff = abs(value - previous)
    scale = max(abs(value), abs(previous))
    if scale == 0:
        return 0.0
    try:
        return float(diff / scale)
    except OverflowError:
        return math.inf


def _rescale(p, q, p_prev, q_prev):
    # Keeps |p|, |q| inside floating-point range; the common power-of-two
    # factor cancels in every ratio p/q.
    m = max(abs(p), abs(q))
    if not math.isfinite(m) or m == 0 or 1 / _RESCALE_BOUND < m < _RESCALE_BOUND:
        return p, q, p_prev, q_prev
    factor = math.ldexp(1.0, -math.frexp(m)[1])  # brings m into [0.5, 1)
    return p * factor, q * factor, p_prev * factor, q_prev * factor


def _forward(cf: CFStream, depth: int) -> Iterator[tuple[int, Scalar, Scalar]]:
    # The forward recurrence: yields (k, p_k, q_k) for k = 0..depth, lazily,
    # and stops early at the first vanishing partial numerator or at the end
    # of a finite stream, so a last k below depth means termination.
    one_ = one(cf.mode)
    floating = cf.mode is not Mode.RATIONAL
    p_prev, q_prev = one_, zero(cf.mode)
    p, q = cf.b0, one_
    yield 0, p, q
    for k in range(1, depth + 1):
        t = cf.term(k)
        if t is None or t.a == 0:
            return
        p, p_prev = t.b * p + t.a * p_prev, p
        q, q_prev = t.b * q + t.a * q_prev, q
        if floating:
            p, q, p_prev, q_prev = _rescale(p, q, p_prev, q_prev)
        yield k, p, q


def convergents(cf: CFStream, depth: int) -> list[Convergent]:
    """Convergents 0..depth by the forward recurrence.

    Stops early at the first vanishing partial numerator (termination) or
    at the end of a finite stream, so the result may be shorter than
    ``depth + 1`` entries.  Convergents with ``q == 0`` are kept in the
    sequence as poles.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return [Convergent(p=p, q=q, k=k) for k, p, q in _forward(cf, depth)]


def eval_convergents(
    cf: CFStream,
    tol: ToleranceSpec = DEFAULT_TOLERANCE,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> EvalReport:
    """Iterate the forward recurrence until two successive convergents agree.

    Terminates early at a vanishing partial numerator (``terminated`` set,
    residual 0).  If ``max_depth`` is reached first, ``converged`` is False
    and the value is the deepest convergent.  Raises :class:`PoleError`
    when the value that would be reported sits on a pole.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    prev_value = None  # the previous convergent's value; None while it is a pole
    residual = math.inf
    for k, p, q in _forward(cf, max_depth):
        if q == 0:
            prev_value = None
            continue
        value = p / q if k else p  # q_0 = 1: convergent 0 is b0 itself
        if prev_value is not None:
            residual = _relative_change(value, prev_value)
            if nearly_equal(value, prev_value, tol):
                return EvalReport(value, k, converged=True, terminated=False, residual=residual)
        prev_value = value
    if prev_value is None:
        raise PoleError(f"convergent {k}, the value to report, is a pole (q = 0)")
    if k < max_depth:
        return EvalReport(prev_value, k, converged=True, terminated=True, residual=0.0)
    return EvalReport(prev_value, k, converged=False, terminated=False, residual=residual)


def eval_lentz(
    cf: CFStream,
    tol: ToleranceSpec = DEFAULT_TOLERANCE,
    max_depth: int = DEFAULT_MAX_DEPTH,
    tiny: float = 1e-300,
) -> EvalReport:
    """Modified Lentz evaluation (floating-point and complex modes only).

    Exactly-zero intermediates are replaced by ``tiny`` and counted in the
    report.  Agrees with :func:`eval_convergents` within a small multiple
    of the tolerance whenever both converge.
    """
    if cf.mode is Mode.RATIONAL:
        raise ModeMismatchError(
            "eval_lentz needs float or complex mode; use eval_convergents for rational streams"
        )
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    substitutions = 0
    f = cf.b0
    if f == 0:
        f = tiny
        substitutions += 1
    c = f
    d = zero(cf.mode)
    residual = math.inf
    for j in range(1, max_depth + 1):
        t = cf.term(j)
        if t is None or t.a == 0:
            value = cf.b0 if j == 1 else f
            return EvalReport(value, j - 1, converged=True, terminated=True,
                              residual=0.0, tiny_substitutions=substitutions)
        d = t.b + t.a * d
        if d == 0:
            d = tiny
            substitutions += 1
        c = t.b + t.a / c
        if c == 0:
            c = tiny
            substitutions += 1
        d = 1 / d
        delta = c * d
        f_prev = f
        f = f * delta
        residual = float(abs(delta - 1))
        if nearly_equal(f, f_prev, tol):
            return EvalReport(f, j, converged=True, terminated=False,
                              residual=residual, tiny_substitutions=substitutions)
    return EvalReport(f, max_depth, converged=False, terminated=False,
                      residual=residual, tiny_substitutions=substitutions)


def eval_backward(cf: CFStream, depth: int) -> Scalar:
    """Value of the depth-truncated fraction by backward folding.

    The tail beyond ``depth`` is taken as zero; a vanishing partial
    numerator at or before ``depth`` shortens the fold accordingly.  Exact
    in rational mode.  Raises :class:`PoleError` if a fold step divides by
    an exact zero.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    terms: list[CFTerm] = []
    for k in range(1, depth + 1):
        t = cf.term(k)
        if t is None or t.a == 0:
            break
        terms.append(t)
    if not terms:
        return cf.b0
    r = terms[-1].b
    for i in range(len(terms) - 1, 0, -1):
        if r == 0:
            raise PoleError(f"zero denominator while folding into level {i}")
        r = terms[i - 1].b + terms[i].a / r
    if r == 0:
        raise PoleError("zero denominator while folding into the leading term")
    return cf.b0 + terms[0].a / r


def tail(cf: CFStream, start_level: int) -> CFStream:
    """Sub-fraction starting at ``start_level``:
    ``b_s + a_{s+1}/(b_{s+1} + a_{s+2}/(...))``.

    The new stream's leading term is the original ``b_{start_level}`` and
    its level ``k`` holds the original level ``start_level + k``.
    """
    if start_level < 1:
        raise ValueError(f"start_level must be >= 1, got {start_level}")
    head = cf.term(start_level)
    if head is None:
        raise ValueError(f"stream ends before level {start_level}")
    label = f"tail({cf.description or 'cf'}, {start_level})"
    return CFStream(head.b, lambda k: cf.term(start_level + k), description=label)


def equivalence_transform(
    cf: CFStream,
    scale: Union[Callable[[int], Scalar], Sequence[Scalar]],
    c0: Scalar = 1,
) -> CFStream:
    """Rescale levels: ``a'_k = c_k c_{k-1} a_k``, ``b'_k = c_k b_k``.

    ``scale`` supplies the nonzero factors ``c_k`` for ``k >= 1``, either
    as a callable of ``k`` or as a sequence (index 0 holds ``c_1``).  With
    the default ``c0 = 1`` every convergent value of the result equals the
    original's.  A non-unit ``c0`` additionally multiplies the leading term
    and the first partial numerator -- the classical "divide every partial
    fraction top and bottom" manipulation -- scaling the fraction's value
    by ``c0``.
    """
    if c0 == 0:
        raise ValueError("zero scale factor c0")
    if callable(scale):
        factor_fn = scale
    else:
        factors = list(scale)

        def factor_fn(k: int) -> Scalar:
            if k > len(factors):
                raise ValueError(
                    f"scale sequence exhausted at level {k} (have {len(factors)} factors)"
                )
            return factors[k - 1]

    def factor(k: int) -> Scalar:
        v = c0 if k == 0 else factor_fn(k)
        if v == 0:
            raise ValueError(f"zero scale factor at level {k}")
        return v

    def term_fn(k: int) -> Optional[CFTerm]:
        t = cf.term(k)
        if t is None:
            return None
        ck = factor(k)
        return CFTerm(ck * factor(k - 1) * t.a, ck * t.b)

    b0 = cf.b0 if c0 == 1 else c0 * cf.b0
    label = f"equivalence({cf.description or 'cf'})"
    return CFStream(b0, term_fn, description=label)
