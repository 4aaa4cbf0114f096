"""Engine tests: forward recurrence, Lentz, backward folding, tails,
equivalence transforms, termination semantics."""

import dataclasses
import gc
import math
import random
import re
import sys
import threading
import time
import weakref
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confrac import (
    DEFAULT_TOLERANCE,
    EXACT,
    CFStream,
    CFTerm,
    Convergent,
    DomainError,
    EvalReport,
    Family,
    FamilySpec,
    Mode,
    ModeMismatchError,
    PoleError,
    ToleranceSpec,
    arctan_cf,
    convergents,
    coth_scaled_cf,
    coth_scaled_lhs,
    equivalence_transform,
    eval_backward,
    eval_convergents,
    eval_lentz,
    lagrange_binomial,
    log_ratio_cf,
    mode_of,
    nearly_equal,
    symmetric_binomial,
    tail,
    tan_cf,
    tan_multiple,
    uniform_binomial,
)
import confrac.engine as engine
import confrac.families as families
from confrac import verify
from confrac.engine import _backward_report, _fold_exact, _forward_exact, _integral
from confrac.scalars import _double, _relative_change

TIGHT = ToleranceSpec(rel_tol=1e-13)


class TestConvergents:
    def test_immediate_termination_single_convergent(self):
        cf = CFStream.from_terms(7.0, [(0.0, 2.0), (1.0, 1.0)])
        out = convergents(cf, 10)
        assert out == [Convergent(p=7.0, q=1.0, k=0)]

    def test_symmetric_n2_terminates_with_exact_value(self):
        cf = symmetric_binomial(2, Fraction(1, 3))
        out = convergents(cf, 10)
        assert [c.k for c in out] == [0, 1]
        assert out[-1].value == Fraction(10, 9)

    def test_symmetric_n3_terminates_with_exact_value(self):
        cf = symmetric_binomial(3, Fraction(1, 2))
        out = convergents(cf, 10)
        assert out[-1].k == 2
        assert out[-1].value == Fraction(21, 13)

    def test_depth_zero_gives_leading_term(self):
        out = convergents(coth_scaled_cf(1.0), 0)
        assert len(out) == 1 and out[0].value == 1.0

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            convergents(coth_scaled_cf(1.0), -1)

    def test_determinant_identity_exact(self):
        cf = arctan_cf(Fraction(1, 3))
        out = convergents(cf, 20)
        product = Fraction(1)
        for k in range(1, len(out)):
            product *= cf.term(k).a
            det = out[k].p * out[k - 1].q - out[k - 1].p * out[k].q
            assert det == (-1) ** (k - 1) * product

    def test_mode_mismatch_among_terms(self):
        cf = CFStream(1.0, lambda k: CFTerm(Fraction(1, 2), 2.0))
        with pytest.raises(ModeMismatchError):
            convergents(cf, 3)

    def test_rescaling_keeps_values_finite(self):
        # p, q grow like 1e160 per level without rescaling; the value is
        # b0 + x where x solves x = 1e160/(1e160 + x), i.e. about 1.
        cf = CFStream(1.0, lambda k: CFTerm(1e160, 1e160))
        out = convergents(cf, 40)
        value = out[-1].value
        assert math.isfinite(value)
        assert value == pytest.approx(eval_backward(cf, 40), rel=1e-12)

    def test_rescale_never_flushes_a_nonzero_q_to_zero(self):
        # p_1 = 1e300, q_1 = 1e-300: rescaling by 2^-997 would flush q_1 to
        # 0.0, a fake pole; the ratio overflows, as under eval_lentz
        cf = CFStream.from_terms(1.0, [(1e300, 1e-300)])
        (_, last) = convergents(cf, 1)
        assert last.q != 0 and not last.is_pole
        report = eval_convergents(cf, TIGHT, 50)
        assert report.value == math.inf == eval_lentz(cf, TIGHT, 50).value
        assert not report.converged and not report.terminated
        assert report.depth_used == 1

    def test_rescale_still_runs_when_only_p_prev_would_flush(self):
        # p_1 = 1e200 is past the bound; the rescale by 2^-665 flushes
        # p_prev = 1e-300 to 0.0, which is harmless.  Skipping it would let
        # p_2 = 1e200·1e200 overflow; the exact value is 1e-300 + 1e200/2.
        cf = CFStream.from_terms(1e-300, [(1e200, 1.0), (1e200, 1e200)])
        report = eval_convergents(cf, TIGHT, 50)
        assert report.value == 5e199
        assert report.terminated and report.converged

    def test_rescale_that_would_overflow_p_prev_is_skipped(self):
        # q_1 = 1e-300 asks for a scale-up by 2^997, which would make
        # p_prev = b0 = 1e100 infinite; the exact depth-2 value is 1e100
        cf = CFStream.from_terms(1e100, [(-1e-200, 1e-300), (1.0, 1.0)])
        assert convergents(cf, 2)[-1].value == 1e100
        report = eval_convergents(cf, TIGHT, 50)
        assert report.value == 1e100 and report.terminated

    def test_subnormal_rows_are_rescaled_by_the_largest_float_factor(self):
        # level 1's rescale by 2^-464 leaves p_2 = a_2·p_1 = 1.5e-309, subnormal, and q_2 = 0: bringing
        # it into [0.5, 1) takes 2^1026, past the float range, so the rescale stops at 2^1023
        cf = CFStream.from_terms(0.0, [(2.3817051317718447e+139, 0.0), (1.5638685167409466e-169, 0.0)])
        assert convergents(cf, 2)[-1].value == eval_convergents(cf).value == eval_lentz(cf).value == 0.0

    def test_float_walk_inside_the_window_is_not_rescaled(self, monkeypatch):
        # the window is tested on |p| and |q| inline, in float and complex modes alike
        calls, rescale = [], engine._rescale
        monkeypatch.setattr(engine, "_rescale", lambda *pq: calls.append(pq) or rescale(*pq))
        convergents(arctan_cf(0.5), 30)
        assert calls == []
        convergents(symmetric_binomial(2.5, 0.5j), 30)
        assert calls == []

    def test_termination_level_scan(self):
        assert symmetric_binomial(3, Fraction(1, 2)).termination_level(30) == 3
        assert coth_scaled_cf(1.0).termination_level(30) is None

    def test_convergent_pole_flag(self):
        c = Convergent(p=1.0, q=0.0, k=3)
        assert c.is_pole
        with pytest.raises(PoleError):
            c.value

    def test_convergent_is_not_equal_to_a_number(self):
        c = Convergent(1.0, 1.0, 0)
        assert c.__eq__(1.0) is NotImplemented
        assert (c == 1.0) is False

    @pytest.mark.parametrize("b0", [complex(-1.0, -0.0), complex(math.inf, 0.0), complex(0.0, math.inf)],
                             ids=["negative-zero", "inf-real", "inf-imag"])
    def test_convergent_zero_reads_as_b0(self, b0):
        # p_0 itself, as eval_lentz and eval_convergents report it: p_0/(1+0j) would flip a zero's sign or make a nan
        cf = CFStream.from_terms(b0, [])
        for value in (convergents(cf, 0)[0].value, eval_lentz(cf).value, eval_convergents(cf).value):
            for got, want in ((value.real, b0.real), (value.imag, b0.imag)):
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestEvalConvergents:
    def test_coth_converges_tightly(self):
        report = eval_convergents(coth_scaled_cf(1.0), TIGHT, 100)
        assert report.converged and not report.terminated
        assert abs(report.value - coth_scaled_lhs(1.0).value) < 1e-13

    def test_symmetric_n1_terminates_at_level_one(self):
        report = eval_convergents(symmetric_binomial(1, 0.37), TIGHT, 100)
        assert report.terminated and report.converged
        assert report.value == 1.0
        assert report.depth_used == 0
        assert report.residual == 0.0

    def test_unreachable_tolerance_reports_nonconvergence(self):
        report = eval_convergents(arctan_cf(1.0), ToleranceSpec(rel_tol=1e-30), 5)
        assert not report.converged
        assert report.depth_used == 5

    @pytest.mark.parametrize(
        "evaluate, z, tol, want, max_depth, terminated",
        [
            pytest.param(eval_convergents, Fraction(1, 2), EXACT, Fraction(21, 13), 3, True,
                         id="3-True"),
            pytest.param(eval_convergents, Fraction(1, 2), EXACT, Fraction(21, 13), 2, False,
                         id="2-False"),
            pytest.param(eval_lentz, 0.5, TIGHT, pytest.approx(21 / 13, rel=1e-15), 3, True,
                         id="lentz-3-True"),
            pytest.param(eval_lentz, 0.5, TIGHT, pytest.approx(21 / 13, rel=1e-15), 2, False,
                         id="lentz-2-False"),
        ],
    )
    def test_termination_at_the_depth_cap(self, evaluate, z, tol, want, max_depth, terminated):
        # a_3 = 0: the vanishing numerator is seen only when level 3 is in reach
        report = evaluate(symmetric_binomial(3, z), tol, max_depth)
        assert report.terminated is terminated and report.converged is terminated
        assert report.depth_used == 2
        assert report.value == want

    def test_depth_bound_respected(self):
        report = eval_convergents(arctan_cf(1.0), TIGHT, 200)
        assert report.depth_used <= 200

    def test_invalid_max_depth(self):
        with pytest.raises(ValueError):
            eval_convergents(coth_scaled_cf(1.0), TIGHT, 0)

    def test_pole_at_requested_depth_raises(self):
        # q vanishes exactly at level 2: p0/q0 = 0/1, p1/q1 = 1/1, q2 = 0
        cf = CFStream.from_terms(Fraction(0), [(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))])
        with pytest.raises(PoleError):
            eval_convergents(cf, EXACT, 2)

    def test_exact_tangent_pole_is_reported(self):
        # tan(2 arctan 1) = tan(pi/2): the inner denominator evaluates to 0
        from confrac import tan_multiple

        with pytest.raises(PoleError):
            eval_convergents(tan_multiple(2, Fraction(1)), TIGHT, 10)


class TestEvalLentz:
    def test_log_stream(self):
        from confrac import log_ratio_cf

        report = eval_lentz(log_ratio_cf(1 / 3), ToleranceSpec(rel_tol=1e-13), 200)
        assert report.converged
        assert abs(report.value - math.log(2)) < 1e-12

    def test_tan_stream(self):
        report = eval_lentz(tan_cf(1.0), ToleranceSpec(rel_tol=1e-13), 200)
        assert abs(report.value - math.tan(1.0)) < 1e-12

    def test_terminated_stream_returns_exact_leading_value(self):
        cf = CFStream.from_terms(7.0, [(0.0, 1.0)])
        report = eval_lentz(cf, TIGHT, 50)
        assert report.value == 7.0
        assert report.terminated and report.converged and report.residual == 0.0

    def test_zero_leading_term_needs_no_stand_in(self):
        # b0 = 0: level 1 is a_1/b_1 itself, so nothing is substituted
        report = eval_lentz(arctan_cf(1.0), TIGHT, 200)
        assert report.tiny_substitutions == 0
        assert abs(report.value - math.pi / 4) < 1e-12

    @pytest.mark.parametrize(
        "stream, value",
        [
            pytest.param(tan_multiple(1, 1e9), 1e9, id="tan-multiple-1e9"),
            pytest.param(arctan_cf(1e-300), 1e-300, id="arctan-1e-300"),
            pytest.param(tan_cf(1e-300), 1e-300, id="tan-1e-300"),
            pytest.param(log_ratio_cf(1e-290), 2e-290, id="log-ratio-1e-290"),
        ],
    )
    def test_full_fraction_level_one_is_exact(self, stream, value):
        # a_1/(b_1 + ...) from b0 = 0: the stand-in made these inf or 2x
        report = eval_lentz(stream, DEFAULT_TOLERANCE, 50)
        assert report.value == value and report.converged

    def test_termination_at_level_one_reports_the_leading_term(self):
        # arctan 0: a_1 = 0, so the value is b0 = 0.0
        report = eval_lentz(arctan_cf(0.0), TIGHT, 50)
        assert report.value == 0.0 and type(report.value) is float
        assert report.depth_used == 0 and report.terminated
        assert report.tiny_substitutions == 0

    def test_overflow_to_infinity_is_not_convergence(self):
        # b0 + a_1/b_1 = 1 + 1e300/1e-300 overflows at the first step
        report = eval_lentz(CFStream.from_terms(1.0, [(1e300, 1e-300)]), TIGHT, 50)
        assert report.value == math.inf
        assert not report.converged and not report.terminated
        assert report.depth_used == 1

    def test_rational_mode_rejected(self):
        with pytest.raises(ModeMismatchError):
            eval_lentz(coth_scaled_cf(Fraction(1, 2)), TIGHT, 50)

    @pytest.mark.parametrize("n, k", [(2, 2), (-2, 2), (10, 10)])
    def test_zero_denominator_is_a_pole(self, n, k):
        # tan(n·pi/4) is a pole: q_k = 0 exactly, once replaced by the stand-in
        with pytest.raises(PoleError, match=f"convergent {k}, the value to report, is a pole"):
            eval_lentz(tan_multiple(n, 1.0))
        with pytest.raises(PoleError, match=f"convergent {k}, the value to report, is a pole"):
            eval_convergents(tan_multiple(n, 1.0))

    def test_pole_before_the_cap_is_skipped(self):
        # convergent 2 of lagrange n=3 at x=1 is a pole; the stand-in carries
        # the walk on to convergent 3 = 8.5
        report = eval_lentz(lagrange_binomial(3, 1.0), TIGHT, 3)
        assert report.value == pytest.approx(8.5, rel=1e-15)
        assert report.residual == math.inf and not report.converged
        assert report.tiny_substitutions == 1

    def test_inner_zero_numerator_ratio_is_substituted(self):
        # C_1 = b_1 + a_1/C_0 = -1 + 1/1 = 0 needs the stand-in; the value is -1
        cf = CFStream.from_terms(1.0, [(1.0, -1.0), (1.0, 2.0)])
        report = eval_lentz(cf, TIGHT, 50)
        assert report.tiny_substitutions == 1 and report.terminated
        assert abs(report.value + 1) <= 2 * math.ulp(1.0)
        assert report.value == pytest.approx(eval_convergents(cf, TIGHT, 50).value, rel=1e-15)

    def test_vanishing_numerator_value_is_exactly_zero(self):
        # C_1 = -1 + 1/1 = 0 is p_1 = 0: the value is 0, not the stand-in
        report = eval_lentz(CFStream.from_terms(1.0, [(1.0, -1.0)]), TIGHT, 50)
        assert report.value == 0 and type(report.value) is float
        assert report.terminated and report.tiny_substitutions == 1
        report = eval_lentz(CFStream.from_terms(1 + 0j, [(1 + 0j, -1 + 0j)]), TIGHT, 50)
        assert report.value == 0 and type(report.value) is complex

    def test_complex_modulus_past_the_float_range(self):
        # |b0| = 1.3e308·sqrt(2) overflows abs(); both parts are finite
        report = eval_lentz(CFStream.from_terms(1.3e308 + 1.3e308j, [(1 + 0j, 1 + 0j)]))
        assert report.value == 1.3e308 + 1.3e308j and report.converged
        assert report.residual == 0.0

    def test_complex_modulus_past_the_float_range_in_the_rescale(self):
        # the forward recurrence's rescale window must not take abs() of p
        cf = CFStream.from_terms(1.3e308 + 1.3e308j, [(1 + 0j, 1 + 0j)])
        report = eval_convergents(cf)
        assert report.value == 1.3e308 + 1.3e308j and report.converged
        assert report.residual == 0.0
        assert convergents(cf, 1)[1].value == 1.3e308 + 1.3e308j

    @pytest.mark.parametrize(
        "build",
        [arctan_cf, tan_cf, log_ratio_cf, lambda t: tan_multiple(2.5, t)],
        ids=["arctan", "tan", "log-ratio", "tan-multiple"],
    )
    def test_complex_mode_with_zero_leading_term(self, build):
        # b0 = 0j: the first value is compared with b0, not the float stand-in
        got = eval_lentz(build(0.3 + 0j), TIGHT, 200)
        want = eval_lentz(build(0.3), TIGHT, 200)
        assert type(got.value) is complex and got.value.imag == 0
        assert got.converged and abs(got.value.real - want.value) <= 1e-13 * abs(want.value)

    def test_agrees_with_forward_recurrence(self):
        for stream in (coth_scaled_cf(0.8), arctan_cf(0.9), tan_cf(0.7)):
            tol = ToleranceSpec(rel_tol=1e-12)
            a = eval_lentz(stream, tol, 500)
            b = eval_convergents(stream, tol, 500)
            assert a.converged and b.converged
            assert abs(a.value - b.value) <= 10 * tol.rel_tol * max(abs(a.value), abs(b.value))


class TestStoppingRule:
    """The one stopping rule every evaluator ends through."""

    @pytest.mark.parametrize("evaluate", [eval_lentz, eval_convergents])
    def test_residual_is_the_relative_change_of_the_last_step(self, evaluate):
        # arctan 1: values 0 then 1 at depth 1
        report = evaluate(arctan_cf(1.0), TIGHT, 1)
        assert report.value == pytest.approx(1.0, rel=1e-15) and report.residual == 1.0

    def test_small_value_is_judged_relatively(self):
        # tan(1e-6·pi/4) ~ 7.9e-7: the default tolerance is relative only
        report = eval_lentz(tan_multiple(1e-6, 1.0))
        want = math.tan(1e-6 * math.pi / 4)
        assert report.converged and report.residual <= DEFAULT_TOLERANCE.rel_tol
        assert abs(report.value - want) <= 1e-13 * want

    @given(
        st.sampled_from(list(Family)),
        st.sampled_from(["1/2", "5/2", "-3/2", "1e-15", "2"]),
        st.floats(min_value=1e-300, max_value=0.5),
        st.sampled_from([eval_lentz, eval_convergents]),
    )
    def test_converged_report_never_shows_a_residual_above_tol(self, family, n, x, evaluate):
        spec = FamilySpec(family, x, Fraction(n) if family.takes_n else None)
        report = evaluate(spec.stream(), max_depth=2000)
        if report.converged and not report.terminated:
            assert report.residual <= DEFAULT_TOLERANCE.rel_tol

    @given(st.floats(-1e300, 1e300),
           st.lists(st.tuples(st.floats(-1e300, 1e300).filter(bool), st.floats(-1e300, 1e300)), min_size=1,
                    max_size=6),
           st.sampled_from([eval_lentz, eval_convergents]), st.sampled_from([0.5, 1e-3, 1e-15]))
    def test_converged_float_residual_is_the_relative_change(self, b0, levels, evaluate, rel_tol):
        # a converged float report's residual is read off the stopping test's difference; it has
        # _relative_change's bits, subnormal values too (a nonzero float step is never 0 relative)
        cf, tol = CFStream.from_terms(b0, levels), ToleranceSpec(rel_tol)
        try:
            report = evaluate(cf, tol)
        except PoleError:
            return
        if report.converged and not report.terminated:
            k = report.depth_used
            prev = cf.b0 if k == 1 else evaluate(cf, tol, k - 1).value
            assert report.residual.hex() == _relative_change(report.value, prev).hex()

    def test_exact_step_below_float_range_is_not_reported_as_zero(self):
        # the last exact step is nonzero but under 5e-324 relative
        report = eval_convergents(coth_scaled_cf(Fraction(4, 3)), EXACT, 100)
        assert not report.converged
        assert report.residual == math.ulp(0.0)

    @pytest.mark.parametrize(
        "evaluate, stream, depth_used",
        [
            pytest.param(eval_lentz, coth_scaled_cf(1e160), 1, id="lentz-coth"),
            # the law ends at level 4: walked on to its zero, the exact value is past the range
            pytest.param(eval_convergents, uniform_binomial(3, 1e160), 3,
                         id="convergents-uniform"),
            # the law ends at level 30 000, past the cap: not walked 10 000 levels on nan
            pytest.param(eval_lentz, symmetric_binomial(30000, 1e160), 1,
                         id="lentz-zero-past-the-cap"),
            pytest.param(eval_convergents, symmetric_binomial(30000, 1e160), 1,
                         id="convergents-zero-past-the-cap"),
        ],
    )
    def test_first_non_finite_value_ends_the_walk(self, evaluate, stream, depth_used):
        report = evaluate(stream, DEFAULT_TOLERANCE, 10_000)
        assert not math.isfinite(report.value)
        assert not report.converged and not report.terminated
        assert report.depth_used == depth_used


FLOAT_WALKS = pytest.mark.parametrize("evaluate", [eval_lentz, eval_convergents],
                                      ids=["lentz", "convergents"])


class TestTerminatedFloatWalk:
    """A float fraction that terminates reports its exact value, rounded once."""

    @FLOAT_WALKS
    def test_cancelled_power_is_the_exact_power(self, evaluate):
        # the float recurrence cancels every digit of (1 + 1e10)^3, and Lentz
        # took the rounded q_5 = 0.0 for a pole (the exact q_5 is 60)
        report = evaluate(lagrange_binomial(3, 1e10))
        assert report.value == (1 + 1e10) ** 3
        assert report.terminated and report.converged and report.residual == 0.0
        assert eval_backward(lagrange_binomial(3, 1e10), 12) == (1 + 1e10) ** 3

    @FLOAT_WALKS
    def test_cancelled_negative_power_is_the_exact_power(self, evaluate):
        # Lentz reported 0.0 and the forward recurrence -1.88e-17, both terminated
        report = evaluate(uniform_binomial(-3, 1e10))
        assert report.value == float((1 + Fraction(1e10)) ** -3) == (1 + 1e10) ** -3
        assert report.terminated and report.converged

    def test_exact_pole_missed_by_rounding_is_raised(self):
        # tan(10·pi/4) is a pole; the float fold rounded it to 1.125899906842624e+16
        with pytest.raises(PoleError, match="convergent 10, the value to report, is a pole"):
            eval_backward(tan_multiple(10, 1.0), 12)

    @FLOAT_WALKS
    def test_exact_value_past_the_float_range_is_not_convergence(self, evaluate):
        report = evaluate(lagrange_binomial(3, 1e103))
        assert report.value == math.inf and math.isnan(report.residual)
        assert not report.converged and not report.terminated
        assert eval_backward(lagrange_binomial(3, 1e103), 12) == math.inf
        assert math.isnan(_backward_report(lagrange_binomial(3, 1e103), 12, TIGHT).residual)

    @FLOAT_WALKS
    def test_law_that_ends_is_walked_past_a_non_finite_value(self, evaluate):
        # a_1 = -3·x·x/4 overflows at x = 1e160; the walk once stopped there on nan
        report = evaluate(uniform_binomial(-2, 1e160))
        assert report.value == float((1 + Fraction(1e160)) ** -2) == 1e-320
        assert report.terminated and report.converged and report.depth_used == 2
        assert eval_backward(uniform_binomial(-2, 1e160), 5) == 1e-320

    @FLOAT_WALKS
    def test_non_finite_value_still_ends_a_complex_walk(self, evaluate):
        report = evaluate(symmetric_binomial(3, complex(1e160, 0.0)))
        assert report.depth_used == 1 and not report.converged and not report.terminated

    def test_exact_zero_is_a_positive_zero(self):
        # 1 + 1/(-1): the fold's ints are 0 over -1, and 0 / -1 would round to -0.0
        cf = CFStream.from_terms(1.0, [(1.0, -1.0)])
        for value in (eval_lentz(cf).value, eval_convergents(cf).value, eval_backward(cf, 5)):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_infinite_coefficient_keeps_the_route_value(self):
        # 1 + 1/inf has no exact rational form; the float fold's 1.0 stands
        assert eval_backward(CFStream.from_terms(1.0, [(1.0, math.inf)]), 5) == 1.0

    @pytest.mark.parametrize("family", [lagrange_binomial, uniform_binomial],
                             ids=["lagrange", "uniform"])
    @pytest.mark.parametrize("x", [0.3, -0.5, 1e-10, 1e10])
    @pytest.mark.parametrize("n", range(-6, 7))
    def test_integer_exponent_value_is_its_exact_value_rounded_once(self, family, x, n):
        # the law read at Fraction(x), not its rounded coefficients: (1 + x)^n itself
        cf, want = family(n, x), float((1 + Fraction(x)) ** n)
        assert eval_backward(cf, 64) == want
        for evaluate in (eval_lentz, eval_convergents):
            report = evaluate(cf, ToleranceSpec(0.0))
            assert report.terminated and report.converged and report.value == want


class TestLawThatEnds:
    """A fraction its family law ends is answered at the law's zero in every
    mode (float and rational by one exact fold, complex by its walk), never
    stopped on two agreeing steps; other walks stop as before."""

    @FLOAT_WALKS
    @pytest.mark.parametrize("family, n, x", [(lagrange_binomial, 400, 0.3),
                                              (uniform_binomial, -400, 0.3),
                                              (lagrange_binomial, 3, 1e100)],
                             ids=["lagrange-400", "uniform-minus-400", "lagrange-3-at-1e100"])
    def test_integer_exponent_is_walked_to_its_exact_power(self, evaluate, family, n, x):
        # stopping on agreement gave 2.54e17 for 1.3^400 and -1.33e-17 for 1.3^-400, and
        # folding the rounded n·x = 3.0000000000000002e100 gave 1.54e117 for 1e300
        want = float((1 + Fraction(x)) ** n)
        report = evaluate(family(n, x))
        assert report.value == want
        assert report.terminated and report.converged and report.residual == 0.0
        assert eval_backward(family(n, x), 1000) == want

    @FLOAT_WALKS
    @pytest.mark.parametrize("wrap, want", [
        (lambda s: tail(s, 1), 3.175706246730358e-44),
        (lambda s: equivalence_transform(s, lambda k: 2.0), 3.7786870282334686e+45),
        (lambda s: equivalence_transform(s, lambda k: 2.0, c0=3.0), 1.1336061084700406e+46),
    ], ids=["tail", "equivalence", "equivalence-c0"])
    def test_structural_operations_walk_an_ending_law_to_its_end(self, evaluate, wrap, want):
        # the wrapped law ends at level 800; stopping on agreement reported
        # -1.15e-15 (tail) and 2.54e17 or -1.04e17 (transform) as converged
        report = evaluate(wrap(lagrange_binomial(400, 0.3)))
        assert report.value == want
        assert report.terminated and report.converged and report.residual == 0.0

    @pytest.mark.parametrize("evaluate", [eval_lentz, eval_convergents])
    def test_tail_of_a_zero_argument_ends_at_its_first_level(self, evaluate):
        # at x = 0 every level is an exact zero, also below the law's end at level 1
        cf = tail(lagrange_binomial(0.37, 0.0), 2)
        assert cf._end is None and cf.termination_level(40) == 1
        report = evaluate(cf)
        assert report.value == 2.0 and report.depth_used == 0
        assert report.terminated and report.converged and report.residual == 0.0

    def test_tail_from_past_the_zero_walks_on(self):
        # the sub-fraction below the law's zero is a fraction of its own
        cf = lagrange_binomial(3, 0.3)
        assert cf.termination_level(100) == 6
        assert [tail(cf, start)._end for start in (1, 5, 6, 7)] == [5, 1, None, None]
        for start in (6, 7):
            report = eval_lentz(tail(cf, start), TIGHT)
            assert report.converged and not report.terminated and report.depth_used > 1

    @pytest.mark.parametrize("wrapped, healthy", [
        (lambda: equivalence_transform(arctan_cf(0.5), lambda k: 0.0 if k == 2 else 1.0),
         lambda: arctan_cf(0.5)),
        (lambda: CFStream(1.0, lambda k: CFTerm(Fraction(1), Fraction(3)) if k == 2 else CFTerm(1.0, 3.0)),
         lambda: CFStream(1.0, lambda k: CFTerm(1.0, 3.0))),
    ], ids=["zero-scale", "wrong-mode"])
    def test_tail_reads_no_level_above_its_start(self, wrapped, healthy):
        # only a tail of an ending law scans the levels above it for the
        # zero; these fail at level 2, which a tail from level 5 never reads
        cf = wrapped()
        with pytest.raises((ValueError, ModeMismatchError)):
            cf.term(2)
        report = eval_lentz(tail(cf, 5), TIGHT)
        assert report.converged and not report.terminated
        assert report == eval_lentz(tail(healthy(), 5), TIGHT)

    def test_law_within_the_cap_answers_without_a_walk(self, monkeypatch):
        # no stream class can be walked, and every route's rows raise when pulled: an ending
        # law's report is its one exact fold, read off its cleared levels
        def refuse(*args, **kwargs):
            raise AssertionError("an ending law was walked")

        def refuse_rows(*args, **kwargs):
            raise AssertionError("an ending law's rows were pulled")
            yield  # a generator function, as the routes call these to build their rows

        ended = lambda value, depth: EvalReport(value, depth, True, True, 0.0, 0)
        cases = [(lagrange_binomial(3, 0.3), ended(2.197, 5)),
                 (uniform_binomial(-2, 1e160), ended(1e-320, 2)),
                 (tail(lagrange_binomial(400, 0.3), 1), ended(3.175706246730358e-44, 798)),
                 (equivalence_transform(lagrange_binomial(400, 0.3), lambda k: 2.0, c0=3.0),
                  ended(1.1336061084700406e+46, 799))]
        exact = lagrange_binomial(-7, Fraction(3, 10))
        # termination_level reads no scale factor, but the answer folds every one, as the twin does
        zeroed = equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 0.0 if k == 2 else 1.0)
        with pytest.raises(ValueError, match="zero scale factor at level 2"):
            zeroed.term(2)
        for cls in (CFStream, families._Law, engine._Tail, engine._Scaled):
            monkeypatch.setattr(cls, "_walk", refuse)
        for name in ("_forward", "_forward_exact", "_backward"):
            monkeypatch.setattr(engine, name, refuse_rows)
        for cf, want in cases:
            assert eval_lentz(cf) == eval_convergents(cf) == _backward_report(cf, 1000, TIGHT) == want
            assert eval_backward(cf, 1000) == want.value
        assert eval_convergents(exact, EXACT) == ended(Fraction(10_000_000, 62_748_517), 14)
        assert eval_backward(exact, 15) == Fraction(10_000_000, 62_748_517)
        assert zeroed.termination_level(10) == 6
        for route in (eval_lentz, eval_convergents, lambda cf: eval_backward(cf, 1000)):
            with pytest.raises(ValueError, match="zero scale factor at level 2"):
                route(zeroed)

    @FLOAT_WALKS
    def test_walk_capped_before_the_zero_is_not_converged(self, evaluate):
        # the law ends at level 800; steps 123 and 124 agree at 2.54e17
        report = evaluate(lagrange_binomial(400, 0.3), ToleranceSpec(1e-12), 150)
        assert report.depth_used == 150
        assert not report.converged and not report.terminated

    def test_law_that_never_ends_stops_on_agreement(self):
        # n = 0 has no head and α(j) = -j², never 0
        report = eval_lentz(symmetric_binomial(0, 0.3))
        assert report.converged and not report.terminated and report.depth_used == 8

    def test_exact_walk_is_not_stopped_by_the_tolerance(self):
        # the default tolerance stopped it at depth 33, short of (13/10)^40
        report = eval_convergents(lagrange_binomial(40, Fraction(3, 10)))
        assert report.terminated and report.depth_used == 79
        assert report.value == Fraction(13, 10) ** 40

    def test_complex_walk_reaches_the_zero(self):
        # mpmath gives 335.18951689979936; stopping on agreement gave 335.18951689988637
        report = eval_lentz(symmetric_binomial(400, 0.3j))
        assert report.terminated and report.depth_used == 399
        assert report.value.imag == 0
        assert report.value.real == pytest.approx(335.18951689979936, rel=1e-14)

    @pytest.mark.parametrize("evaluate, stream, want, depth, residual", [
        (eval_lentz, lambda: lagrange_binomial(Fraction(5, 2), 0.3),
         "0x1.ed491642a1a60p+0", 11, 6.183473630039906e-13),
        (eval_convergents, lambda: uniform_binomial(Fraction(-7, 3), 0.9),
         "0x1.ca0aa38ee243ap-3", 9, 8.711890728249887e-14),
        (eval_lentz, lambda: CFStream.from_terms(
            1.0, [lagrange_binomial(Fraction(5, 2), 0.3).term(k) for k in range(1, 41)]),
         "0x1.ed491642a1a60p+0", 11, 6.183473630039906e-13),
        (eval_convergents, lambda: tail(uniform_binomial(Fraction(1, 2), -0.5), 2),
         "0x1.17c3b666fb6bcp+1", 8, 5.311206241188577e-13),
    ], ids=["lagrange", "uniform", "user", "tail"])
    def test_other_walks_stop_on_agreement_as_before(self, evaluate, stream, want, depth,
                                                      residual):
        report = evaluate(stream())
        assert report.value.hex() == want and report.residual == residual
        assert report.depth_used == depth and report.converged and not report.terminated


class TestOneComparison:
    """The evaluators stop through the same comparison as nearly_equal."""

    # From v_0 = 1 a step delta is within rel_tol = r exactly when
    # delta <= r/(1 - r), with r the exact value of the float 1e-12; only
    # an exact comparison tells EDGE from EDGE + 1e-60.
    EDGE = Fraction(1e-12) / (1 - Fraction(1e-12))
    BOTH = (eval_convergents, eval_lentz)

    @pytest.mark.parametrize(
        "b0, a, b, tol, evaluators, want",
        [
            pytest.param(1.0, 1e-13, 1.0, 1e-12, BOTH, True, id="float-within"),
            pytest.param(1.0, 1e-11, 1.0, 1e-12, BOTH, False, id="float-outside"),
            pytest.param(1.0, 1e300, 1e-300, 1e-12, BOTH, False, id="float-inf-step"),
            pytest.param(1.0, math.nan, 1.0, 1e-12, BOTH, False, id="float-nan-step"),
            pytest.param(1 + 1j, 1e-13j, 1 + 0j, 1e-12, BOTH, True, id="complex-within"),
            pytest.param(1 + 1j, 1e-11j, 1 + 0j, 1e-12, BOTH, False, id="complex-outside"),
            pytest.param(Fraction(1, 3), Fraction(1, 10**40), Fraction(1), 0.0,
                         (eval_convergents,), False, id="rational-exact-tol"),
            pytest.param(Fraction(1), EDGE, Fraction(1), 1e-12, (eval_convergents,),
                         True, id="rational-at-edge"),
            pytest.param(Fraction(1), EDGE + Fraction(1, 10**60), Fraction(1), 1e-12,
                         (eval_convergents,), False, id="rational-past-edge"),
        ],
    )
    def test_stopping_rule_agrees_with_nearly_equal(self, b0, a, b, tol, evaluators, want):
        # an endless stream b0 + a/(b + a/(b + ...)) stopped at depth 1:
        # converged iff v_1 = b0 + a/b is within tol of v_0 = b0
        spec = ToleranceSpec(rel_tol=tol)
        cf = CFStream(b0, lambda k: CFTerm(a, b))
        for evaluate in evaluators:
            report = evaluate(cf, spec, 1)
            assert report.depth_used == 1
            assert report.converged is nearly_equal(report.value, b0, spec) is want

    @pytest.mark.parametrize("evaluate", [eval_lentz, eval_convergents], ids=["lentz", "convergents"])
    def test_complex_walk_compares_inline(self, evaluate, monkeypatch):
        # every mode takes the inline comparison; _within is the fallback for a modulus past the range
        calls, within = [], engine._within
        monkeypatch.setattr(engine, "_within", lambda *args: calls.append(args) or within(*args))
        report = evaluate(symmetric_binomial(0.77, 0.5j), TIGHT)
        assert report.converged and report.depth_used == 11 and calls == []


class TestUserStreamModeCheck:
    """The per-term mode check runs on user streams, also through a tail or
    an equivalence transform of one; family streams take their law's terms."""

    @pytest.mark.parametrize(
        "b0, term",
        [
            pytest.param(1.0, CFTerm(True, 1.0), id="bool-a"),
            pytest.param(1.0, CFTerm(1.0, False), id="bool-b"),
            pytest.param(Fraction(1), CFTerm(Fraction(1), True), id="rational-bool"),
            pytest.param(1.0, CFTerm(Fraction(1, 2), 2.0), id="float-rational"),
            pytest.param(1.0, CFTerm(0.5, 2 + 0j), id="float-complex"),
            pytest.param(1 + 0j, CFTerm(0.5, 2 + 0j), id="complex-float"),
            pytest.param(Fraction(1), CFTerm(Fraction(1, 2), 2.0), id="rational-float"),
        ],
    )
    def test_bad_term_raises_in_every_evaluator(self, b0, term):
        cf, one = CFStream(b0, lambda k: term), mode_of(b0).cast(1)
        evaluators = [lambda s: convergents(s, 3), lambda s: eval_convergents(s, TIGHT, 3),
                      lambda s: eval_backward(s, 3), lambda s: tail(s, 1).term(1),
                      lambda s: equivalence_transform(s, lambda k: one).term(1)]
        if mode_of(b0) is not Mode.RATIONAL:
            evaluators.append(lambda s: eval_lentz(s, TIGHT, 3))
        for evaluate in evaluators:
            with pytest.raises(ModeMismatchError):
                evaluate(cf)

    def test_float_scale_on_a_rational_stream_raises(self):
        # the caller's factors are checked: the scaled pair leaves b0's mode
        scaled = equivalence_transform(coth_scaled_cf(Fraction(1, 2)), lambda k: 0.5)
        with pytest.raises(ModeMismatchError):
            scaled.term(1)
        with pytest.raises(ModeMismatchError):
            convergents(scaled, 3)


class TestEvalBackward:
    def test_depth_one_is_direct_quotient(self):
        cf = CFStream.from_terms(2.0, [(1.0, 4.0)])
        assert eval_backward(cf, 1) == 2.0 + 1.0 / 4.0

    def test_matches_terminated_exact_value(self):
        cf = symmetric_binomial(2, Fraction(1, 3))
        assert eval_backward(cf, 2) == Fraction(10, 9)
        assert eval_backward(cf, 7) == Fraction(10, 9)

    def test_equals_forward_convergent_exactly(self):
        cf = coth_scaled_cf(Fraction(1, 2))
        for depth in (1, 5, 12):
            assert eval_backward(cf, depth) == convergents(cf, depth)[-1].value

    def test_successive_depths_converge(self):
        cf = coth_scaled_cf(1.0)
        assert abs(eval_backward(cf, 25) - eval_backward(cf, 24)) < 1e-13

    @pytest.mark.parametrize("depth", range(1, 12))
    def test_inner_zero_folds_through(self, depth):
        # the depth-4 fold of tan(10 arctan(1/3)) meets an exact inner zero
        cf = tan_multiple(10, Fraction(1, 3))
        assert eval_backward(cf, depth) == convergents(cf, depth)[-1].value

    def test_zero_fold_denominator_raises(self):
        cf = CFStream.from_terms(Fraction(1), [(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))])
        with pytest.raises(PoleError):
            eval_backward(cf, 2)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            eval_backward(coth_scaled_cf(1.0), 0)

    @pytest.mark.parametrize("route", [lambda cf, cap: eval_backward(cf, cap),
                                       lambda cf, cap: _backward_report(cf, cap, TIGHT)],
                             ids=["eval_backward", "backward_report"])
    def test_zero_depth_names_the_depth_parameter(self, route):
        # the backward routes take depth, not max_depth, and their error says so
        for cf in (coth_scaled_cf(1.0), coth_scaled_cf(Fraction(1, 2)), lagrange_binomial(3, 0.3)):
            with pytest.raises(ValueError, match=r"^depth must be >= 1, got 0$"):
                route(cf, 0)
        with pytest.raises(ValueError, match=r"^max_depth must be >= 1, got 0$"):
            eval_lentz(coth_scaled_cf(1.0), TIGHT, 0)


EXACT_SCALARS = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=7)
)


def _reference_convergents(cf, depth):
    # the forward recurrence in plain Fraction arithmetic, one level at a time
    p_prev, q_prev, p, q = Fraction(1), Fraction(0), Fraction(cf.b0), Fraction(1)
    out = [(p, q)]
    for k in range(1, depth + 1):
        t = cf.term(k)
        if t is None or t.a == 0:
            break
        p, p_prev = t.b * p + t.a * p_prev, p
        q, q_prev = t.b * q + t.a * q_prev, q
        out.append((p, q))
    return out


def _reference_fold(cf, depth):
    # the truncated value folded from the bottom; None is an infinite partial value
    levels = len(_reference_convergents(cf, depth)) - 1
    bs = [Fraction(cf.b0)] + [Fraction(cf.term(k).b) for k in range(1, levels + 1)]
    r = bs[-1]
    for k in range(levels, 0, -1):
        r = bs[k - 1] if r is None else None if r == 0 else bs[k - 1] + cf.term(k).a / r
    return r


def _assert_exact_routes_match_reference(cf, depth):
    convs = convergents(cf, depth)
    assert [(c.k, c.p, c.q) for c in convs] == [(k, p, q) for k, (p, q) in
                                                enumerate(_reference_convergents(cf, depth))]
    for c in convs:
        assert type(c.p) is Fraction and type(c.q) is Fraction
        assert c.is_pole == (c.q == 0)
        if c.is_pole:
            with pytest.raises(PoleError, match=f"convergent {c.k} is a pole"):
                c.value
        else:
            assert type(c.value) is Fraction and c.value == c.p / c.q
    want = _reference_fold(cf, depth)
    if want is None:
        pole = r"convergent \d+, the value to report, is a pole \(q = 0\)"
        with pytest.raises(PoleError, match=pole):
            eval_backward(cf, depth)
    else:
        got = eval_backward(cf, depth)
        assert type(got) is Fraction and got == want


class TestExactKernel:
    """Rational routes run on Python ints; these pin them to plain Fraction arithmetic."""

    @given(EXACT_SCALARS, st.lists(st.tuples(EXACT_SCALARS, EXACT_SCALARS), max_size=8),
           st.integers(1, 10))
    def test_explicit_streams(self, b0, terms, depth):
        _assert_exact_routes_match_reference(CFStream.from_terms(b0, terms), depth)

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=6),
           st.fractions(min_value=-2, max_value=2, max_denominator=6).filter(lambda f: f != 0),
           st.integers(1, 3), st.integers(1, 10))
    def test_tails_of_a_family(self, n, z, start, depth):
        _assert_exact_routes_match_reference(tail(symmetric_binomial(n, z), start), depth)

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(lambda f: f != 0),
           EXACT_SCALARS.filter(lambda c: c != 0), st.integers(1, 10))
    def test_transforms_of_a_family(self, v, c, depth):
        cf = equivalence_transform(coth_scaled_cf(v), lambda k: c * Fraction(2 * k + 1, 3), c0=c)
        _assert_exact_routes_match_reference(cf, depth)

    @pytest.mark.parametrize("cf", [
        arctan_cf(Fraction(-5, 3)),
        symmetric_binomial(Fraction(5, 2), Fraction(1, 5)),
        uniform_binomial(Fraction(7, 3), Fraction(-2, 5)),
        tail(coth_scaled_cf(Fraction(4, 3)), 2),
    ], ids=lambda cf: cf.description)
    def test_deep_family_streams(self, cf):
        # 150 levels of factors carried from level to level in both kernels
        _assert_exact_routes_match_reference(cf, 150)

    @pytest.mark.parametrize("cf", [
        tan_cf(Fraction(2, 3)),
        coth_scaled_cf(Fraction(-4, 3)),
        uniform_binomial(Fraction(7, 3), Fraction(-2, 5)),
        arctan_cf(Fraction(5, 3)),
        symmetric_binomial(Fraction(5, 2), Fraction(3, 5)),
        lagrange_binomial(-7, Fraction(0)),
    ], ids=lambda cf: cf.description)
    def test_family_int_walk_matches_a_user_copy(self, cf):
        # constant α (tan, coth-scaled), a head with d (uniform), a law whose α(j)·P·c
        # shares content with den·Q (arctan, symmetric) and x = 0: the cleared levels
        # read off the law against the engine's clearing of a user copy's int walk,
        # read off the Fractions of term(k), and both kernels over each
        copy = CFStream.from_terms(cf.b0, [cf.term(k) for k in range(1, 151)])
        (head, rows), (copy_head, _) = cf._cleared(), copy._cleared()
        assert head == copy_head == cf.b0.as_integer_ratio()
        assert list(islice(rows, 150)) == list(_integral(copy.b0, copy._walk()))
        assert list(_forward_exact(cf, 150)) == list(_forward_exact(copy, 150))
        folds = [Fraction(*_fold_exact(head, list(islice(rows, 150))))
                 for head, rows in (cf._cleared(), copy._cleared())]
        assert folds[0] == folds[1] == eval_backward(cf, 150) == eval_backward(copy, 150)

    @pytest.mark.parametrize("cf", [coth_scaled_cf(Fraction(4, 3)), tan_cf(Fraction(2, 3))],
                             ids=lambda cf: cf.description)
    def test_levels_are_cleared_by_the_least_factors(self, cf):
        # a_k has denominator 9: c_{k-1} clears it with c_k, so no row carries a common
        # factor and the scale grows by 3 a level; clearing by each level's lcm grew it by 9
        rows = list(_forward_exact(cf, 300))
        assert all(math.gcd(p, q) == 1 for p, q, _, _ in rows)
        assert rows[-1][2] == 300 and rows[-1][3] == 3 ** 300

    def test_integer_stream_values_are_fractions(self):
        # int / int would be a float; every rational route returns a Fraction
        cf = CFStream.from_terms(1, [(1, 2), (3, 4)])
        assert convergents(cf, 2)[-1].value == eval_backward(cf, 2) == Fraction(15, 11)
        assert type(convergents(cf, 2)[-1].value) is Fraction
        assert type(eval_backward(cf, 2)) is Fraction
        assert type(eval_convergents(cf, EXACT, 5).value) is Fraction


def _listed(head, rows, depth=None):
    # _cleared()'s pair and its first depth rows, all of them by default
    return head, list(islice(rows, depth))


def _plain_rows(cf, depth):
    # the forward recurrence on the cleared levels, no content divided out: (P_k, Q_k, s_k)
    (p, s), levels = cf._cleared()
    p_prev, q_prev, rows, q = 1, 0, [(p, s, s)], s
    for c, a, b in islice(levels, depth):
        p, p_prev = b * p + a * p_prev, p
        q, q_prev = b * q + a * q_prev, q
        s *= c
        rows.append((p, q, s))
    return rows


def _plain_fold(cf, depth):
    # the fold of the cleared levels, no content divided out; None is a pole
    (top, bottom), levels = cf._cleared()
    levels = list(islice(levels, depth))
    ups = [top] + [b for _, _, b in levels]
    num, den = ups[-1], 1
    for k in range(len(levels), 0, -1):
        num, den = ups[k - 1] * num + levels[k - 1][1] * den, num
    return Fraction(num, den * bottom) if den else None


def _row_zero_at_a_check(row, depth):
    # levels (4, 2), whose rows gain a factor 2 a level, and one level at the first
    # content check that makes row p or q vanish there: b = x_{L-2}, a = -x_{L-1}
    level = engine._FIRST_CHECK
    xs = {"p": [1, 1], "q": [0, 1]}[row]  # x_{-1}, x_0 for b0 = 1
    for _ in range(1, level):
        xs.append(2 * xs[-1] + 4 * xs[-2])
    terms = [(4, 2)] * (level - 1) + [(-xs[-1], xs[-2])] + [(4, 2)] * (depth - level)
    return CFStream.from_terms(1, terms, f"{row}-zero")


def _fold_zero_at_a_check(depth):
    # levels (4, 2) and one b that makes the fold's partial value vanish at its first
    # content check, depth - _FIRST_CHECK: the level above then folds from a pole
    level, r = depth - engine._FIRST_CHECK, Fraction(2)
    for _ in range(depth - 1, level, -1):
        r = 2 + 4 / r
    terms = [(4, 2)] * (level - 1) + [(4, -4 / r)] + [(4, 2)] * (depth - level)
    return CFStream.from_terms(1, terms, "fold-zero")


DEEP_STREAMS = {
    "symmetric(5/2, 3/5)": lambda d: symmetric_binomial(Fraction(5, 2), Fraction(3, 5)),
    "arctan(5/3)": lambda d: arctan_cf(Fraction(5, 3)),
    "coth-scaled(4/3)": lambda d: coth_scaled_cf(Fraction(4, 3)),
    "coth-scaled(5/3)": lambda d: coth_scaled_cf(Fraction(5, 3)),
    "uniform(7/3, -2/5)": lambda d: uniform_binomial(Fraction(7, 3), Fraction(-2, 5)),
    "tail": lambda d: tail(arctan_cf(Fraction(-4, 3)), 2),
    "equivalence": lambda d: equivalence_transform(
        symmetric_binomial(Fraction(9, 2), Fraction(-1, 5)), lambda k: Fraction(2 * k + 1, 3)),
    "q-zero": lambda d: _row_zero_at_a_check("q", d),
    "p-zero": lambda d: _row_zero_at_a_check("p", d),
    "fold-zero": _fold_zero_at_a_check,
    # rows that stop growing after the first check found content: the next finds none
    "rows-stop-growing": lambda d: CFStream.from_terms(1, [(4, 2)] * engine._FIRST_CHECK + [(-1, 1)] * d),
    "fold-stops-growing": lambda d: CFStream.from_terms(
        1, [(-1, 1)] * (d - engine._FIRST_CHECK) + [(4, 2)] * engine._FIRST_CHECK),
}


class TestRowContent:
    """Deep exact walks divide their rows' common content out at a few checks; every
    convergent and fold value is the plain recurrence's, which divides nothing out."""

    @pytest.mark.parametrize("depth", [400, 1400])
    @pytest.mark.parametrize("name", list(DEEP_STREAMS))
    def test_deep_values_match_the_plain_recurrence(self, name, depth):
        cf = DEEP_STREAMS[name](depth)
        convs, rows = convergents(cf, depth), _plain_rows(cf, depth)
        assert [c.k for c in convs] == list(range(depth + 1)) == list(range(len(rows)))
        for c, (p, q, s) in zip(convs, rows):
            assert (c.p, c.q, c.is_pole) == (Fraction(p, s), Fraction(q, s), q == 0)
            if q == 0:
                with pytest.raises(PoleError):
                    c.value
            else:  # the reduced value, checked by cross-multiplication
                v = c.value
                assert type(v) is Fraction and v.numerator * q == v.denominator * p
        c, (p, q, s) = convs[200], rows[200]  # past the first check, and short enough to print
        assert repr(c) == f"Convergent(p={Fraction(p, s)!r}, q={Fraction(q, s)!r}, k=200)"
        assert c == Convergent(Fraction(p, s), Fraction(q, s), 200)
        assert hash(c) == hash((Fraction(p, s), Fraction(q, s), 200))
        assert eval_backward(cf, depth) == _plain_fold(cf, depth)

    def test_repr_writes_ints_past_the_digit_limit(self):
        # at depth 1400 p and q have over 4 300 digits, past which repr of an int raises ValueError
        c = convergents(symmetric_binomial(Fraction(5, 2), Fraction(3, 5)), 1400)[-1]
        text = repr(c)
        assert text.startswith("Convergent(p=Fraction(") and text.endswith("), k=1400)")
        ints = [int(Decimal(digits)) for digits in re.findall(r"-?\d+", text[:-len(", k=1400)")])]
        assert ints == [c.p.numerator, c.p.denominator, c.q.numerator, c.q.denominator]
        assert max(ints).bit_length() > 4300 * math.log2(10)

    def test_the_zero_rows_sit_at_a_check(self):
        # the user streams above reach their zeros where the kernels divide content out
        level = engine._FIRST_CHECK
        assert _plain_rows(_row_zero_at_a_check("q", 400), level)[-1][1] == 0
        assert _plain_rows(_row_zero_at_a_check("p", 400), level)[-1][0] == 0
        assert convergents(_row_zero_at_a_check("q", 400), 400)[level].is_pole
        cf = _fold_zero_at_a_check(400)
        assert eval_backward(tail(cf, 400 - level), level) == 0

    @pytest.mark.parametrize("cf", [symmetric_binomial(Fraction(5, 2), Fraction(3, 5)),
                                    arctan_cf(Fraction(5, 3))], ids=lambda cf: cf.description)
    def test_determinant_identity_holds_deep(self, cf):
        # p_k q_{k-1} - p_{k-1} q_k = (-1)^(k-1) a_1···a_k needs every convergent's content
        assert verify._determinant_holds(cf, 400)

    def test_deep_rows_keep_little_common_content(self):
        # at depth 1400 symmetric_binomial(5/2, 3/5)'s last forward row and its fold state
        # shared 13 355 bits when no content was divided out; under a quarter is left
        cf = symmetric_binomial(Fraction(5, 2), Fraction(3, 5))
        *_, (p, q, k, _) = _forward_exact(cf, 1400)
        head, rows = cf._cleared()
        num, den = _fold_exact(head, list(islice(rows, 1400)))
        assert k == 1400
        assert math.gcd(p, q).bit_length() < 13_355 / 4
        assert math.gcd(num, den).bit_length() < 13_355 / 4


class TestTail:
    def test_leading_term_is_original_b1(self):
        cf = lagrange_binomial(Fraction(1, 2), Fraction(1, 4))
        assert tail(cf, 1).b0 == cf.term(1).b

    def test_terms_are_shifted(self):
        cf = lagrange_binomial(Fraction(1, 2), Fraction(1, 4))
        t = tail(cf, 2)
        for k in (1, 2, 5):
            assert t.term(k) == cf.term(2 + k)

    def test_tail_value_recovers_power(self):
        n, x = 0.5, 0.25
        cf = lagrange_binomial(n, x)
        a_val = eval_lentz(tail(cf, 1), TIGHT, 2000).value
        assert abs((1 + n * x / a_val) - (1 + x) ** n) < 1e-12

    def test_start_past_finite_stream(self):
        cf = CFStream.from_terms(1.0, [(1.0, 1.0)])
        with pytest.raises(ValueError):
            tail(cf, 2)

    def test_start_below_one_rejected(self):
        with pytest.raises(ValueError, match="start_level must be >= 1"):
            tail(arctan_cf(1.0), 0)

    def test_a_law_past_the_digit_limit_labels_its_tail_and_transform(self):
        # an exponent or argument of over 4 300 digits, past which str and repr of an int raise ValueError
        big = lagrange_binomial(10**5000, Fraction(1, 2))
        t = tail(big, 1)
        assert t.description.startswith("tail(lagrange-binomial(n=1000") and t.description.endswith(
            "000, x=Fraction(1, 2)), 1)")
        assert repr(t).startswith("CFStream(b0=Fraction(1, 1), mode=rational 'tail(lagrange-binomial(n=1000")
        assert int(Decimal(t.description[len("tail(lagrange-binomial(n="):].split(",")[0])) == 10**5000
        # level 7 of the law is 1 + (n·x)/(the tail's convergent 6)
        assert convergents(big, 7)[-1].value == 1 + Fraction(10**5000, 2) / eval_convergents(t, EXACT, 6).value
        scaled = equivalence_transform(lagrange_binomial(3, Fraction(10**5000 + 1, 3)), lambda k: 2)
        label = re.fullmatch(r"equivalence\(lagrange-binomial\(n=3, x=Fraction\((\d+), 3\)\)\)", scaled.description)
        assert label and int(Decimal(label[1])) == 10**5000 + 1
        assert repr(scaled).endswith(f"{scaled.description!r})")


class TestEquivalenceTransform:
    def test_identity_scale_keeps_terms(self):
        cf = symmetric_binomial(Fraction(5, 2), Fraction(1, 5))
        out = equivalence_transform(cf, lambda k: Fraction(1))
        assert out.b0 == cf.b0
        for k in range(1, 10):
            assert out.term(k) == cf.term(k)

    def test_preserves_convergent_values_exactly(self):
        cf = symmetric_binomial(Fraction(5, 2), Fraction(1, 5))
        out = equivalence_transform(cf, lambda k: Fraction(1, k + 1))
        for a, b in zip(convergents(cf, 12), convergents(out, 12)):
            assert a.value == b.value

    @given(st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(lambda f: f != 0))
    def test_constant_scale_preserves_values(self, c):
        cf = coth_scaled_cf(Fraction(1, 2))
        out = equivalence_transform(cf, lambda k: c)
        assert [x.value for x in convergents(out, 8)] == [x.value for x in convergents(cf, 8)]

    def test_scale_is_called_once_per_level(self):
        cf = coth_scaled_cf(Fraction(1, 2))
        calls = []

        def scale(k):
            calls.append(k)
            return Fraction(2 * k + 1, 3)

        out = equivalence_transform(cf, scale)
        convs = convergents(out, 10)
        assert calls == list(range(1, 11))
        assert [c.value for c in convs] == [c.value for c in convergents(cf, 10)]

    def test_out_of_order_pulls_give_the_in_order_terms(self):
        cf = coth_scaled_cf(Fraction(1, 2))
        in_order, shuffled = (equivalence_transform(cf, lambda k: Fraction(k + 2, 2 * k - 1))
                              for _ in range(2))
        want = {k: in_order.term(k) for k in range(1, 8)}
        assert {k: shuffled.term(k) for k in (5, 3, 4, 1, 7, 2, 6, 6)} == want

    def test_threads_sharing_a_stream_get_the_in_order_terms(self):
        # the memo of the last factor is one pair, read and replaced whole;
        # a scale that gives up the interpreter lock, as one doing I/O would,
        # lets another thread pull in the middle of a level
        def scale(k):
            time.sleep(0)
            return Fraction(k + 2, 2 * k - 1)

        cf = coth_scaled_cf(Fraction(1, 2))
        shared, ref = (equivalence_transform(cf, scale) for _ in range(2))
        want = {k: ref.term(k) for k in range(1, 25)}
        wrong = []

        def pull(seed):  # runs of in-order pulls from random starts
            rng = random.Random(seed)
            for _ in range(100):
                for k in range(rng.randrange(1, 25), 25):
                    if shared.term(k) != want[k]:
                        wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pull, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_zero_scale_rejected(self):
        cf = coth_scaled_cf(Fraction(1, 2))
        with pytest.raises(ValueError):
            convergents(equivalence_transform(cf, lambda k: Fraction(0)), 3)
        with pytest.raises(ValueError):
            equivalence_transform(cf, lambda k: Fraction(1), c0=0)

    def test_finite_stream_ends_where_the_stream_ends(self):
        cf = CFStream.from_terms(Fraction(1), [(Fraction(1), Fraction(2))] * 3)
        out = equivalence_transform(cf, lambda k: Fraction(k))
        assert out.term(3) is not None and out.term(4) is None
        assert convergents(out, 10)[-1].value == convergents(cf, 10)[-1].value

    def test_leading_factor_scales_value(self):
        cf = coth_scaled_cf(Fraction(1, 2))
        c0 = Fraction(1, 3)
        out = equivalence_transform(cf, lambda k: Fraction(1), c0=c0)
        assert convergents(out, 6)[-1].value == c0 * convergents(cf, 6)[-1].value


class TestStreamLifetime:
    @pytest.mark.parametrize("build", [
        lambda: arctan_cf(0.5),
        lambda: symmetric_binomial(Fraction(5, 2), Fraction(1, 5)),
        lambda: tail(arctan_cf(0.5), 2),
        lambda: CFStream.from_terms(1.0, [(1.0, 2.0)]),  # terminated: the walk reads _cleared()
        lambda: equivalence_transform(arctan_cf(0.5), lambda k: 2.0),
        lambda: tail(equivalence_transform(arctan_cf(0.5), lambda k: 2.0), 2),
    ], ids=["float-family", "rational-family", "tail", "user", "transform", "tail-of-transform"])
    def test_stream_is_freed_without_the_cyclic_collector(self, build):
        # a stream that held its own bound method in __dict__ would be a cycle, and
        # every evaluation builds a fresh stream
        gc.collect()
        gc.disable()
        try:
            cf = build()
            eval_convergents(cf, TIGHT, 40)
            freed = weakref.ref(cf)
            del cf
            assert freed() is None
        finally:
            gc.enable()

    def test_tails_and_transforms_store_no_function_they_made(self):
        # a tail's and a transform's level, walk and cleared levels are their class's methods;
        # the one function a derived stream keeps is the caller's scale
        scale = lambda k: 1.0 + k
        user = CFStream.from_terms(1.0, [(0.1, 0.3), (0.7, 0.9), (0.2, 0.6)])
        for parent in (arctan_cf(0.5), lagrange_binomial(3, 0.3), user):
            scaled = equivalence_transform(parent, scale, 3.0)
            derived = [tail(parent, 1), scaled, tail(scaled, 1), equivalence_transform(tail(parent, 1), scale)]
            for cf in derived:
                for name in ("_walk", "_level", "_cleared"):
                    assert name not in vars(cf), name
                assert [v for v in vars(cf).values() if callable(v)] == ([scale] if "_scale" in vars(cf) else [])


class TestExactFormOfDerivedStreams:
    """A tail's and a transform's exact form is the same operation on the wrapped stream's
    cleared levels, a transform's factors read exactly: so an ending law answers, on every route,
    its rational twin's value rounded once, and a factor that fails raises in both modes."""

    LAWS = {"lagrange": lambda x: lagrange_binomial(3, x), "uniform": lambda x: uniform_binomial(-2, x),
            "symmetric": lambda x: symmetric_binomial(4, x), "tan-multiple": lambda x: tan_multiple(3, x)}
    STEPS = {"tail-1": lambda cf, one: tail(cf, 1), "tail-2": lambda cf, one: tail(cf, 2),
             "scale-2": lambda cf, one: equivalence_transform(cf, lambda k: 2 * one),
             "scale-1+k": lambda cf, one: equivalence_transform(cf, lambda k: (1 + k) * one, 3 * one)}

    @pytest.mark.parametrize("law", list(LAWS))
    def test_compositions_of_an_ending_law_answer_the_exact_value(self, law):
        # a tail of a transform is c_s times the wrapped tail (Jones & Thron 1980, ch. 2): an
        # exact form that drops the factors answered the wrapped tail's value
        checked, wrong = 0, []
        for first, second in ((f, s) for f in self.STEPS for s in self.STEPS):
            build = lambda x, one: self.STEPS[second](self.STEPS[first](self.LAWS[law](x), one), one)
            cf, twin = build(0.3, 1.0), build(Fraction(0.3), Fraction(1))
            if cf._end is None:  # a tail from the law's zero on: a fraction of its own
                continue
            want, checked = float(eval_convergents(twin, EXACT).value), checked + 1
            reports = [eval_lentz(cf), eval_convergents(cf), _backward_report(cf, 50, TIGHT)]
            got = [r.value for r in reports] + [eval_backward(cf, 50)]
            if got != [want] * 4 or not all(r.terminated for r in reports):
                wrong.append((first, second, got, want))
        assert wrong == []
        assert checked == {"lagrange": 16, "uniform": 13, "symmetric": 15, "tan-multiple": 15}[law]

    @pytest.mark.parametrize("cap", [3, engine.DEFAULT_MAX_DEPTH])
    def test_a_factor_out_of_mode_names_its_level_on_every_route_and_cap(self, cap):
        # a complex c_3 takes level 3 out of float mode: the law's exact answer and a walk to level 3 say so
        cf = equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 1j if k == 3 else 1.0)
        message = re.escape("term 3 of equivalence(lagrange-binomial(n=3, x=0.3)) is not in float mode")
        for route in (eval_lentz, eval_convergents, lambda cf, tol, cap: _backward_report(cf, cap, tol),
                      lambda cf, tol, cap: eval_backward(cf, cap)):
            with pytest.raises(ModeMismatchError, match=message):
                route(cf, TIGHT, cap)

    @pytest.mark.parametrize("x", [0.3, Fraction(3, 10)], ids=["float", "rational"])
    def test_a_zero_factor_raises_on_every_route_in_both_modes(self, x):
        zero, one = type(x)(0), type(x)(1)
        cf = equivalence_transform(lagrange_binomial(3, x), lambda k: zero if k == 2 else one)
        routes = [eval_convergents, lambda cf: _backward_report(cf, 50, TIGHT), lambda cf: eval_backward(cf, 50)]
        for route in routes + [eval_lentz] * (cf.mode is Mode.FLOAT):
            with pytest.raises(ValueError, match="zero scale factor at level 2"):
                route(cf)


COMPOSITION_STEPS = [("tail", 1), ("tail", 2), ("tail", 3), ("scale", 2), ("scale", -3), ("scale", Fraction(3, 4)),
                     ("scale", Fraction(-1, 2)), ("scale-1+k", 3), ("scale-1+k", Fraction(-1, 4)),
                     ("scale-1+k", Fraction(5, 2))]


class TestCompositionsAgainstAPlainFold:
    """A family at a rational argument under up to two steps from {tail s, scale by a constant,
    scale by 1 + k with c0}: every rational route equals a plain Fraction fold written here, over
    the bare law's levels with each step applied here; for an ending law every float route equals
    that fold at the float's binary arguments, rounded once, and so does every float route of a
    float user stream under the same steps, at its binary coefficients and factors."""

    @staticmethod
    def build(cf, steps, cast):
        for kind, v in steps:
            if kind == "tail":
                cf = tail(cf, v)
            elif kind == "scale":
                cf = equivalence_transform(cf, lambda k, c=cast(v): c)
            else:
                cf = equivalence_transform(cf, lambda k: cast(1 + k), cast(v))
        return cf

    @staticmethod
    def plain(spec, steps, cast, cap):
        bare = spec.stream()
        return TestCompositionsAgainstAPlainFold.fold(
            bare.b0, [(t.a, t.b) for t in map(bare.term, range(1, cap + 8))], steps, cast, cap)

    @staticmethod
    def fold(b0, levels, steps, cast, cap):
        # (value or None at a pole, depth): b0 + a_1/(b_1 + ...) to the cap or the level before the first
        # zero, of the bare levels read exactly, each step applied: a tail drops s levels, a scale (c_0, c_1,
        # ...) takes b0 to c_0·b0 and level k to (c_k·c_{k-1}·a_k, c_k·b_k)
        b0, levels = Fraction(b0), [(Fraction(a), Fraction(b)) for a, b in levels]
        for kind, v in steps:
            if kind == "tail":
                b0, levels = levels[v - 1][1], levels[v:]
                continue
            v = Fraction(cast(v))
            c = [1 if kind == "scale" else v] + [v if kind == "scale" else Fraction(1 + k)
                                                  for k in range(1, len(levels) + 1)]
            b0, levels = c[0] * b0, [(c[k] * c[k - 1] * a, c[k] * b) for k, (a, b) in enumerate(levels, 1)]
        depth = min(cap, next((k for k, (a, _) in enumerate(levels) if a == 0), len(levels)))
        bs = [b0] + [b for _, b in levels[:depth]]
        num, den = bs[depth], Fraction(1)  # the assumed-zero tail below level depth
        for k in range(depth, 0, -1):
            num, den = bs[k - 1] * num + levels[k - 1][0] * den, num
        return (None if den == 0 else num / den), depth

    @staticmethod
    def check(routes, want, depth):
        for route in routes:
            if want is None:
                with pytest.raises(PoleError):
                    route()
                continue
            got = route()
            if isinstance(got, EvalReport):
                assert (got.value, got.depth_used) == (want, depth)
            else:
                assert got == want

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.sampled_from(list(Family)), st.sampled_from([Fraction(i, d) for d in (1, 2, 3) for i in range(-9, 10)]),
           st.sampled_from([Fraction(i, d) for d in range(1, 11) for i in range(1 - d, d)]),
           st.sampled_from([()] + [(s,) for s in COMPOSITION_STEPS] +
                           [(s, t) for s in COMPOSITION_STEPS for t in COMPOSITION_STEPS]), st.integers(1, 24))
    def test_every_route_is_the_plain_fold(self, family, n, x, steps, cap):
        n = n if family.takes_n else None
        cf = self.build(FamilySpec(family, x, n).stream(), steps, Fraction)
        want, depth = self.plain(FamilySpec(family, x, n), steps, Fraction, cap)
        self.check([lambda: eval_convergents(cf, EXACT, cap), lambda: _backward_report(cf, cap, EXACT),
                    lambda: eval_backward(cf, cap)], want, depth)
        last = convergents(cf, cap)[-1]
        assert last.k == depth and (last.is_pole if want is None else last.value == want)
        cf = self.build(FamilySpec(family, float(x), n).stream(), steps, float)
        if cf._end is None:  # no law ends it: a float walk is no exact fold
            return
        want, depth = self.plain(FamilySpec(family, Fraction(float(x)), n), steps, float, cf._end)
        self.check([lambda: eval_lentz(cf), lambda: eval_convergents(cf),
                    lambda: _backward_report(cf, engine.DEFAULT_MAX_DEPTH, TIGHT),
                    lambda: eval_backward(cf, engine.DEFAULT_MAX_DEPTH)],
                   None if want is None else float(want), depth)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.sampled_from([1.0, 0.0, 0.1, -0.7]),
           st.lists(st.tuples(st.sampled_from([0.1, 0.7, 0.3, -0.2, 1.3, -0.9, 0.0]),
                              st.sampled_from([0.1, 0.3, 0.9, -0.6, 1.1, 2.5])), min_size=1, max_size=6),
           st.sampled_from([()] + [(s,) for s in COMPOSITION_STEPS] +
                           [(s, t) for s in COMPOSITION_STEPS for t in COMPOSITION_STEPS]), st.integers(1, 3))
    def test_a_float_user_root_answers_its_binary_values(self, b0, terms, steps, past):
        # caps at or past the end: a walk that terminates answers the fold of its exact form, not its own
        left = len(terms)
        for kind, v in steps:
            if kind == "tail" and (left := left - v) < 0:
                return  # the stream ends before the tail's level
        cf = self.build(CFStream.from_terms(b0, terms), steps, float)
        want, depth = self.fold(b0, terms, steps, float, len(terms))
        cap = depth + past
        self.check([lambda: eval_lentz(cf, EXACT, cap), lambda: eval_convergents(cf, EXACT, cap),
                    lambda: _backward_report(cf, cap, EXACT), lambda: eval_backward(cf, cap)],
                   None if want is None else float(want), depth)


class TestTerminationSemantics:
    def test_deeper_requests_repeat_the_terminal_convergents(self):
        cf = symmetric_binomial(3, Fraction(1, 2))
        assert convergents(cf, 20) == convergents(cf, 2)

    def test_terminated_report_implies_converged(self):
        report = eval_convergents(symmetric_binomial(2, 0.4), TIGHT, 50)
        assert report.terminated and report.converged

    def test_termination_level_within_reach(self):
        cf = symmetric_binomial(3, Fraction(1, 2))
        assert cf.termination_level(3) == 3
        assert cf.termination_level(2) is None

    def test_term_request_below_one_rejected(self):
        with pytest.raises(ValueError):
            coth_scaled_cf(1.0).term(0)


class TestEvalReportShape:
    """EvalReport fills its fields in one step and stays a frozen dataclass."""

    def test_fields_defaults_and_dataclass_protocol(self):
        report = EvalReport(0.5, 3, True, False, 1e-16)
        assert [f.name for f in dataclasses.fields(EvalReport)] == [
            "value", "depth_used", "converged", "terminated", "residual", "tiny_substitutions"]
        assert report.tiny_substitutions == 0
        assert report == EvalReport(value=0.5, depth_used=3, converged=True, terminated=False,
                                    residual=1e-16, tiny_substitutions=0)
        assert report != EvalReport(0.5, 3, True, False, 1e-16, 1)
        assert hash(report) == hash(EvalReport(0.5, 3, True, False, 1e-16, 0))
        assert repr(report) == ("EvalReport(value=0.5, depth_used=3, converged=True, terminated=False, "
                                "residual=1e-16, tiny_substitutions=0)")
        assert dataclasses.replace(report, depth_used=4) == EvalReport(0.5, 4, True, False, 1e-16)
        assert dataclasses.asdict(report) == {"value": 0.5, "depth_used": 3, "converged": True,
                                              "terminated": False, "residual": 1e-16,
                                              "tiny_substitutions": 0}
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.value = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del report.depth_used
        with pytest.raises(TypeError):
            EvalReport(0.5, 3, True, False)


class TestNonFiniteLeadingFactor:
    @pytest.mark.parametrize("c0", [math.inf, -math.inf, math.nan, complex(math.inf, 0.0),
                                    complex(0.0, math.nan)], ids=["inf", "-inf", "nan", "inf+0j", "nanj"])
    def test_is_rejected_when_the_transform_is_built(self, c0):
        with pytest.raises(DomainError, match="c0 must be finite"):
            equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 1.0, c0)

    def test_domain_error_is_a_value_error_and_zero_still_raises(self):
        assert issubclass(DomainError, ValueError)
        with pytest.raises(ValueError, match="zero scale factor at level 0"):
            equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 1.0, 0.0)
        finite = equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 1.0, 2.0)
        assert eval_lentz(finite).value == 2 * eval_lentz(lagrange_binomial(3, 0.3)).value


class TestNonFiniteFactor:
    """A factor past c0 is checked as c0 is: an inf or nan one raises a DomainError that names its
    level on every route that reads it, whether the law answers or a walk meets it."""

    BUILDS = {
        "inf": lambda: equivalence_transform(lagrange_binomial(3, 0.3), lambda k: math.inf if k == 2 else 1.0),
        "nan": lambda: equivalence_transform(lagrange_binomial(3, 0.3), lambda k: math.nan if k == 2 else 1.0),
        "complex": lambda: equivalence_transform(symmetric_binomial(0.77, 0.5j),
                                                 lambda k: complex(math.inf, 0.0) if k == 2 else 1.0),
    }
    ROUTES = {
        "lentz": lambda cf, cap: eval_lentz(cf, DEFAULT_TOLERANCE, cap),
        "convergents": lambda cf, cap: eval_convergents(cf, DEFAULT_TOLERANCE, cap),
        "backward-report": lambda cf, cap: _backward_report(cf, cap, DEFAULT_TOLERANCE),
        "backward": eval_backward,
    }

    @pytest.mark.parametrize("build", list(BUILDS))
    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("cap", [3, engine.DEFAULT_MAX_DEPTH], ids=["cap-3", "default-cap"])
    def test_every_route_names_the_level(self, build, route, cap):
        # the law answered DomainError("value must be finite, got inf") and a walk reported nan
        with pytest.raises(DomainError, match="scale factor at level 2 must be finite"):
            self.ROUTES[route](self.BUILDS[build](), cap)

    @pytest.mark.parametrize("build", list(BUILDS))
    def test_single_levels_and_convergents_name_the_level(self, build):
        # term(2) was CFTerm(a=-inf, b=inf) and convergent 4 nan
        cf = self.BUILDS[build]()
        for read in (lambda: cf.term(2), lambda: convergents(cf, 4)):
            with pytest.raises(DomainError, match="scale factor at level 2 must be finite"):
                read()

    @pytest.mark.parametrize("build", list(BUILDS))
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_a_walk_that_stops_before_the_level_reports(self, build, route):
        cf = self.BUILDS[build]()
        report = self.ROUTES[route](cf, 1)
        assert (report if route == "backward" else report.value) == cf.b0 + cf.term(1).a / cf.term(1).b


class TestTransformKeepsTheMode:
    def test_a_leading_factor_of_another_mode_fails_when_built(self):
        # a float c0 on a rational stream made a float stream whose law answer never walked,
        # so only a walk or term(k) met the mixed modes
        with pytest.raises(ModeMismatchError, match="out of rational mode"):
            equivalence_transform(lagrange_binomial(3, Fraction(3, 10)), lambda k: Fraction(1), 3.0)
        with pytest.raises(ModeMismatchError, match="out of float mode"):
            equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 1.0, 1 + 0j)

    @pytest.mark.parametrize("c0, want", [(3, 6.591), (Fraction(1, 3), 0.7323333333333333)])
    def test_an_exact_leading_factor_keeps_a_float_stream(self, c0, want):
        cf = equivalence_transform(lagrange_binomial(3, 0.3), lambda k: Fraction(1), c0)
        assert cf.mode is Mode.FLOAT
        assert eval_lentz(cf).value == eval_convergents(cf).value == want

    @pytest.mark.parametrize("c0", [Fraction(10**5000 + 1, 3), 10**400], ids=["fraction", "int"])
    @pytest.mark.parametrize("cf", [arctan_cf(0.5), symmetric_binomial(0.77, 0.5j)], ids=["float", "complex"])
    def test_an_exact_leading_factor_past_the_float_range_fails_when_built(self, cf, c0):
        # c0·b0 raised an untyped OverflowError
        with pytest.raises(DomainError, match=f"c0 is past the float range, so it has no {cf.mode} value"):
            equivalence_transform(cf, lambda k: 1.0, c0)


class TestOneFactorRule:
    """Every factor meets one check, c0 when the transform is built and c_k when a route reads it, in
    this order: not a scalar and not finite (the input rule), zero, out of the stream's mode, and an exact
    factor with no float value on a float stream.  Each bad factor raises one error, on every route and at
    every cap."""

    FLOAT, RATIONAL = "lagrange-binomial(n=3, x=0.3)", "lagrange-binomial(n=3, x=Fraction(3, 10))"
    # factor -> {mode: (error type, message at c0, message at level 2)}
    CASES = {
        "zero": (0, {m: (ValueError, "zero scale factor at level 0", "zero scale factor at level 2")
                     for m in ("float", "rational")}),
        "inf": (math.inf, {m: (DomainError, "c0 must be finite, got inf",
                               "scale factor at level 2 must be finite, got inf") for m in ("float", "rational")}),
        "nan": (math.nan, {m: (DomainError, "c0 must be finite, got nan",
                               "scale factor at level 2 must be finite, got nan") for m in ("float", "rational")}),
        "bool": (True, {m: (ModeMismatchError, "not a scalar: True", "not a scalar: True")
                        for m in ("float", "rational")}),
        "false": (False, {m: (ModeMismatchError, "not a scalar: False", "not a scalar: False")
                          for m in ("float", "rational")}),
        "decimal": (Decimal(2), {m: (ModeMismatchError, "unsupported scalar type Decimal",
                                     "unsupported scalar type Decimal") for m in ("float", "rational")}),
        "complex": (1j, {"float": (ModeMismatchError, f"c0=1j takes {FLOAT} out of float mode",
                                   f"term 2 of equivalence({FLOAT}) is not in float mode")}),
        "float": (0.5, {"rational": (ModeMismatchError, f"c0=0.5 takes {RATIONAL} out of rational mode",
                                     f"term 2 of equivalence({RATIONAL}) is not in rational mode")}),
        "past-float": (Fraction(10**400), {"float": (
            DomainError, "c0 is past the float range, so it has no float value",
            "scale factor at level 2 is past the float range, so it has no float value")}),
    }
    ROUTES = {
        "term-2": lambda cf: cf.term(2),
        "convergents-5": lambda cf: convergents(cf, 5),
        "forward-cap-3": lambda cf: eval_convergents(cf, DEFAULT_TOLERANCE, 3),
        "forward-default-cap": eval_convergents,
        "backward-4": lambda cf: eval_backward(cf, 4),
        "backward-report-4": lambda cf: _backward_report(cf, 4, DEFAULT_TOLERANCE),
        "lentz-cap-3": lambda cf: eval_lentz(cf, DEFAULT_TOLERANCE, 3),
        "lentz-default-cap": eval_lentz,
    }

    @pytest.mark.parametrize("factor, mode", [(f, m) for f, (_, modes) in CASES.items() for m in modes])
    @pytest.mark.parametrize("position", ["c0", "level-2"])
    def test_a_bad_factor_raises_one_error_on_every_route(self, factor, mode, position):
        # True and Decimal(2) passed a walk or raised TypeError from a product, and 10^400 at level 2
        # raised OverflowError from a walk while the law answered 2.197
        v, modes = self.CASES[factor]
        error, *messages = modes[mode]
        message = messages[position == "level-2"]
        x, one = (0.3, 1.0) if mode == "float" else (Fraction(3, 10), Fraction(1))
        if position == "c0":
            with pytest.raises(error) as raised:
                equivalence_transform(lagrange_binomial(3, x), lambda k: one, v)
            assert (type(raised.value), str(raised.value)) == (error, message)
            return
        cf = equivalence_transform(lagrange_binomial(3, x), lambda k: v if k == 2 else one)
        routes = [name for name in self.ROUTES if mode == "float" or not name.startswith("lentz")]
        for name in routes:
            with pytest.raises(error) as raised:
                self.ROUTES[name](cf)
            assert (name, type(raised.value), str(raised.value)) == (name, error, message)

    @pytest.mark.parametrize("x, factors", [
        (0.3, [2.0, 3, Fraction(1, 3)]),
        (Fraction(3, 10), [Fraction(2), 3, Fraction(1, 3), Fraction(10**400)]),
        (0.3 + 0.1j, [2 + 0j, 2.0, 3, Fraction(1, 3)]),
    ], ids=["float", "rational", "complex"])
    def test_accepted_factors_keep_the_mode(self, x, factors):
        # an own-mode factor, exact ones and a float one on a complex stream; 10^400 has no range to leave
        # in rational mode
        want = eval_convergents(lagrange_binomial(3, x)).value
        for c in factors:
            cf = equivalence_transform(lagrange_binomial(3, x), lambda k: c, c)
            assert cf.mode is mode_of(x) and mode_of(cf.term(2).a) is mode_of(x)
            assert eval_convergents(cf).value == (c * want if cf.mode is Mode.RATIONAL else pytest.approx(c * want, rel=1e-14))

    def test_each_factor_is_read_once_by_a_tail_of_a_transform(self):
        # the exact form read c_k twice, once for b_k and once as the first pair: {2: 2, 3: 1, ...}
        calls = []
        scale = lambda k: calls.append(k) or Fraction(k + 1, 3)
        cf = tail(equivalence_transform(arctan_cf(Fraction(1, 2)), scale), 2)
        calls.clear()
        convergents(cf, 5)
        assert calls == [2, 3, 4, 5, 6, 7]


class TestIntegralLevels:
    """A level is an int, read by ``operator.index`` as a range bound is: a float or Fraction level
    raises Python's own TypeError from every stream, and ``True`` is level 1."""

    STREAMS = {
        "family": lambda: arctan_cf(0.5),
        "rational-family": lambda: arctan_cf(Fraction(1, 2)),
        "user": lambda: CFStream.from_terms(1.0, [(0.1, 0.3), (0.7, 0.9)]),
        "tail": lambda: tail(arctan_cf(0.5), 1),
        "transform": lambda: equivalence_transform(arctan_cf(0.5), lambda k: 2.0),
    }

    @pytest.mark.parametrize("stream", list(STREAMS))
    @pytest.mark.parametrize("level", [1.5, 2.0, Fraction(3, 2)], ids=["1.5", "2.0", "3/2"])
    def test_a_level_that_is_no_int_raises_type_error(self, stream, level):
        # arctan_cf(0.5).term(1.5) was CFTerm(a=0.0625, b=2.0), and tail(arctan_cf(0.5), 1.5) a
        # fraction of b0 = 2.0 that reported 2.1324892228933114, converged
        cf = self.STREAMS[stream]()
        for read in (lambda: cf.term(level), lambda: tail(cf, level)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                read()

    @pytest.mark.parametrize("stream", list(STREAMS))
    def test_true_is_level_one(self, stream):
        cf = self.STREAMS[stream]()
        assert cf.term(True) == cf.term(1)
        assert tail(cf, True).description == tail(cf, 1).description
        assert tail(cf, True).b0 == tail(cf, 1).b0


class TestTerminationLevelBound:
    @pytest.mark.parametrize("build", [
        lambda: lagrange_binomial(3, 0.3),
        lambda: tail(lagrange_binomial(3, 0.3), 2),
        lambda: tail(coth_scaled_cf(0.5), 2),
        lambda: CFStream.from_terms(1.0, [(1.0, 2.0)]),
    ], ids=["law", "tail-of-ending-law", "tail", "user"])
    def test_a_negative_bound_is_rejected_and_zero_answers_none(self, build):
        cf = build()
        with pytest.raises(ValueError, match="within must be >= 0, got -1"):
            cf.termination_level(-1)
        assert cf.termination_level(0) is None


class TestOneWalkFromAnyLevel:
    """A law's levels are read in order by one walk that starts at any level:
    a family's walk, a tail's and a transform's never call the law's per-level
    function, and a float stream's exact value is read off its one exact form,
    ``cf._cleared()``, which every stream reads off its own data: a law's int row,
    else its coefficients' binary values, with no copy of the stream."""

    def test_walks_read_no_single_level_of_the_law(self, monkeypatch):
        # each walk opens the law's one level loop once, and reads the levels term(k) reads
        family = symmetric_binomial(Fraction(5, 2), Fraction(3, 10))
        scaled = lambda: equivalence_transform(family, lambda k: Fraction(k + 1, 2), Fraction(1, 3))
        deep = lambda: convergents(tail(symmetric_binomial(Fraction(5, 2), Fraction(1, 5)), 3), 50)
        want = ([(t.a, t.b) for t in map(family.term, range(1, 21))],
                [(t.a, t.b) for t in map(scaled().term, range(1, 21))], deep())
        opened, walk = [], families._Law._walk

        def counted(self, k=1, through=False):
            opened.append((k, through))
            return walk(self, k, through)

        monkeypatch.setattr(families._Law, "_walk", counted)
        walks = {"law": lambda: list(islice(family._walk(), 20)) == want[0],
                 "transform": lambda: list(islice(scaled()._walk(), 20)) == want[1],
                 "rational tail": lambda: deep() == want[2] and len(want[2]) == 51,  # the head, then the rows
                 "tail": lambda: eval_lentz(tail(arctan_cf(1.0), 2)) == EvalReport(
                     3.659792366325022, 16, True, False, 8.663871173409364e-13)}
        for name, opens in zip(walks, ([(1, False)], [(1, False)], [(3, True)], [(2, True), (3, False)])):
            opened.clear()
            assert walks[name]() and opened == opens, name

    def test_a_rational_tail_reads_no_walk_of_the_law(self, monkeypatch):
        # its kernels read the law's own rows from the tail's start, not a walk of the law made integral
        cf = tail(symmetric_binomial(Fraction(5, 2), Fraction(1, 5)), 3)
        want = convergents(cf, 50)

        def refuse(self, k=1, through=False):
            raise AssertionError(f"the law walked from level {k}")

        monkeypatch.setattr(families._Law, "_walk", refuse)
        assert convergents(cf, 50) == want and len(want) == 51

    def test_the_walk_is_the_one_way_to_a_level(self):
        # term(k) and a tail's head read the walk through the zero: no class keeps a per-level function
        for cls in (CFStream, engine._Tail, engine._Scaled, families._Law):
            assert [name for name in ("_level", "_rule") if hasattr(cls, name)] == [], cls.__name__

    @pytest.mark.parametrize("build, zero, pair", [
        (lambda: lagrange_binomial(3, 0.3), 6, (0.0, 2.0)),
        (lambda: lagrange_binomial(-2, 0.3), 5, (0.0, 5.0)),
        (lambda: lagrange_binomial(3, 0.0), 1, (0.0, 1.0)),  # x = 0: the head level is the zero
        (lambda: uniform_binomial(2, 0.5), 3, (0.0, 6.25)),
        (lambda: symmetric_binomial(2, Fraction(1, 3)), 2, (Fraction(0), Fraction(5))),
        (lambda: tail(lagrange_binomial(3, 0.3), 2), 4, (0.0, 2.0)),
        (lambda: equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 2.0), 6, (0.0, 4.0)),
        (lambda: CFStream.from_terms(1.0, [(0.5, 1.0), (0.0, 3.0), (0.25, 2.0)]), 2, (0.0, 3.0)),
    ], ids=["lagrange", "lagrange-negative-n", "lagrange-x=0", "uniform", "symmetric-rational", "tail", "transform",
         "user"])
    def test_the_zero_level_answers_term_and_tail(self, build, zero, pair):
        # the walk stops before the zero; term(k) and tail(cf, k) still read its pair, and the level after it
        cf = build()
        assert cf.termination_level(40) == zero and len(list(cf._walk())) == zero - 1
        assert cf.term(zero) == CFTerm(*pair) and tail(cf, zero).b0 == pair[1]
        assert tail(cf, zero).term(1) == cf.term(zero + 1) is not None

    def test_a_single_level_past_the_end_reads_no_factor(self):
        # past a finite stream's end a transform's term(k) is None, with no c_k or c_{k-1} read
        def scale(k):
            raise AssertionError(f"factor {k} read")

        cf = equivalence_transform(CFStream.from_terms(1.0, [(0.5, 1.0)]), scale)
        assert [cf.term(k) for k in (2, 3, 10)] == [None] * 3

    def test_a_tail_past_the_end_reads_no_factor(self):
        # a tail's head is read as term(k) is: this called scale(2) before finding no level 3
        def scale(k):
            raise AssertionError(f"factor {k} read")

        with pytest.raises(ValueError, match="^stream ends before level 3$"):
            tail(equivalence_transform(CFStream.from_terms(1.0, [(0.5, 1.0)]), scale), 3)

    @pytest.mark.parametrize("one, other", [(1.0, 0j), (Fraction(1), 0.0)], ids=["float", "rational"])
    def test_a_zero_level_out_of_mode_raises_on_every_route(self, one, other):
        # a level's mode is checked before its zero test, on term(k), a tail's head and every walk
        cf = CFStream.from_terms(one, [(one / 2, one), (other, one)], "u")
        calls = [lambda: cf.term(2), lambda: tail(cf, 2), lambda: cf.termination_level(5),
                 lambda: convergents(cf, 5), lambda: eval_convergents(cf), lambda: eval_backward(cf, 5),
                 lambda: _backward_report(cf, 5, DEFAULT_TOLERANCE), lambda: eval_convergents(tail(cf, 1)),
                 lambda: eval_convergents(equivalence_transform(cf, lambda k: 2 * one))]
        if mode_of(one) is Mode.FLOAT:
            calls.append(lambda: eval_lentz(cf))
        for call in calls:
            with pytest.raises(ModeMismatchError, match=f"^term 2 of u is not in {mode_of(one)} mode$"):
                call()

    def test_a_walk_starts_at_any_level(self):
        for cf in (arctan_cf(0.5), lagrange_binomial(3, Fraction(3, 10)), tail(coth_scaled_cf(0.5), 2),
                   equivalence_transform(uniform_binomial(2.5, 0.3), lambda k: 1.0 + k, 2.0),
                   CFStream.from_terms(1.0, [(0.1, 0.3), (0.7, 0.9), (0.2, 0.6)])):
            for k in range(1, 9):  # past a law's zero the walk goes on, as term(k) does
                levels = [cf.term(j) for j in range(k, k + 6)]
                stop = next((i for i, t in enumerate(levels) if t is None or t.a == 0), 6)
                assert list(islice(cf._walk(k), 6)) == [(t.a, t.b) for t in levels[:stop]]
        assert [list(tail(lagrange_binomial(0.37, 0.0), 2)._walk(k)) for k in (1, 3)] == [[], []]

    def test_every_stream_has_one_exact_form(self):
        # a user stream's is its coefficients' binary values cleared as a rational copy's are; a tail's
        # and a transform's compose over it as over a law's, whose tail reads the law at Fraction(x)
        user, bits = CFStream.from_terms(1.0, [(0.1, 0.3), (0.7, 0.9)], "u"), Fraction  # bits(v): v's binary value
        copy = lambda one: CFStream.from_terms(one, [(bits(0.1), bits(0.3)), (bits(0.7), bits(0.9))])
        exact = lambda cf: _listed(*cf._cleared())
        assert exact(user) == exact(copy(1)) == exact(copy(Fraction(1)))
        assert exact(user)[0] == (1, 1) and len(exact(user)[1]) == 2
        assert not any(hasattr(CFStream, name) for name in ("_exact", "_exact_term"))
        derived = lambda cf, one: tail(equivalence_transform(cf, lambda k: bits(0.3) * one, 2 * one), 1)
        head, rows = exact(derived(user, 1.0))
        assert (head, rows) == exact(derived(copy(Fraction(1)), Fraction(1)))
        assert Fraction(*head) == bits(0.3) * bits(0.3) and len(rows) == 1
        c1, c2 = bits(0.3), bits(0.3)  # the factors of levels 1 and 2
        assert Fraction(*_fold_exact(head, rows)) == c1 * bits(0.3) + c2 * c1 * bits(0.7) / (c2 * bits(0.9))
        law, twin = tail(coth_scaled_cf(0.5), 2)._cleared(), tail(coth_scaled_cf(Fraction(1, 2)), 2)._cleared()
        assert law[0] == twin[0] == (5, 1)  # the law's tail, not a binary copy
        assert list(islice(law[1], 8)) == list(islice(twin[1], 8))
        with pytest.raises(DomainError, match="finite"):  # an inf or nan coefficient has no exact form
            CFStream.from_terms(math.inf, [])._cleared()
        with pytest.raises(DomainError, match="finite"):
            list(tail(CFStream.from_terms(1.0, [(0.1, 0.3), (0.2, math.nan)]), 1)._cleared()[1])

    def test_a_terminated_float_stream_folds_its_binary_coefficients(self):
        # the exact fold of the binary coefficients, rounded once; the plain float fold
        # is 1.115264797507788, which only a walk capped at its end reports
        cf = CFStream.from_terms(1.0, [(0.1, 0.3), (0.7, 0.9), (0.2, 0.6)])
        reports = [eval_lentz(cf), eval_convergents(cf), _backward_report(cf, 10, DEFAULT_TOLERANCE),
                   eval_lentz(equivalence_transform(cf, lambda k: 1.0)), eval_lentz(tail(
                       CFStream.from_terms(0.5, [(1.0, 1.0), *[(t.a, t.b) for t in map(cf.term, (1, 2, 3))]]), 1))]
        assert [r.value for r in reports] == [1.1152647975077883] * 5
        assert all(r.terminated and r.converged and r.residual == 0.0 for r in reports)
        assert eval_backward(cf, 10) == 1.1152647975077883
        assert eval_backward(cf, 3) == 1.0 + 0.1 / (0.3 + 0.7 / (0.9 + 0.2 / 0.6)) == 1.115264797507788


class TestOneFloatRangeRule:
    """An exact number becomes a double in one place.  Past the float range an input or a level raises
    one DomainError, naming what has no double, on every route that reaches it; a value to report is ±inf."""

    ROUTES = {
        "term": lambda cf: [cf.term(k) for k in (1, 2)],
        "convergents": lambda cf: convergents(cf, 5),
        "forward": eval_convergents,
        "forward-cap-3": lambda cf: eval_convergents(cf, DEFAULT_TOLERANCE, 3),
        "lentz": eval_lentz,
        "lentz-cap-3": lambda cf: eval_lentz(cf, DEFAULT_TOLERANCE, 3),
        "backward": lambda cf: eval_backward(cf, 4),
        "backward-report": lambda cf: _backward_report(cf, 4, DEFAULT_TOLERANCE),
        "tail": lambda cf: eval_lentz(tail(cf, 1)),
    }
    # row -> (build, what has no double, in which mode); each raised Python's untyped OverflowError at the parent
    ROWS = {
        "lagrange-n": (lambda: lagrange_binomial(Fraction(10**400), 0.5), "n", "float"),
        "uniform-n": (lambda: uniform_binomial(Fraction(10**400), 0.5), "n", "float"),
        "tan-multiple-n": (lambda: tan_multiple(-Fraction(10**400), 0.5), "n", "float"),
        "lagrange-n-of-complex-x": (lambda: lagrange_binomial(10**400 + Fraction(1, 3), 0.5 + 0.5j), "n", "float"),
        "spec-n": (lambda: FamilySpec(Family.UNIFORM_BINOMIAL, 0.5, 10**400).stream(), "n", "float"),
        "symmetric-level": (lambda: symmetric_binomial(1e200, 0.1), "level 1", "float"),
        "symmetric-level-complex": (lambda: symmetric_binomial(Fraction(10**200, 3), 0.1j), "level 1", "complex"),
        "tan-multiple-level": (lambda: tan_multiple(1e200, 0.1), "level 2", "float"),
        "product-of-factors": (lambda: equivalence_transform(arctan_cf(0.5), lambda k: Fraction(10**200)),
                               "c_2·c_1", "float"),
        "product-of-int-factors": (lambda: equivalence_transform(symmetric_binomial(0.37, 0.5j),
                                                                 lambda k: 10**160), "c_2·c_1", "complex"),
    }

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("row", ROWS)
    def test_an_input_or_a_level_past_the_float_range_raises_one_error(self, row, route):
        build, what, mode = self.ROWS[row]
        with pytest.raises(DomainError, match=f"^{what} is past the float range, so it has no {mode} value$"):
            self.ROUTES[route](build())

    def test_a_law_answers_without_a_double_of_its_levels(self):
        # the exact fold reads ints only: a transform whose levels have no double still has a value
        cf = equivalence_transform(lagrange_binomial(3, 0.3), lambda k: Fraction(10**200))
        assert eval_lentz(cf).value == eval_convergents(cf).value == 2.197
        assert symmetric_binomial(1e200, 0.1).termination_level(40) is None

    @pytest.mark.parametrize("n, x, sign", [(400, 1e300, 1), (401, -1e300, -1)])
    def test_a_value_to_report_past_the_float_range_is_infinite(self, n, x, sign):
        for report in (eval_lentz(lagrange_binomial(n, x)), eval_convergents(lagrange_binomial(n, x))):
            assert report.value == sign * math.inf and not report.converged and not report.terminated


class TestScaledLevelsKeepTheirZeros:
    # a float factor whose product underflowed turned level 2 into (0.0, 0.0): eval_lentz gave 0.5,
    # converged, for arctan 0.5 = 0.4636476090008061; the exact 1/10^400 ended at a PoleError at the cap
    @pytest.mark.parametrize("factor, level", [(1e-200, 2), (Fraction(1, 10**400), 1), (1e-170 + 0j, 2)],
                             ids=["float", "exact", "complex"])
    @pytest.mark.parametrize("route", TestOneFloatRangeRule.ROUTES)
    def test_a_nonzero_level_scaled_to_zero_raises(self, factor, level, route):
        parent = arctan_cf(0.5 + 0j if isinstance(factor, complex) else 0.5)
        cf = equivalence_transform(parent, lambda k: factor)
        with pytest.raises(DomainError, match=f"^level {level} scales a nonzero coefficient to 0 in {cf.mode} mode$"):
            TestOneFloatRangeRule.ROUTES[route](cf)

    def test_a_zero_level_stays_a_zero(self):
        cf = equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 1e-200)
        assert cf.term(6).a == 0.0 != cf.term(6).b  # the law's zero, at level 2n
        assert eval_lentz(cf).value == 2.197


class TestCountsAreIntegral:
    """A depth, a cap and a bound are ints from their least value up to sys.maxsize, read once with
    operator.index on every route; each bad count raises one error."""

    CALLS = {
        "lentz": lambda cf, n: eval_lentz(cf, DEFAULT_TOLERANCE, n),
        "forward": lambda cf, n: eval_convergents(cf, DEFAULT_TOLERANCE, n),
        "backward": eval_backward,
        "backward-report": lambda cf, n: _backward_report(cf, n, DEFAULT_TOLERANCE),
        "convergents": convergents,
        "termination-level": lambda cf, n: cf.termination_level(n),
    }
    STREAMS = {"law": lambda: lagrange_binomial(3, 0.3), "walked": lambda: arctan_cf(0.5),
               "user": lambda: CFStream.from_terms(1.0, [(1.0, 2.0)])}

    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("call", CALLS)
    def test_a_count_that_is_no_int_raises_type_error(self, call, stream):
        # the law answered 2.197 at a cap of 6.5 where a walk raised TypeError, and the backward route
        # and a scanned termination_level raised islice's ValueError
        for bad in (6.5, 3.0, Fraction(3)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                self.CALLS[call](self.STREAMS[stream](), bad)

    @pytest.mark.parametrize("call, name, least", [
        ("lentz", "max_depth", 1), ("forward", "max_depth", 1), ("backward", "depth", 1),
        ("backward-report", "depth", 1), ("convergents", "depth", 0), ("termination-level", "within", 0)])
    def test_a_count_out_of_range_raises_domain_error(self, call, name, least):
        for stream in self.STREAMS.values():
            with pytest.raises(DomainError, match=f"^{name} must be >= {least}, got {least - 1}$"):
                self.CALLS[call](stream(), least - 1)
            with pytest.raises(DomainError, match=f"^{name} must be <= {sys.maxsize}, got {sys.maxsize + 1}$"):
                self.CALLS[call](stream(), sys.maxsize + 1)

    def test_the_largest_count_reaches_no_limit(self):
        user = CFStream.from_terms(1.0, [(1.0, 2.0)])
        assert user.termination_level(sys.maxsize) == 2
        assert eval_backward(user, sys.maxsize) == 1.5
        assert eval_lentz(arctan_cf(0.5), DEFAULT_TOLERANCE, sys.maxsize).converged
        assert lagrange_binomial(3, 0.3).termination_level(True) is None  # a bool is the int it is


class TestLevelsAreCounts:
    """A level, term's k or tail's start, is a count as a depth is: an int from 1 up to sys.maxsize, else
    DomainError; within that range every level of a law has a value or a typed error, never an unbound name."""

    STREAMS = {"law": lambda: arctan_cf(0.5), "ending-law": lambda: lagrange_binomial(3, 0.3),
               "user": lambda: CFStream.from_terms(1.0, [(1.0, 2.0)]),
               "transform": lambda: equivalence_transform(arctan_cf(0.5), lambda k: 2.0)}
    CALLS = {"term": (lambda cf, k: cf.term(k), "level"), "tail": (tail, "start_level"),
             "tail-lentz": (lambda cf, k: eval_lentz(tail(cf, k)), "start_level")}

    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("call", CALLS)
    def test_a_level_out_of_range_raises_domain_error(self, call, stream):
        # term(0) raised ValueError("term levels start at 1, got 0"); past sys.maxsize a level had a value
        call, name = self.CALLS[call]
        for k, bound in ((0, ">= 1"), (-1, ">= 1"), (sys.maxsize + 1, f"<= {sys.maxsize}")):
            with pytest.raises(DomainError, match=f"^{name} must be {bound}, got {k}$"):
                call(self.STREAMS[stream](), k)
        with pytest.raises(ValueError):  # DomainError is still a ValueError
            call(self.STREAMS[stream](), 0)

    def test_the_largest_level_has_a_value(self):
        k = sys.maxsize
        assert arctan_cf(0.5).term(k) == CFTerm(float(Fraction(k - 1) ** 2 / 4), float(2 * k - 1))
        assert tail(arctan_cf(0.5), k).b0 == float(2 * k - 1)
        assert CFStream.from_terms(1.0, [(1.0, 2.0)]).term(k) is None
        with pytest.raises(ValueError, match=f"^stream ends before level {k}$"):
            tail(CFStream.from_terms(1.0, [(1.0, 2.0)]), k)

    @pytest.mark.parametrize("call, got", [
        (lambda: tail(arctan_cf(0.5), sys.maxsize).term(1), sys.maxsize + 1),
        (lambda: tail(tail(arctan_cf(0.5), sys.maxsize), sys.maxsize).term(1), 2 * sys.maxsize),
        (lambda: eval_lentz(tail(arctan_cf(0.5), sys.maxsize)), sys.maxsize + 1),
    ], ids=["tail-term", "tail-of-tail", "tail-lentz"])
    def test_a_tails_level_past_the_largest_count_raises_domain_error(self, call, got):
        # a tail's level k is its root's level s + k, a count: these gave levels 2^63 and 2^64 - 1, and a report
        with pytest.raises(DomainError, match=f"^level must be <= {sys.maxsize}, got {got}$"):
            call()

    def test_a_tails_term_is_its_roots(self):
        # value or error, tail(cf, s).term(k) gives what cf.term(s + k) gives
        def outcome(call):
            try:
                return call()
            except DomainError as exc:
                return str(exc)

        for cf in (arctan_cf(0.5), lagrange_binomial(3, 0.3), CFStream.from_terms(1.0, [(1.0, 2.0)])):
            for s, k in ((1, 1), (3, 4), (sys.maxsize - 2, 1), (sys.maxsize - 1, 1), (sys.maxsize - 1, 2)):
                try:
                    cut = tail(cf, s)
                except ValueError:  # the user stream ends before level s
                    continue
                assert outcome(lambda: cut.term(k)) == outcome(lambda: cf.term(s + k)), (s, k)

    @pytest.mark.parametrize("build, j, alpha", [
        (lambda: symmetric_binomial(2.0**-449, 0.5), sys.maxsize, lambda j: 1 - j * j * 2**898),
        (lambda: tan_multiple(2.0**-449, 0.5), sys.maxsize - 1, lambda j: j * j * 2**898 - 1),
    ], ids=["symmetric", "tan-multiple"])
    def test_a_numerator_past_the_float_range_over_a_power_of_two_rounds_once(self, build, j, alpha):
        # float(α(j)) overflows though α(j)/2^898 ≈ ∓2^126: this raised UnboundLocalError
        want = (_double((alpha(j), 2**898)) * 0.5 * 0.5, float(2 * j + 1))
        assert build().term(sys.maxsize) == CFTerm(*want)
        assert next(build()._walk(sys.maxsize)) == want
        assert tail(build(), sys.maxsize - 1).term(1) == CFTerm(*want)

    @pytest.mark.parametrize("call, name, k", [
        (lambda: uniform_binomial(2.0**-440, 0.5).term(2**73), "level", 2**73),
        (lambda: coth_scaled_cf(0.5).term(2**1100), "level", 2**1100),
        (lambda: tail(coth_scaled_cf(0.5), 2**1100), "start_level", 2**1100),
        (lambda: eval_lentz(tail(coth_scaled_cf(0.5), 2**1100)), "start_level", 2**1100),
        (lambda: uniform_binomial(0.3, 0.5).term(2**100), "level", 2**100),
        (lambda: arctan_cf(0.5).term(10**5000), "level", None),
    ], ids=["uniform-term", "coth-term", "coth-tail", "coth-tail-lentz", "uniform-past-maxsize", "past-str-limit"])
    def test_a_level_past_the_largest_count_raises_domain_error(self, call, name, k):
        # the first four raised UnboundLocalError (float(α(j)) or cast(2j + 1) overflowed), the fifth gave a
        # CFTerm no walk can reach, the last the int-to-text ValueError
        got = "1" + "0" * 5000 if k is None else k
        with pytest.raises(DomainError, match=f"^{name} must be <= {sys.maxsize}, got {got}$"):
            call()
