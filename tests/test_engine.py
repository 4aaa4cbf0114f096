"""Engine tests: forward recurrence, Lentz, backward folding, tails,
equivalence transforms, termination semantics."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from confrac import (
    EXACT,
    CFStream,
    CFTerm,
    Convergent,
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
    symmetric_binomial,
    tail,
    tan_cf,
)

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

    def test_termination_level_scan(self):
        assert symmetric_binomial(3, Fraction(1, 2)).termination_level(30) == 3
        assert coth_scaled_cf(1.0).termination_level(30) is None

    def test_convergent_pole_flag(self):
        c = Convergent(p=1.0, q=0.0, k=3)
        assert c.is_pole
        with pytest.raises(PoleError):
            c.value


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

    def test_zero_leading_term_counts_tiny_substitution(self):
        report = eval_lentz(arctan_cf(1.0), TIGHT, 200)
        assert report.tiny_substitutions >= 1
        assert abs(report.value - math.pi / 4) < 1e-12

    def test_termination_at_level_one_reports_the_leading_term(self):
        # arctan 0: a_1 = 0, so the value is b0 = 0.0, not the tiny stand-in
        report = eval_lentz(arctan_cf(0.0), TIGHT, 50)
        assert report.value == 0.0 and type(report.value) is float
        assert report.depth_used == 0 and report.terminated
        assert report.tiny_substitutions == 1

    def test_overflow_to_infinity_is_not_convergence(self):
        # the first step divides t by the tiny stand-in and overflows
        report = eval_lentz(arctan_cf(1e9), TIGHT, 50)
        assert not report.converged and not report.terminated

    def test_rational_mode_rejected(self):
        with pytest.raises(ModeMismatchError):
            eval_lentz(coth_scaled_cf(Fraction(1, 2)), TIGHT, 50)

    def test_agrees_with_forward_recurrence(self):
        for stream in (coth_scaled_cf(0.8), arctan_cf(0.9), tan_cf(0.7)):
            tol = ToleranceSpec(rel_tol=1e-12)
            a = eval_lentz(stream, tol, 500)
            b = eval_convergents(stream, tol, 500)
            assert a.converged and b.converged
            assert abs(a.value - b.value) <= 10 * tol.rel_tol * max(abs(a.value), abs(b.value))


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

    def test_zero_fold_denominator_raises(self):
        cf = CFStream.from_terms(Fraction(1), [(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))])
        with pytest.raises(PoleError):
            eval_backward(cf, 2)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            eval_backward(coth_scaled_cf(1.0), 0)


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

    def test_zero_scale_rejected(self):
        cf = coth_scaled_cf(Fraction(1, 2))
        with pytest.raises(ValueError):
            convergents(equivalence_transform(cf, lambda k: Fraction(0)), 3)
        with pytest.raises(ValueError):
            equivalence_transform(cf, lambda k: Fraction(1), c0=0)

    def test_leading_factor_scales_value(self):
        cf = coth_scaled_cf(Fraction(1, 2))
        c0 = Fraction(1, 3)
        out = equivalence_transform(cf, lambda k: Fraction(1), c0=c0)
        assert convergents(out, 6)[-1].value == c0 * convergents(cf, 6)[-1].value


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
