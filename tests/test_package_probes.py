"""Library probes that CI also runs against the installed package.

Tier-1 reads ``confrac`` from ``src`` (pyproject's pytest ``pythonpath``).  After
``pip install .``, CI runs this module again with that setting emptied, so every
import comes from site-packages:

    python -m pytest -q -o pythonpath= tests/test_package_probes.py

Each test is one probe that stood as a ``python -c`` line in the workflow, its
assertions unchanged.
"""

import gc
import math
import os
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import confrac
from confrac import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOLERANCE,
    CFStream,
    DomainError,
    ModeMismatchError,
    arctan_cf,
    convergents,
    equivalence_transform,
    eval_lentz,
    lagrange_binomial,
    series_ratio_coth,
    tail,
    tan_cf,
    uniform_binomial,
)
from confrac.oracles import tan_lhs

#: A three-level user stream whose exact fold, rounded once, is 1.1152647975077883.
TERMS = [(0.1, 0.3), (0.7, 0.9), (0.2, 0.6)]


def test_an_exact_argument_past_the_float_range_raises():
    big = Fraction(10**5000 + 1, 3)
    for call, *args in ((tan_cf, big), (equivalence_transform, arctan_cf(0.5), lambda k: 1.0, big)):
        with pytest.raises(DomainError, match="past the float range"):
            call(*args)


def test_a_float_exponent_is_described_by_its_ratio():
    assert lagrange_binomial(2.5, 0.3).description == "lagrange-binomial(n=5/2, x=0.3)"


def test_an_exponent_past_the_digit_limit_labels_its_tail_and_transforms():
    cf = lagrange_binomial(10**5000, Fraction(1, 2))
    assert tail(cf, 1).description.startswith("tail(lagrange-binomial(n=1000")
    equivalence_transform(cf, lambda k: 2)


def test_a_terminated_stream_and_an_ended_tail_report_their_exact_values():
    assert eval_lentz(CFStream.from_terms(1.0, TERMS)).value == 1.1152647975077883
    assert eval_lentz(tail(lagrange_binomial(400, 0.3), 1)).value == 3.175706246730358e-44


def test_a_transform_keeps_a_terminated_value():
    u = CFStream.from_terms(1.0, TERMS)
    assert eval_lentz(equivalence_transform(u, lambda k: 0.3)).value == eval_lentz(u).value == 1.1152647975077883


def test_a_tail_of_a_transform_ends_and_a_transform_is_freed_without_the_collector():
    t = tail(equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 2.0), 1)
    assert eval_lentz(t).value == convergents(t, 10)[-1].value == 1.5037593984962405
    gc.disable()
    try:
        w = weakref.ref(equivalence_transform(lagrange_binomial(2.5, 0.3), lambda k: 2.0))
        assert w() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("cap", [3, DEFAULT_MAX_DEPTH])
def test_an_infinite_factor_names_its_level(cap):
    cf = equivalence_transform(lagrange_binomial(3, 0.3), lambda k: math.inf if k == 2 else 1.0)
    with pytest.raises(DomainError, match="level 2"):
        eval_lentz(cf, DEFAULT_TOLERANCE, cap)


@pytest.mark.parametrize("cap", [3, DEFAULT_MAX_DEPTH])
def test_a_complex_factor_names_its_term(cap):
    cf = equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 1j if k == 3 else 1.0)
    message = re.escape("term 3 of equivalence(lagrange-binomial(n=3, x=0.3)) is not in float mode")
    with pytest.raises(ModeMismatchError, match=message):
        eval_lentz(cf, DEFAULT_TOLERANCE, cap)


def test_a_uniform_tail_reports_its_exact_value_in_float_and_rational_mode():
    assert eval_lentz(tail(uniform_binomial(3, 0.3), 1)).value == float(
        convergents(tail(uniform_binomial(3, Fraction(0.3)), 1), 10)[-1].value) == 0.7518796992481203


def test_a_level_past_sys_maxsize_and_a_series_past_the_float_range_raise():
    for call, *args in ((tail, tail(arctan_cf(0.5), sys.maxsize), sys.maxsize), (series_ratio_coth, 1e100, 5)):
        with pytest.raises(DomainError):
            call(*args)
    with pytest.raises(DomainError, match="v must be finite"):
        series_ratio_coth(float("nan"), 3)


def test_the_tangent_oracle_at_inf_raises():
    with pytest.raises(DomainError):
        tan_lhs(float("inf"))


def test_the_series_ratio_is_correctly_rounded():
    assert series_ratio_coth(0.7, 100).value == 1.1582351450618407


def test_importing_the_cli_loads_neither_oracles_nor_verify():
    # a fresh interpreter, reading the copy of confrac that this one reads: this one has both loaded
    env = dict(os.environ, PYTHONPATH=str(Path(confrac.__file__).parents[1]))
    child = "import sys, confrac.cli; assert not {'confrac.oracles', 'confrac.verify'} & set(sys.modules)"
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
