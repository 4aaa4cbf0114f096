"""Verify-suite tests: the registry runs clean and filters correctly."""

import pytest

from confrac import DomainError, run_checks
from confrac.verify import GROUPS


def test_full_suite_passes():
    results = run_checks()
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(f"{r.group}: {r.name} ({r.detail})" for r in failed)


def test_every_group_contributes_checks():
    results = run_checks()
    seen = {r.group for r in results}
    assert seen == set(GROUPS)


def test_only_filter_restricts_to_one_group():
    results = run_checks(only="n-negation")
    assert results
    assert {r.group for r in results} == {"n-negation"}


def test_unknown_group_rejected():
    with pytest.raises(DomainError):
        run_checks(only="no-such-group")


def test_empty_selection_rejected():
    with pytest.raises(DomainError):
        run_checks(only="termination", mode="float")


def test_mode_filter():
    results = run_checks(only="termination", mode="rational")
    assert results
    assert all(r.mode == "rational" for r in results)
    assert all(r.passed and r.error == 0.0 for r in results)


def test_imaginary_checks_run_in_complex_mode():
    results = run_checks(only="imaginary")
    assert results
    assert all(r.mode == "complex" for r in results)
