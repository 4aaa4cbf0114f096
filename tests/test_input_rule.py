"""The one input rule: every scalar a caller passes is read once, before any other test on it.

A value that is no scalar (a bool, a str, a Decimal) raises ``ModeMismatchError`` and an inf or nan
``DomainError`` naming the argument, at every public entry that takes one: the generators' argument and
exponent, ``FamilySpec``'s, a transform's factors, the oracles' and ``series_ratio_coth``'s.
"""

import inspect
import math
from decimal import Decimal

import pytest

from confrac import (
    DomainError,
    Family,
    FamilySpec,
    ModeMismatchError,
    arctan_cf,
    equivalence_transform,
    eval_lentz,
    series_ratio_coth,
)

GOOD = {"n": 2.5, "x": 0.5, "z": 0.5, "t": 0.5, "theta": 0.5, "v": 0.5}


def _family_entries():
    # every parameter of each family's generator and oracle, called by keyword: each names itself in its error
    entries = {}
    for family in Family:
        for entry in (family.generator, family.oracle):
            params = list(inspect.signature(entry).parameters)
            for name in params:
                entries[f"{entry.__name__}-{name}"] = (
                    lambda v, entry=entry, name=name, params=params: entry(**{p: GOOD[p] for p in params} | {name: v}),
                    name)
    return entries


ENTRIES = _family_entries() | {
    "series_ratio_coth-v": (lambda v: series_ratio_coth(v, 3), "v"),
    "FamilySpec-n": (lambda v: FamilySpec(Family.LAGRANGE_BINOMIAL, 0.5, v), "n"),
    "FamilySpec-arg": (lambda v: FamilySpec(Family.ARCTAN, v), "arg"),
    "equivalence_transform-c0": (lambda v: equivalence_transform(arctan_cf(0.5), lambda k: 2.0, v), "c0"),
    "equivalence_transform-c_k": (
        lambda v: eval_lentz(equivalence_transform(arctan_cf(0.5), lambda k: v if k == 2 else 2.0)),
        "scale factor at level 2"),
}

# bad value -> (error type, message, with {} for the argument's name)
BAD = {
    "nan": (math.nan, DomainError, "{} must be finite, got nan"),
    "inf": (math.inf, DomainError, "{} must be finite, got inf"),
    "bool": (True, ModeMismatchError, "not a scalar: True"),
    "str": ("0.5", ModeMismatchError, "unsupported scalar type str"),
    "decimal": (Decimal("0.5"), ModeMismatchError, "unsupported scalar type Decimal"),
}


def test_the_table_covers_every_entry():
    # 8 generator arguments, 4 exponents, 7 oracles' arguments and 3 exponents, the series, FamilySpec and a transform
    assert len(ENTRIES) == 8 + 4 + 7 + 3 + 1 + 2 + 2


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_bad_scalar_raises_a_typed_error_naming_the_argument(entry, bad):
    # an oracle answered nan, inf or a wrong value at nan and inf (tan_lhs(inf) raised an untyped ValueError)
    # and a value at True; a str raised TypeError or AttributeError there and was read as an exponent; a
    # Decimal was read as an exponent and an oracle's argument; an exponent's inf or nan was "value must be finite"
    call, name = ENTRIES[entry]
    value, error, message = BAD[bad]
    with pytest.raises(error) as raised:
        call(value)
    assert (type(raised.value), str(raised.value)) == (error, message.format(name))


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_good_scalar_passes(entry):
    # the table's good values are in every domain, so each error above is the bad value's alone
    call, _ = ENTRIES[entry]
    call(0.5)


class _Float(float):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize("n, sub", [(2.5, _Float), (3, _Int)], ids=["float", "int"])
@pytest.mark.parametrize("family", [f for f in Family if f.takes_n], ids=lambda f: f.value)
def test_a_subclassed_exponent_reads_as_its_base_type(family, n, sub):
    # a float or int subclass is no float or int by type, so the rule reads it through mode_of
    base, other = family.generator(n, 0.3), family.generator(sub(n), 0.3)
    assert other.description == base.description
    assert list(map(other.term, range(1, 21))) == list(map(base.term, range(1, 21)))
    assert other.termination_level(100) == base.termination_level(100)
    assert eval_lentz(other).value == eval_lentz(base).value


@pytest.mark.parametrize("family", [f for f in Family if f.takes_n], ids=lambda f: f.value)
def test_an_infinite_float_subclass_exponent_raises_naming_n(family):
    with pytest.raises(DomainError, match="^n must be finite, got inf$"):
        family.generator(_Float("inf"), 0.3)
