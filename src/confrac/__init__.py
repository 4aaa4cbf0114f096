"""Continued fractions for binomial powers and their elementary-function
limits.

The package evaluates one family of generalized continued fractions for
(1+x)^n -- in three equivalent shapes -- together with the limiting forms
that express tan(nφ), arctan, tan, log((1+z)/(1-z)) and v·coth v.  Integer
exponents make the binomial fractions terminate, and the engine treats the
vanishing partial numerator as an exact event in every arithmetic mode:
IEEE doubles, exact rationals, or complex doubles.

See :mod:`confrac.families` for the fraction generators,
:mod:`confrac.engine` for evaluation, :mod:`confrac.oracles` for the
independent reference values and :mod:`confrac.verify` for the identity
check suite behind ``confrac verify``.
"""

from .engine import (
    DEFAULT_MAX_DEPTH,
    CFStream,
    CFTerm,
    Convergent,
    EvalReport,
    convergents,
    equivalence_transform,
    eval_backward,
    eval_convergents,
    eval_lentz,
    tail,
)
from .errors import DomainError, ModeMismatchError, PoleError
from .families import (
    Family,
    FamilySpec,
    arctan_cf,
    coth_scaled_cf,
    lagrange_binomial,
    log_ratio_cf,
    oracle_value,
    symmetric_binomial,
    tan_cf,
    tan_multiple,
    uniform_binomial,
)
from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    Mode,
    Scalar,
    ToleranceSpec,
    as_fraction,
    mode_of,
    nearly_equal,
)

__version__ = "0.1.0"


#: Names served from a submodule that loads on first use, as is
#: ``confrac.oracles`` itself: eval imports neither submodule.
_LAZY = {
    **dict.fromkeys(("OracleResult", "binomial_power", "coth_scaled_lhs", "log_ratio_lhs",
                     "series_ratio_coth", "symmetric_lhs", "tan_multiple_lhs"), "oracles"),
    "CheckResult": "verify",
    "run_checks": "verify",
}


def __getattr__(name: str):
    if name == "oracles" or name in _LAZY:
        from importlib import import_module  # not ``from . import``: that would ask this hook for the submodule
        module = import_module(f"{__name__}.{_LAZY.get(name, name)}")
        return module if name == "oracles" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CFStream",
    "CFTerm",
    "CheckResult",
    "Convergent",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_TOLERANCE",
    "DomainError",
    "EXACT",
    "EvalReport",
    "Family",
    "FamilySpec",
    "Mode",
    "ModeMismatchError",
    "OracleResult",
    "PoleError",
    "Scalar",
    "ToleranceSpec",
    "arctan_cf",
    "as_fraction",
    "binomial_power",
    "convergents",
    "coth_scaled_cf",
    "coth_scaled_lhs",
    "equivalence_transform",
    "eval_backward",
    "eval_convergents",
    "eval_lentz",
    "lagrange_binomial",
    "log_ratio_cf",
    "log_ratio_lhs",
    "mode_of",
    "nearly_equal",
    "oracle_value",
    "run_checks",
    "series_ratio_coth",
    "symmetric_binomial",
    "symmetric_lhs",
    "tail",
    "tan_cf",
    "tan_multiple",
    "tan_multiple_lhs",
    "uniform_binomial",
]
