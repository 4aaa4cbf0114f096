"""Command-line front end.

Subcommands: ``eval`` (single value with a convergence report), ``table``
(one row per convergent with error columns against the family's oracle),
``compare`` (error versus truncation depth), ``verify`` (run the identity
check suite).

Exit codes are a stable scripting contract: 0 on success (converged,
terminated, or all checks passed), 1 on usage or domain errors, 2 on
non-convergence.  Output is deterministic for fixed flags.  Rational-mode
arguments are accepted as ``p/q`` text; decimal text is rejected there
rather than silently approximated.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from dataclasses import fields
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from .engine import (
    DEFAULT_MAX_DEPTH,
    EvalReport,
    _backward_report,
    convergents,
    eval_convergents,
    eval_lentz,
)
from .errors import DomainError, ModeMismatchError, PoleError
from .families import Family, FamilySpec, oracle_value
from .scalars import DEFAULT_TOLERANCE, Mode, Scalar, ToleranceSpec, _double, _ratio, _text

EVAL_HEADER = ",".join(f.name for f in fields(EvalReport))
TABLE_HEADER = "k,p,q,value,abs_err,rel_err"
COMPARE_HEADER = "depth,cf_value,oracle_value,rel_err"


class UsageError(ValueError):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which would collide with
    # the non-convergence code; route everything through UsageError instead.
    def error(self, message: str) -> None:
        raise UsageError(message)


def _parse_exact(text: str, what: str, reject_decimal: bool) -> Fraction:
    if reject_decimal and any(ch in text for ch in ".eE"):
        raise UsageError(
            f"decimal {what} {text!r} rejected in rational mode; write it as p/q"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from None


def _parse_scalar(text: str, mode: Mode, what: str) -> Scalar:
    if mode is Mode.RATIONAL:
        return _parse_exact(text, what, reject_decimal=True)
    try:
        return mode.cast(text)
    except ValueError:
        return mode.cast(_double(_ratio(_parse_exact(text, what, reject_decimal=False)), what, mode))


def _format_scalar(value: Scalar) -> str:
    """Text form that round-trips: exact fractions verbatim, floats with 17
    significant digits, complex as re+imj."""
    if isinstance(value, (int, Fraction)):
        return _text(value, spelled=False)
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return f"{value:.17g}"


def _json_scalar(value: Scalar):
    # JSON has no inf or nan: non-finite floats are text, as complex and Fractions are; ints and bools pass.
    if isinstance(value, int) or isinstance(value, float) and math.isfinite(value):
        return value
    return _format_scalar(value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="confrac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", help="family name, e.g. symmetric-binomial")
    common.add_argument("--n", dest="n", help="exponent for the binomial/tangent-multiple families")
    common.add_argument("--arg", help="the family argument (x, y/z, t, theta or v)")
    common.add_argument("--mode", choices=[m.value for m in Mode], default=None,
                        help="scalar mode (default: float)")
    common.add_argument("--method", choices=["convergents", "lentz", "backward"], default=None,
                        help="evaluator (default: lentz for float/complex, convergents for rational)")
    common.add_argument("--depth", type=int, default=None,
                        help="truncation depth (table/compare/backward) or iteration cap (eval)")
    common.add_argument("--tol", type=float, default=None,
                        help="relative tolerance (default 1e-12)")
    common.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None,
                        help="output format (default: json for eval, csv for table/compare)")
    common.add_argument("--output", default=None, help="write output to this path instead of stdout")

    sub.add_parser("eval", parents=[common], help="evaluate one family to a single value")
    sub.add_parser("table", parents=[common], help="emit a convergent table with error columns")
    sub.add_parser("compare", parents=[common], help="emit error versus truncation depth")

    ver = sub.add_parser("verify", help="run the identity check suite")
    ver.add_argument("--only", default=None, help="restrict to one check group")
    ver.add_argument("--mode", choices=[m.value for m in Mode], default=None,
                     help="restrict to checks running in this scalar mode")
    ver.add_argument("--output", default=None, help="write the report to this path")
    return parser


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """The command's record: ``spec``, ``method``, ``depth``, ``tol`` and ``fmt``."""
    mode = Mode(args.mode) if args.mode else Mode.FLOAT

    for flag in ("family", "arg"):
        if getattr(args, flag) is None:
            raise UsageError(f"{args.command} requires --{flag}")
    family = Family.from_name(args.family)
    n = None if args.n is None else _parse_exact(args.n, "--n",
                                                 reject_decimal=mode is Mode.RATIONAL)
    arg = _parse_scalar(args.arg, mode, "--arg")
    spec = FamilySpec(family=family, arg=arg, n=n)

    method = args.method or ("convergents" if mode is Mode.RATIONAL else "lentz")
    if method == "lentz" and mode is Mode.RATIONAL:
        raise UsageError("--method lentz cannot run in rational mode; use convergents or backward")
    if method == "backward" and args.depth is None:
        raise UsageError("--method backward requires --depth")
    if args.command in ("table", "compare") and args.depth is None:
        raise UsageError(f"{args.command} requires --depth")
    if args.command == "compare" and args.depth < 1:  # the library checks every other depth
        raise UsageError("--depth must be >= 1 for compare")
    tol = DEFAULT_TOLERANCE if args.tol is None else ToleranceSpec(rel_tol=args.tol)

    fmt = args.fmt or ("json" if args.command == "eval" else "csv")
    return argparse.Namespace(spec=spec, method=method, depth=args.depth, tol=tol, fmt=fmt)


def run_eval(cfg: argparse.Namespace, out: TextIO) -> int:
    stream = cfg.spec.stream()
    if cfg.method == "backward":
        report = _backward_report(stream, cfg.depth, cfg.tol)
    else:
        max_depth = cfg.depth if cfg.depth is not None else DEFAULT_MAX_DEPTH
        evaluate = eval_convergents if cfg.method == "convergents" else eval_lentz
        report = evaluate(stream, cfg.tol, max_depth)
    row = {name: _json_scalar(getattr(report, name)) for name in EVAL_HEADER.split(",")}
    _emit_rows(cfg, out, EVAL_HEADER, [row], row)
    return 0 if report.converged or report.terminated else 2


def _error_columns(value: Optional[Scalar], oracle: Optional[Scalar]):
    if value is None or oracle is None:
        return None, None
    if isinstance(value, Fraction) and isinstance(oracle, float):  # a mixed difference needs the value's double
        value = _double(_ratio(value), "the value")
    abs_err = abs(value - oracle)
    rel_err = abs_err / abs(oracle) if oracle != 0 else None
    return _number_cell(abs_err, "abs_err"), None if rel_err is None else _number_cell(rel_err, "rel_err")


def _rows_document(cfg: argparse.Namespace, rows: list[dict]) -> dict:
    spec = cfg.spec
    params = {
        "n": None if spec.n is None else str(spec.n),
        "arg": _json_scalar(spec.arg),
        "mode": spec.mode.value,
        "depth": cfg.depth,
    }
    return {"family": spec.family.value, "params": params, "rows": rows}


def run_rows(cfg: argparse.Namespace, out: TextIO, header: str) -> int:
    """``table`` (``TABLE_HEADER``): a row per convergent, with empty error
    cells where no oracle applies.  ``compare``: a row per depth 1..depth,
    where no oracle is a DomainError (exit 1)."""
    spec, table = cfg.spec, header == TABLE_HEADER
    try:
        oracle = oracle_value(spec)
    except DomainError:
        if not table:
            raise
        oracle = None
    convs = convergents(spec.stream(), cfg.depth)
    rows = []
    for depth in range(len(convs)) if table else range(1, cfg.depth + 1):
        c = convs[min(depth, len(convs) - 1)]
        value = None if c.is_pole else c.value
        abs_err, rel_err = _error_columns(value, oracle)
        cell = None if value is None else _number_cell(value, "the value")
        rows.append({"k": c.k, "p": _format_scalar(c.p), "q": _format_scalar(c.q), "value": cell,
                     "abs_err": abs_err, "rel_err": rel_err} if table else
                    {"depth": depth, "cf_value": cell, "oracle_value": _number_cell(oracle, "the oracle value"),
                     "rel_err": rel_err})
    _emit_rows(cfg, out, header, rows, _rows_document(cfg, rows))
    return 0


def _number_cell(value: Scalar, what: str):
    # Table cells are decimal (floats); exact values are shown as their
    # nearest double, full fractions stay in the p/q columns.
    return _json_scalar(value if isinstance(value, (float, complex)) else _double(_ratio(value), what))


def _emit_rows(cfg: argparse.Namespace, out: TextIO, header: str, rows: list[dict],
               document: dict) -> None:
    """The one writer of command output: JSON writes ``document``, CSV the
    header and one line per row."""
    if cfg.fmt == "json":
        import json  # only a JSON document needs it: csv and verify output never load it
        out.write(json.dumps(document, indent=2, allow_nan=False) + "\n")
        return
    out.write(header + "\n")
    for row in rows:
        cells = ("" if v is None else str(v).lower() if isinstance(v, bool)
                 else _format_scalar(v) if isinstance(v, float) else str(v)
                 for v in (row[col] for col in header.split(",")))
        out.write(",".join(cells) + "\n")


def run_verify(args: argparse.Namespace, out: TextIO) -> int:
    from .verify import run_checks
    results = run_checks(only=args.only, mode=args.mode)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.group}: {r.name} [{r.mode}] error={r.error:.2e} bound={r.bound:.2e}"
        if r.detail:
            line += f"  ({r.detail})"
        out.write(line + "\n")
    failed = sum(not r.passed for r in results)
    out.write(f"{len(results)} checks, {failed} failed\n")
    return 0 if failed == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = io.StringIO()
        code = _dispatch(args, out)  # a command that raises writes nothing
        if not args.output:
            sys.stdout.write(out.getvalue())
            return code
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(out.getvalue())
        return code
    except (UsageError, DomainError, ModeMismatchError, PoleError, ZeroDivisionError,
            OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace, out: TextIO) -> int:
    if args.command == "verify":
        return run_verify(args, out)
    cfg = build_config(args)
    if args.command == "eval":
        return run_eval(cfg, out)
    return run_rows(cfg, out, TABLE_HEADER if args.command == "table" else COMPARE_HEADER)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
