"""Behaviour sweep: one sha256 per category over canonical outcomes.

Run from a checkout, with no arguments:

    python tests/parity_sweep.py

It imports ``confrac`` from the checkout's own ``src`` and prints one line per
category, ``<category> <sha256> <records>``.  Two checkouts that print the same
lines behave alike on every case the sweep makes.  ``tests/data/parity_sweep.txt``
holds the expected lines, and ``tests/test_parity.py`` checks each of them in
tier-1.  A change that alters behaviour on purpose regenerates that file with

    python tests/parity_sweep.py > tests/data/parity_sweep.txt

and explains the lines that moved.  To find the records that moved, dump a
category's records at both checkouts and diff them:

    PYTHONPATH=src:tests python -c "import parity_sweep; print(*parity_sweep.sweep()['<category>'], sep='\\n')"

Cases: the 8 families (the exponent families at n = 3, -2 and 5/2, and at the
float 0.37, whose exact ratio has a 2^53 denominator, in float and complex mode
only; the CLI gets that ratio as p/q) in float, rational and complex mode, bare,
as tails (from levels 1 and 2), as transforms (by a constant 2, and by 1 + k
with c0 = 3) and as every two-step composition of those four steps, all factors
finite.  The ``user`` category takes the same steps and compositions over a
float ``CFStream.from_terms`` root with binary coefficients (``USER``) and over
its rational twin, the coefficients' exact ratios.  Each case records, in order,
``term(k)`` for k <= 40, ``termination_level``, ``convergents()`` and every route (``eval_lentz``,
``eval_convergents``, the CLI's backward report and ``eval_backward``) at caps
around the law's end (1, 7 and 40 where no law ends it) at the default and at
zero tolerance, and at the default cap.  The ``cli`` category records the exit
code, stdout and stderr of ``eval`` (every method, CSV and JSON), ``table`` and
``compare`` for each bare case, ``verify`` records ``run_checks()`` once, and ``description`` records
the ``description`` of every bare, tail, transform and composition case.  The ``factor`` category records
every route (``term(2)``, ``convergents`` to 5, ``eval_convergents`` and ``eval_lentz`` at cap 3 and at the
default cap, ``eval_backward`` and the backward report at depth 4) of transforms of a law that ends
(``lagrange_binomial(3, x)``) and one that does not (``arctan_cf(x)``), in float and rational mode, with
each of ``FACTORS`` at c0 and at level 2.  The ``range`` category records the float range's edges: every route
(``RANGE_ROUTES``, ``term`` at level 1 and at ``sys.maxsize`` among them) of streams with an exponent, a level, a
product of factors or a value past the float range, a level scaled to 0, or a numerator past the range over a
power of two (``RANGE_STREAMS``), every route with each count of ``COUNTS`` (a level, ``term``'s or ``tail``'s,
is one), tails whose level passes sys.maxsize (``RANGE_TAILS``), the oracles at exact arguments past the float
range, where libm's closed form fails, where a product inside it passes the range and where a term of the series
does (``RANGE_ORACLES``), and the CLI commands ``RANGE_COMMANDS``.  The ``float-parity`` category records the
float and complex reports of ``PARITY_METHODS`` (Lentz, forward, each also at caps 1 and 2, and backward at depth
30, at tol 1e-13) over ``parity_cases()``: no law there ends its fraction (the exponents are not integers), so a
faster walk has to give the same bits, and the ``from_terms`` cases with a zero reach the branches of each step: a
Lentz ``d = 0`` (a pole) and ``c = 0`` (a vanishing numerator), a forward inner pole, a forward rescale (levels near
1e200) and a complex modulus past the float range in the stopping test.  An outcome is the ``repr`` of the result
(bit-exact for a float or complex) or the type and message of the error raised, labelled with the call that made it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":  # as a script, import confrac from the checkout's src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from confrac import (  # noqa: E402
    DEFAULT_TOLERANCE,
    CFStream,
    EXACT,
    Family,
    FamilySpec,
    ToleranceSpec,
    arctan_cf,
    binomial_power,
    convergents,
    coth_scaled_lhs,
    equivalence_transform,
    eval_backward,
    eval_convergents,
    eval_lentz,
    lagrange_binomial,
    oracle_value,
    series_ratio_coth,
    symmetric_binomial,
    symmetric_lhs,
    tail,
    tan_cf,
    tan_multiple,
    tan_multiple_lhs,
    uniform_binomial,
)
from confrac.cli import main  # noqa: E402
from confrac.engine import _backward_report  # noqa: E402
from confrac.oracles import arctan_lhs, tan_lhs  # noqa: E402
from confrac.verify import run_checks  # noqa: E402

#: label -> exponent; a float one (a wide binary ratio) runs in float and complex mode only
EXPONENTS = {"3": Fraction(3), "-2": Fraction(-2), "5/2": Fraction(5, 2), "0.37": 0.37}
ARGS = {"float": "0.3", "rational": "3/10", "complex": "0.3+0.1j"}
STEPS = {
    "tail-1": lambda cf, one: tail(cf, 1),
    "tail-2": lambda cf, one: tail(cf, 2),
    "scale-2": lambda cf, one: equivalence_transform(cf, lambda k: 2 * one),
    "scale-1+k": lambda cf, one: equivalence_transform(cf, lambda k: (1 + k) * one, 3 * one),
}
#: b0 and the levels of the user root; a float one's exact ratios make its rational twin
USER = (1.0, [(0.1, 0.3), (0.7, 0.9), (0.2, 0.6), (1.3, -0.4), (0.3, 2.5)])
#: scale factors that fail in one mode or both, or pass: zero, not finite, no scalar, of another mode, past floats
FACTORS = {"0": 0, "inf": math.inf, "nan": math.nan, "True": True, "Decimal(2)": Decimal(2), "1j": 1j, "0.5": 0.5,
           "10^400": Fraction(10**400)}
FACTOR_ROUTES = {
    "term(2)": lambda cf: cf.term(2),
    "convergents 5": lambda cf: convergents(cf, 5),
    "forward 3": lambda cf: eval_convergents(cf, DEFAULT_TOLERANCE, 3),
    "forward default": eval_convergents,
    "eval_backward 4": lambda cf: eval_backward(cf, 4),
    "backward 4": lambda cf: _backward_report(cf, 4, DEFAULT_TOLERANCE),
    "lentz 3": lambda cf: eval_lentz(cf, DEFAULT_TOLERANCE, 3),
    "lentz default": eval_lentz,
}
RANGE_ROUTES = dict(FACTOR_ROUTES, **{
    "term(1)": lambda cf: cf.term(1),
    "term(maxsize)": lambda cf: cf.term(sys.maxsize),
    "termination_level 40": lambda cf: cf.termination_level(40),
    "tail 1 lentz": lambda cf: eval_lentz(tail(cf, 1)),
})
BIG = Fraction(10**400)
RANGE_STREAMS = {
    "lagrange n=10^400": lambda: lagrange_binomial(BIG, 0.5),
    "uniform n=10^400": lambda: uniform_binomial(BIG, 0.5),
    "tan-multiple n=-10^400": lambda: tan_multiple(-BIG, 0.5),
    "lagrange n=10^400+1/3 complex": lambda: lagrange_binomial(BIG + Fraction(1, 3), 0.5 + 0.5j),
    "symmetric n=1e200": lambda: symmetric_binomial(1e200, 0.1),
    "symmetric n=10^200/3 complex": lambda: symmetric_binomial(Fraction(10**200, 3), 0.1j),
    "tan-multiple n=1e200": lambda: tan_multiple(1e200, 0.1),
    "tan theta=10^5000": lambda: tan_cf(Fraction(10**5000)),
    "tan theta=-10^400 rational": lambda: tan_cf(-(10**400)),
    "arctan c_k=10^200": lambda: equivalence_transform(arctan_cf(0.5), lambda k: Fraction(10**200)),
    "arctan c_k=10^160 int": lambda: equivalence_transform(arctan_cf(0.5), lambda k: 10**160),
    "lagrange(3) c_k=10^200": lambda: equivalence_transform(lagrange_binomial(3, 0.3), lambda k: Fraction(10**200)),
    "arctan c_k=1e-200": lambda: equivalence_transform(arctan_cf(0.5), lambda k: 1e-200),
    "arctan c_k=10^-400": lambda: equivalence_transform(arctan_cf(0.5), lambda k: Fraction(1, 10**400)),
    "lagrange(3) c_k=1e-200": lambda: equivalence_transform(lagrange_binomial(3, 0.3), lambda k: 1e-200),
    "lagrange n=400 x=1e300": lambda: lagrange_binomial(400, 1e300),
    "lagrange n=401 x=-1e300": lambda: lagrange_binomial(401, -1e300),
    "symmetric n=2^-449": lambda: symmetric_binomial(2.0**-449, 0.5),
}
#: counts that are no int, below each least value, at and past islice's sys.maxsize
COUNTS = {"6.5": 6.5, "3.0": 3.0, "Fraction(3)": Fraction(3), "True": True, "-1": -1, "0": 0,
          "maxsize": sys.maxsize, "maxsize+1": sys.maxsize + 1}
COUNT_ROUTES = {
    "lentz": lambda cf, n: eval_lentz(cf, DEFAULT_TOLERANCE, n),
    "forward": lambda cf, n: eval_convergents(cf, DEFAULT_TOLERANCE, n),
    "eval_backward": eval_backward,
    "backward": lambda cf, n: _backward_report(cf, n, DEFAULT_TOLERANCE),
    "convergents": convergents,
    "termination_level": lambda cf, n: cf.termination_level(n),
    "term": lambda cf, n: cf.term(n),
    "tail": tail,
}
#: streams that end, so that a cap of sys.maxsize returns at once
COUNT_STREAMS = {"lagrange(3, 0.3)": lambda: lagrange_binomial(3, 0.3),
                 "user": lambda: CFStream.from_terms(1.0, [(1.0, 2.0)]),
                 "user rational": lambda: CFStream.from_terms(Fraction(1), [(Fraction(1), Fraction(2))])}
#: a tail's level k is its root's level s + k, a count: past sys.maxsize an error, as term's is
RANGE_TAILS = {
    "tail(arctan 0.5, maxsize) term(1)": lambda: tail(arctan_cf(0.5), sys.maxsize).term(1),
    "tail(tail(arctan 0.5, maxsize), maxsize) term(1)": lambda: tail(tail(arctan_cf(0.5), sys.maxsize),
                                                                     sys.maxsize).term(1),
    "tail(arctan 0.5, maxsize) lentz": lambda: eval_lentz(tail(arctan_cf(0.5), sys.maxsize)),
}
RANGE_ORACLES = {
    "arctan spec 10^400": lambda: oracle_value(FamilySpec(Family.ARCTAN, BIG)),
    "arctan_lhs 10^400": lambda: arctan_lhs(BIG),
    "tan_lhs -10^400": lambda: tan_lhs(-BIG),
    "coth_scaled_lhs 10^400/3": lambda: coth_scaled_lhs(BIG / 3),
    "binomial_power 1/2 10^400": lambda: binomial_power(Fraction(1, 2), BIG),
    "binomial_power 10^400+1/2 0.5": lambda: binomial_power(BIG + Fraction(1, 2), 0.5),
    "symmetric_lhs 10^400+1/2 0.5": lambda: symmetric_lhs(BIG + Fraction(1, 2), 0.5),
    "tan_multiple_lhs 10^400 0.5": lambda: tan_multiple_lhs(BIG, 0.5),
    "tan_multiple_lhs 1.5e308 10": lambda: tan_multiple_lhs(1.5e308, 10),
    "coth_scaled_lhs 353.0": lambda: coth_scaled_lhs(353.0),
    "symmetric_lhs 1100.5 0.9": lambda: symmetric_lhs(1100.5, 0.9),
    **{f"coth_scaled_lhs {v!r}": (lambda v=v: coth_scaled_lhs(v))
       for v in (400.0, -400.0, 354.8913564466921, 354.891356446692, 354.5, 20.25, 1e308)},
    "symmetric spec 5/2 1e-20": lambda: oracle_value(FamilySpec(Family.SYMMETRIC_BINOMIAL, 1e-20, Fraction(5, 2))),
    "symmetric spec 4001/2 0.9": lambda: oracle_value(FamilySpec(Family.SYMMETRIC_BINOMIAL, 0.9, Fraction(4001, 2))),
    "lagrange spec 400 10.0": lambda: oracle_value(FamilySpec(Family.LAGRANGE_BINOMIAL, 10.0, 400)),
    "uniform spec 801/2 10.0": lambda: oracle_value(FamilySpec(Family.UNIFORM_BINOMIAL, 10.0, Fraction(801, 2))),
    **{f"series_ratio_coth 0.7 {label}": (lambda n=n: series_ratio_coth(0.7, n)) for label, n in COUNTS.items()
       if n != sys.maxsize},
    "series_ratio_coth 1e100 5": lambda: series_ratio_coth(1e100, 5),
    "series_ratio_coth 1e160 2": lambda: series_ratio_coth(1e160, 2),
}
RANGE_COMMANDS = [
    "compare --family lagrange-binomial --n 400 --arg 10 --mode rational --depth 3",
    "table --family lagrange-binomial --n 400 --arg 10 --mode rational --depth 3",
    f"table --family coth-scaled --arg 1{'0' * 200}/1 --mode rational --depth 1",
    f"eval --family arctan --arg 1{'0' * 400}/1",
    f"eval --family arctan --arg 1{'0' * 400}/3 --mode complex",
    "eval --family symmetric-binomial --n 1e200 --arg 0.5",
    "eval --family lagrange-binomial --n 1e400 --arg 0.5",
    "eval --family uniform-binomial --n 1e400 --arg 0.5 --mode complex",
    "table --family tan-multiple --n 1e300 --arg 0.5 --depth 2",
    *[f"{command} --family {family} --depth 3" for command in ("table", "compare") for family in (
        "coth-scaled --arg 400", "symmetric-binomial --n 5/2 --arg 1e-20", "symmetric-binomial --n 2000.5 --arg 0.9",
        "lagrange-binomial --n 400 --arg 10")],
    "table --family lagrange-binomial --n 400 --arg 10 --depth 800",
    f"eval --family arctan --arg 0.5 --method backward --depth {'9' * 20}",
    "eval --family arctan --arg 0.5 --depth 0",
    "eval --family arctan --arg 0.5 --method backward --depth 0",
    "table --family arctan --arg 0.5 --depth -1",
    "compare --family arctan --arg 0.5 --depth 0",
    "eval --family arctan --arg 0.5 --tol -1",
    "eval --family arctan --arg 0.5 --tol nan",
]
COMPOSITIONS = {
    "bare": [()],
    "tail": [("tail-1",), ("tail-2",)],
    "transform": [("scale-2",), ("scale-1+k",)],
    "composition": [(first, second) for first in STEPS for second in STEPS],
}
PARITY_TOL = ToleranceSpec(rel_tol=1e-13)
PARITY_EXPONENTS = (0.37, -1.6, 2.5)
PARITY_ARGS = {  # three arguments per family, inside each family's domain
    Family.LAGRANGE_BINOMIAL: (0.3, -0.45, 0.8),
    Family.UNIFORM_BINOMIAL: (0.3, -0.45, 0.8),
    Family.SYMMETRIC_BINOMIAL: (0.3, -0.45, 0.8),
    Family.TAN_MULTIPLE: (0.2, -0.35, 0.6),
    Family.ARCTAN: (0.3, -0.8, 1.0),
    Family.TAN: (0.3, -0.8, 1.2),
    Family.LOG_RATIO: (0.3, -0.45, 0.8),
    Family.COTH_SCALED: (0.3, -1.7, 2.5),
}
PARITY_COMPLEX_ARGS = (0.5j, 0.3 + 0.4j, -0.2 + 0.6j)
PARITY_METHODS = {
    "lentz": lambda cf: eval_lentz(cf, PARITY_TOL),
    "convergents": lambda cf: eval_convergents(cf, PARITY_TOL),
    "backward30": lambda cf: _backward_report(cf, 30, PARITY_TOL),
    **{f"{route}{cap}": lambda cf, evaluate=evaluate, cap=cap: evaluate(cf, PARITY_TOL, cap)
       for route, evaluate in (("lentz", eval_lentz), ("convergents", eval_convergents)) for cap in (1, 2)},
}
#: levels 2..29 of the zero cases, after a level that makes the zero
PARITY_LEVELS = [(0.3 * k, 2.0 * k + 1) for k in range(2, 30)]


def outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # an error is an outcome too
        return f"{type(exc).__name__}: {exc}"


def specs():
    """(label, spec text for the CLI, mode, FamilySpec builder) for every bare case."""
    for family in Family:
        for mode, arg in ARGS.items():
            if mode == "complex" and family in (Family.TAN_MULTIPLE, Family.ARCTAN, Family.TAN,
                                                Family.LOG_RATIO):
                arg = "0.3+0j"  # these take a real argument only
            cast = {"float": float, "rational": Fraction, "complex": complex}[mode]
            for n in EXPONENTS if family.takes_n else (None,):
                exponent = n and EXPONENTS[n]
                if isinstance(exponent, float) and mode == "rational":
                    continue
                argv = ["--family", family.value, "--arg", arg, "--mode", mode] + (
                    ["--n", str(Fraction(exponent))] if n else [])
                yield (f"{family.value} n={n} {mode}", argv, mode,
                       lambda family=family, arg=cast(arg), n=exponent: FamilySpec(family, arg, n))


def stream_records(build):
    """Every outcome of one stream: its levels, its end and every route at caps around the end."""
    records = [f"term({k}) {outcome(lambda: build().term(k))}" for k in range(1, 41)]
    records.append(f"termination_level(40) {outcome(lambda: build().termination_level(40))}")
    try:
        end = build()._end
    except Exception:  # the build's error is recorded with every outcome
        end = None
    caps = [1, 7, 40] if end is None else sorted({max(end + d, 1) for d in (-2, -1, 0, 1)})
    for cap in caps:
        records.append(f"convergents {cap} {outcome(lambda: convergents(build(), cap))}")
        for tol in (DEFAULT_TOLERANCE, EXACT):
            records += [f"lentz {cap} {tol.rel_tol} {outcome(lambda: eval_lentz(build(), tol, cap))}",
                        f"forward {cap} {tol.rel_tol} {outcome(lambda: eval_convergents(build(), tol, cap))}",
                        f"backward {cap} {tol.rel_tol} {outcome(lambda: _backward_report(build(), cap, tol))}"]
        records.append(f"eval_backward {cap} {outcome(lambda: eval_backward(build(), cap))}")
    return records + [f"lentz default {outcome(lambda: eval_lentz(build()))}",
                      f"forward default {outcome(lambda: eval_convergents(build()))}"]


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return f"{' '.join(args)} -> {code}\n{out.getvalue()}{err.getvalue()}"


def cli_records(argv, mode):
    methods = ["convergents", "backward"] + ([] if mode == "rational" else ["lentz"])
    records = []
    for fmt in ("json", "csv"):
        records.append(run_cli("eval", *argv, "--format", fmt))
        for method in methods:
            for depth in ("1", "5", "8"):
                records.append(run_cli("eval", *argv, "--method", method, "--depth", depth, "--format", fmt))
    for depth in ("0", "5", "8"):
        records.append(run_cli("table", *argv, "--depth", depth))
    records.append(run_cli("compare", *argv, "--depth", "8"))
    return records


def factor_records():
    """Every route of a transform with one bad factor, at c0 or at level 2, built inside the call."""
    records = []
    for law, family in (("lagrange-binomial(3, x)", lambda x: lagrange_binomial(3, x)), ("arctan(x)", arctan_cf)):
        for x in (0.3, Fraction(3, 10)):
            one = type(x)(1)
            for label, v in FACTORS.items():
                builds = {"c0": lambda: equivalence_transform(family(x), lambda k: one, v),
                          "level-2": lambda: equivalence_transform(family(x), lambda k: v if k == 2 else one)}
                for position, build in builds.items():
                    records += [f"{law} x={x!r} {label} {position} {route} {outcome(lambda: call(build()))}"
                                for route, call in FACTOR_ROUTES.items()]
    return records


def range_records():
    """The float range's edges: every route of each stream, every count on every route, the oracles, the CLI."""
    records = [f"{label} {route} {outcome(lambda: call(build()))}"
               for label, build in RANGE_STREAMS.items() for route, call in RANGE_ROUTES.items()]
    records += [f"{label} {route} {count} {outcome(lambda: call(build(), n))}"
                for label, build in COUNT_STREAMS.items() for route, call in COUNT_ROUTES.items()
                for count, n in COUNTS.items()]
    records += [f"{label} {outcome(call)}" for label, call in (RANGE_TAILS | RANGE_ORACLES).items()]
    return records + [outcome(lambda: run_cli(*command.split())) for command in RANGE_COMMANDS]


def parity_cases():
    """label -> stream builder for every case of the ``float-parity`` category."""
    cases = {}
    for family, args in PARITY_ARGS.items():
        for x in args:
            if family.takes_n:
                for n in PARITY_EXPONENTS:
                    cases[f"{family.value}(n={n}, {x})"] = lambda f=family, n=n, x=x: f.generator(n, x)
            else:
                cases[f"{family.value}({x})"] = lambda f=family, x=x: f.generator(x)
    for n in PARITY_EXPONENTS:
        for z in PARITY_COMPLEX_ARGS:
            cases[f"symmetric-binomial(n={n}, {z})"] = lambda n=n, z=z: symmetric_binomial(n, z)
    cases["from_terms"] = lambda: CFStream.from_terms(
        0.5, [(0.3 * k, 2.0 * k + 1) for k in range(1, 25)])
    cases["tail(symmetric-binomial(n=0.37, 0.8), 3)"] = lambda: tail(symmetric_binomial(0.37, 0.8), 3)
    cases["equivalence(arctan(0.8))"] = lambda: equivalence_transform(
        arctan_cf(0.8), lambda k: 1.0 / (k + 1), c0=2.0)
    cases["equivalence(lagrange-binomial(n=-1.6, 0.3))"] = lambda: equivalence_transform(
        lagrange_binomial(-1.6, 0.3), lambda k: 0.5 * k)
    cases["from_terms b_1=0"] = lambda: CFStream.from_terms(0.5, [(1.0, 0.0)] + PARITY_LEVELS)  # d = 0, q_1 = 0
    cases["from_terms p_1=0"] = lambda: CFStream.from_terms(1.0, [(1.0, -1.0)] + PARITY_LEVELS)  # c = 0
    cases["from_terms q_2=0"] = lambda: CFStream.from_terms(0.5, [(1.0, 2.0), (1.0, 0.0)] + PARITY_LEVELS[1:])
    cases["equivalence(arctan(0.8)) by 1e100"] = lambda: equivalence_transform(arctan_cf(0.8), lambda k: 1e100)
    cases["from_terms |a_1| past the float range"] = lambda: CFStream.from_terms(
        0j, [(1.5e308 + 1.5e308j, 1 + 0j)] + [(complex(a), complex(b)) for a, b in PARITY_LEVELS])
    return cases


def sweep() -> dict[str, list[str]]:
    categories = {name: [] for name in [*COMPOSITIONS, "cli", "verify", "user", "description", "factor", "range"]}
    for label, argv, mode, spec in specs():
        one = {"float": 1.0, "rational": Fraction(1), "complex": complex(1)}[mode]
        for category, compositions in COMPOSITIONS.items():
            for steps in compositions:
                def build(spec=spec, steps=steps, one=one):
                    cf = spec().stream()
                    for step in steps:
                        cf = STEPS[step](cf, one)
                    return cf
                categories[category] += [f"{label} {'/'.join(steps)} {record}"
                                         for record in stream_records(build)]
                categories["description"].append(f"{label} {'/'.join(steps)} {outcome(lambda: build().description)}")
        categories["cli"] += cli_records(argv, mode)
    categories["verify"] = [repr(result) for result in run_checks()]
    for cast in (float, Fraction):
        for steps in [steps for group in COMPOSITIONS.values() for steps in group]:
            def build(cast=cast, steps=steps):
                cf = CFStream.from_terms(cast(USER[0]), [(cast(a), cast(b)) for a, b in USER[1]])
                for step in steps:
                    cf = STEPS[step](cf, cast(1))
                return cf
            categories["user"] += [f"user {cast.__name__} {'/'.join(steps)} {record}"
                                   for record in stream_records(build)]
    categories["factor"] = factor_records()
    categories["range"] = range_records()
    categories["float-parity"] = [f"{case} {method} {outcome(lambda: evaluate(build()))}"
                                  for case, build in parity_cases().items()
                                  for method, evaluate in PARITY_METHODS.items()]
    return categories


def line(name: str, records: list[str]) -> str:
    """A category's line of ``parity_sweep.txt``: ``<category> <sha256> <records>``."""
    digest = hashlib.sha256("".join(record + "\n" for record in records).encode()).hexdigest()
    return f"{name} {digest} {len(records)}"


if __name__ == "__main__":
    for name, records in sweep().items():
        print(line(name, records))
