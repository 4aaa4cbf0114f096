"""The traced run: per-layer metrics for every layer the ROADMAP names.

Each workload runs untraced and then traced on the same seeded ops; the
ratio of their throughputs is ``trace.overhead_ratio.<workload>``.  In the
traced in-process ops every op is a tree of spans::

    op
    ├── families.build            generator call
    ├── engine.<evaluator>        evaluator call on a timing wrapper stream
    │   └── families.term ×levels first (cold) pull of each level
    └── engine.term_cached        the same levels pulled again (cache hits)

An evaluator's self time is its span minus its ``families.term`` children,
minus the wrapper's own cost per pull (``trace.wrapper_us_per_level``,
calibrated in the same run).  Traced CLI ops run the child with
``-X importtime``.  Layers the workloads do not call directly (scalars,
oracles, verify groups, the in-process CLI) are timed by direct probes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import workloads as wl
from confrac import FamilySpec, arctan_cf, convergents, nearly_equal, oracle_value, run_checks
from confrac.cli import build_config, build_parser, main as cli_main
from confrac.scalars import EXACT, Mode, coerce, mode_of
from confrac.verify import GROUPS
from harness import BIG_INTEGER, CHILD_ENV, CHILD_TIMEOUT_S, COUNT_OPS, INTERPRETED, OUT, ROOT, \
    measure, run_cli, run_inprocess, warm_up
from spans import Tracer

WORKLOADS = ("float-eval", "exact-deep", "cli")
ENGINE_SPAN = {
    "lentz": "engine.lentz",
    "convergents": "engine.recurrence_float",
    "recurrence": "engine.recurrence_exact",
    "backward": "engine.backward_exact",
    "terminating": "engine.terminating_exact",
}
#: Modules whose own import time ``-X importtime`` reports for a CLI child.
IMPORT_MODULES = (
    "confrac", "confrac.errors", "confrac.scalars", "confrac.engine", "confrac.families",
    "confrac.oracles", "confrac.verify", "fractions", "decimal", "dataclasses", "inspect",
    "argparse", "json",
)
CLI_COMMANDS = ("eval", "table", "compare", "verify")
TIME_UNITS = ("ns", "us", "ms")
PROBE_REPEATS = 5
#: Levels pulled through the timing wrapper, and how often, to calibrate it.
WRAPPER_LEVELS = 40
WRAPPER_REPEATS = 200


def _median_ns(loop, empty) -> float:
    """Per-item ns of ``loop()`` beyond ``empty()``, median over repeats;
    both return the item count."""
    samples = []
    for _ in range(2 * PROBE_REPEATS):
        t0 = perf_counter()
        n = empty()
        t1 = perf_counter()
        loop()
        t2 = perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / n * 1e9)
    return statistics.median(samples)


def parse_importtime(stderr: str) -> dict[str, int]:
    """Module -> self µs from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            head, _cumulative, name = line.split("|")
            out[name.strip()] = int(head.split(":")[1])
    return out


class TracedRun:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = Tracer()
        self.op_workload: dict[int, str] = {}
        self.op_labels: dict[int, str] = {}
        self.imports: list[dict[str, int]] = []
        self.attempted = 0
        self.failed = 0
        self.details: dict = {}

    def _new_op(self, op) -> None:
        tracer = self.tracer
        tracer.op_id += 1
        self.op_workload[tracer.op_id] = op.workload
        self.op_labels[tracer.op_id] = op.label

    def execute_engine(self, op):
        self._new_op(op)
        tracer = self.tracer
        root = tracer.open("op")
        try:
            span = tracer.open("families.build")
            stream = op.case.build()
            tracer.close(span)
            name = ENGINE_SPAN[op.evaluator] + (f".{op.bucket}" if op.bucket else "")
            span = tracer.open(name)
            result = op.evaluate(tracer.timed_stream(stream))
            tracer.close(span)
            pulls = len(tracer.code) - span - 1
            span = tracer.open("engine.term_cached")
            for k in range(1, pulls + 1):
                stream.term(k)
            tracer.close(span)
        except Exception as exc:  # counted as a failed op, like the untraced run
            tracer.unwind(root)
            return tracer.end[root] - tracer.start[root], None, f"raised {exc!r}"
        return tracer.close(root), result, None

    def execute_cli(self, op):
        self._new_op(op)
        t0 = perf_counter()
        latency, proc, problem = run_cli(op, ("-X", "importtime"))
        self.tracer.add("cli.process", t0, t0 + latency)
        if proc is not None:
            self.imports.append(parse_importtime(proc.stderr))
        return latency, proc, problem

    def workload_pair(self, workload: str, budget: float) -> dict:
        """Untraced then traced run of the same ops: the traced stats and
        the traced-to-untraced throughput ratio."""
        make_blocks, reference = wl.WORKLOADS[workload]
        is_cli = workload == "cli"
        plain = run_cli if is_cli else run_inprocess
        traced = self.execute_cli if is_cli else self.execute_engine
        warm_up(make_blocks(self.seed + 1_000_003), plain, 0.3)
        untraced = measure(make_blocks(self.seed), budget, plain, wl.REL_TOL, reference)
        min_blocks = -(-COUNT_OPS // wl.FLOAT_BLOCK) if workload == "float-eval" else 1
        stats = measure(make_blocks(self.seed), budget, traced, wl.REL_TOL, reference, min_blocks)
        for s in (untraced, stats):
            self.attempted += s.attempted
            self.failed += s.failed
        self.details[workload] = {"untraced": untraced.summary(), "traced": stats.summary()}
        return {"ratio": stats.ops_per_s() / untraced.ops_per_s(), "stats": stats}


# --------------------------------------------------------------------------
# probes


def wrapper_us_per_level() -> float:
    """Cost the timing wrapper adds to one term pull: pulls through a fresh
    wrapper over a fully cached stream, minus the cached pulls themselves."""
    levels = WRAPPER_LEVELS
    inner = arctan_cf(1.0)
    for k in range(1, levels + 1):
        inner.term(k)
    scratch = Tracer()
    samples = []
    for _ in range(WRAPPER_REPEATS):
        wrapper = scratch.timed_stream(inner)
        t0 = perf_counter()
        for k in range(1, levels + 1):
            inner.term(k)
        t1 = perf_counter()
        for k in range(1, levels + 1):
            wrapper.term(k)
        t2 = perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / levels * 1e6)
    return statistics.median(samples)


def _count(items):
    def empty():
        for _ in items:
            pass
        return len(items)
    return empty


def scalar_probes(seed: int) -> dict:
    """The scalar helpers on the values the workloads feed them: term values
    and reference pairs of float-eval ops, the exact exponent coefficients
    the generators coerce, and successive deep exact convergents."""
    values, fracs, pairs = [], [], []
    for op in next(wl.float_eval_blocks(seed)):
        stream = op.case.build()
        for k in (1, 2, 3):
            term = stream.term(k)
            values += [term.a, term.b]
        if op.case.mode == "float":
            pairs.append((op.case.ref, op.case.ref * (1 + 1e-14)))
        if len(op.case.args) == 2:
            n = Fraction(op.case.args[0])
            fracs += [n - 1, n * n - 4]
    deep = []
    for op in next(wl.exact_deep_blocks(seed)):
        if op.evaluator == "recurrence":
            convs = convergents(op.case.build(), 400)
            deep.append((convs[-2].value, convs[-1].value))
    tol, float_mode = wl.TOL, Mode.FLOAT

    def mode_loop():
        for v in values:
            mode_of(v)

    def coerce_loop():
        for f in fracs:
            coerce(f, float_mode)

    def float_loop():
        for a, b in pairs:
            nearly_equal(a, b, tol)

    def exact_loop():
        for a, b in deep:
            nearly_equal(a, b, EXACT)

    return {
        "scalars.mode_of_ns": (_median_ns(mode_loop, _count(values)), "ns"),
        "scalars.coerce_ns": (_median_ns(coerce_loop, _count(fracs)), "ns"),
        "scalars.nearly_equal_float_ns": (_median_ns(float_loop, _count(pairs)), "ns"),
        "scalars.nearly_equal_exact_us": (_median_ns(exact_loop, _count(deep)) / 1e3, "us"),
    }


def oracle_probe(seed: int) -> dict:
    specs = []
    for op in next(wl.float_eval_blocks(seed)):
        case = op.case
        if case.mode == "float":
            n = case.args[0] if len(case.args) == 2 else None
            specs.append(FamilySpec(case.family, case.args[-1], n))

    def loop():
        for spec in specs:
            oracle_value(spec)

    return {"oracles.value_us": (_median_ns(loop, _count(specs)) / 1e3, "us")}


def verify_probe(run: TracedRun) -> dict:
    out = {}
    for group in GROUPS:
        samples = []
        for _ in range(3):
            t0 = perf_counter()
            results = run_checks(only=group)
            samples.append((perf_counter() - t0) * 1e3)
            run.attempted += 1
            run.failed += not all(r.passed for r in results)
        out[f"verify.group_ms.{group}"] = (statistics.median(samples), "ms")
    return out


def cli_probes(run: TracedRun) -> dict:
    """In-process ``cli.main`` per subcommand (output to a file in the
    checkout), argument parsing plus config building, and the bare
    interpreter's start-up."""
    argvs = [op.argv for op in next(wl.cli_blocks(run.seed))]
    output = str(OUT / "cli-main.out")
    main_us, parser_us = defaultdict(list), []
    for _ in range(3):
        for argv in argvs:
            t0 = perf_counter()
            args = build_parser().parse_args(argv)
            if args.command != "verify":
                build_config(args)
            t1 = perf_counter()
            code = cli_main(argv + ["--output", output])
            t2 = perf_counter()
            parser_us.append((t1 - t0) * 1e6)
            main_us[argv[0]].append((t2 - t1) * 1e6)
            run.attempted += 1
            run.failed += code != 0
    start_ms = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=CHILD_ENV,
                       capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
        start_ms.append((perf_counter() - t0) * 1e3)
    out = {f"cli.main_us.{c}": (statistics.median(main_us[c]), "us") for c in CLI_COMMANDS}
    out["cli.parser_us"] = (statistics.median(parser_us), "us")
    out["cli.python_start_ms"] = (statistics.median(start_ms), "ms")
    return out


def import_metrics(run: TracedRun) -> dict:
    """``cli.import_ms``: own import time of every module a traced CLI child
    imports beyond what a bare interpreter imports."""
    bare = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"], cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    baseline = set(parse_importtime(bare.stderr))
    totals = [sum(us for m, us in imp.items() if m not in baseline) / 1e3 for imp in run.imports]
    out = {"cli.import_ms": (statistics.median(totals), "ms")}
    for module in IMPORT_MODULES:
        own = [imp.get(module, 0) / 1e3 for imp in run.imports]
        out[f"cli.import_self_ms.{module}"] = (statistics.median(own), "ms")
    return out


# --------------------------------------------------------------------------
# assembling the per-layer metrics


def span_metrics(run: TracedRun, wrapper_us: float) -> dict:
    agg = run.tracer.aggregate(run.op_workload)

    def row(name: str, workload: str = "float-eval"):
        return agg.get((workload, name), [0, 0.0, 0.0, 0])

    def own_us(name: str, workload: str) -> tuple[float, int, int]:
        # Self time less the wrapper's cost per pull; span count; pulls.
        count, _total, self_us, pulls = row(name, workload)
        return self_us - pulls * wrapper_us, count, pulls

    term_count, term_us = row("families.term")[0], row("families.term")[1]
    build = row("families.build")
    lentz_us, _, lentz_pulls = own_us("engine.lentz", "float-eval")
    forward_us, _, forward_pulls = own_us("engine.recurrence_float", "float-eval")
    out = {
        "families.build_us": (build[1] / build[0], "us"),
        "families.term_cold_us_per_level": (term_us / term_count, "us"),
        "engine.term_cached_us_per_level": (row("engine.term_cached")[1] / term_count, "us"),
        "engine.lentz_self_us_per_level": (lentz_us / lentz_pulls, "us"),
        "engine.recurrence_float_self_us_per_level": (forward_us / forward_pulls, "us"),
    }
    for layer in ("recurrence_exact", "backward_exact"):
        for bucket in wl.DEPTH_BUCKETS:
            us, count, _ = own_us(f"engine.{layer}.{bucket}", "exact-deep")
            out[f"engine.{layer}_ms.{bucket}"] = (us / count / 1e3, "ms")
    us, count, _ = own_us("engine.terminating_exact", "exact-deep")
    out["engine.terminating_exact_us"] = (us / count, "us")
    return out


def count_metrics(stats) -> dict:
    """Exact counts over the first ``COUNT_OPS`` float-eval ops."""
    levels, tiny, done = zip(*stats.first_reports)
    n = len(levels)
    return {
        "engine.levels_per_op": (sum(levels) / n, "count"),
        "engine.tiny_substitutions_per_op": (sum(tiny) / n, "count"),
        "engine.converged_share": (sum(done) / n, "ratio"),
    }


def speed_for(name: str, speeds: dict) -> float:
    """Host speed a layer timing is scaled by: the median over the traced
    slice of the workload the span came from, or, for probes, a sample of
    the matching reference taken just before them."""
    if name.startswith(("engine.recurrence_exact", "engine.backward_exact",
                        "engine.terminating_exact")):
        return speeds["exact-deep"]
    if name == "scalars.nearly_equal_exact_us":
        return speeds["probe-big-integer"]
    if name.startswith(("families.", "engine.", "trace.wrapper")):
        return speeds["float-eval"]
    if name.startswith(("cli.python_start", "cli.import")):
        return speeds["cli"]
    return speeds["probe-interpreted"]


def traced_run(workload: str, seed: int, seconds: float):
    """Returns ``(correct, attempted, failed, metrics, details)``; *metrics*
    maps each per-layer name to ``(value, unit)``.  Times are scaled to
    nominal host speed like the end-to-end ones (see ``harness``)."""
    run = TracedRun(seed)
    order = (workload,) + tuple(w for w in WORKLOADS if w != workload)
    budget = seconds / (2 * len(WORKLOADS))
    metrics, pairs = {}, {}
    for w in order:
        pairs[w] = run.workload_pair(w, budget)
    speeds = {w: pairs[w]["stats"].host_speed.quantile(0.5) for w in WORKLOADS}
    wrapper_us = wrapper_us_per_level()
    metrics.update(span_metrics(run, wrapper_us))
    metrics.update(count_metrics(pairs["float-eval"]["stats"]))
    speeds["probe-interpreted"] = INTERPRETED.speed([INTERPRETED.work() for _ in range(9)])
    speeds["probe-big-integer"] = BIG_INTEGER.speed([BIG_INTEGER.work() for _ in range(9)])
    metrics.update(scalar_probes(seed))
    metrics.update(oracle_probe(seed))
    metrics.update(verify_probe(run))
    metrics.update(cli_probes(run))
    metrics.update(import_metrics(run))
    metrics["trace.wrapper_us_per_level"] = (wrapper_us, "us")
    metrics = {name: (value * speed_for(name, speeds) if unit in TIME_UNITS else value, unit)
               for name, (value, unit) in metrics.items()}
    for w in WORKLOADS:
        metrics[f"trace.overhead_ratio.{w}"] = (pairs[w]["ratio"], "ratio")
    run.tracer.write(OUT / f"spans-{workload}-seed{seed}.csv.gz", run.op_labels)
    run.details["spans"] = len(run.tracer.code)
    run.details["host_speed"] = speeds
    correct = run.failed == 0 and run.attempted > 0
    return correct, run.attempted, run.failed, metrics, run.details
