"""Shared machinery: where the checkout is, the closed-loop measuring
loop, per-op checking and tallies, fresh-interpreter set-up time and the
provenance stored with every result."""

from __future__ import annotations

import atexit
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_STDOUT = OUT / "child.stdout"
CHILD_STDERR = OUT / "child.stderr"
#: Children import the checkout's package and nothing else named confrac.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CHILD_TIMEOUT_S = 60
SETUP_IMPORTS = 9
#: Ops at the start of the traced float-eval run over which the exact
#: counts (levels, tiny substitutions, converged share) are taken, so they
#: repeat exactly for a given seed.
COUNT_OPS = 1000


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    if not (SRC / "confrac" / "__init__.py").is_file():
        die(f"no confrac package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import confrac

    if Path(confrac.__file__).resolve().parent.parent != SRC.resolve():
        die(f"imported confrac from {confrac.__file__}, not from {SRC}")
    return confrac


def under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


# --------------------------------------------------------------------------
# set-up time and provenance


def setup_seconds(module: str) -> tuple[float, float, int]:
    """Median seconds to import *module* in a fresh interpreter, scaled to
    nominal host speed and raw, and the number of imports.  The child times
    the reference itself, right after the import, on the same CPU; one
    extra import first writes the bytecode cache and is not counted."""
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"import {module} as m; d = time.perf_counter() - t; "
        f"sys.path.insert(0, {str(HERE)!r}); import statistics; "
        "from harness import INTERPRETED as ref; "
        "print(repr(d), repr(ref.speed([ref.work() for _ in range(3)])), m.__file__)"
    )
    scaled, raw = [], []
    for i in range(SETUP_IMPORTS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            die(f"importing {module} failed: {proc.stderr.strip()[-500:]}")
        seconds, speed, path = proc.stdout.split()
        if not under_src(path):
            die(f"child imported {module} from {path}, not from {SRC}")
        if i:
            raw.append(float(seconds))
            scaled.append(float(seconds) * float(speed))
    return statistics.median(scaled), statistics.median(raw), len(scaled)


def provenance(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg": list(os.getloadavg()),
    }


# --------------------------------------------------------------------------
# host speed
#
# Other tenants of a shared host slow execution itself, by 30% or more for
# seconds at a time, with no steal time to show for it.  The benchmark
# therefore times a fixed reference between ops and scales every op's time
# to a host on which that reference takes exactly its ``nominal_s``: an op
# timed while the reference ran 1.3x slow counts 1/1.3 of its time.
# References never run confrac, so no change to the program can move them,
# and each does the kind of work its workload does, because contention
# slows interpreted code, big-integer arithmetic and process start-up by
# different amounts (and a child process may run on another CPU than this
# one).  Raw timings are reported next to the scaled ones.


def interpreted_work() -> float:
    """Seconds for interpreted float arithmetic, dict stores, ABC isinstance
    checks and small Fractions (the float-eval kind of work)."""
    t0 = perf_counter()
    acc = 0.0
    table = {}
    for i in range(1, 1000):
        x = i * 0.001
        acc += x * x / (1.0 + x)
        table[i & 63] = acc
        isinstance(x, (int, Fraction))
    f = Fraction(1, 3)
    for i in range(1, 30):
        f = f * Fraction(i, i + 1) + Fraction(1, i)
    math.gcd(3**3000 * 7**2000, 5**4000 * 7**1500)
    return perf_counter() - t0


def big_integer_work() -> float:
    """Seconds for 50 levels of an exact-rational three-term recurrence
    (the exact-deep kind of work: Fraction arithmetic and gcd)."""
    t0 = perf_counter()
    a = Fraction(16, 9)
    p0, p1, q0, q1 = Fraction(1), Fraction(1), Fraction(0), Fraction(1)
    for k in range(1, 50):
        b = Fraction(2 * k + 1)
        p0, p1 = p1, b * p1 + a * p0
        q0, q1 = q1, b * q1 + a * q0
    return perf_counter() - t0


def interpreter_start() -> float:
    """Seconds to start and stop an isolated interpreter without ``site``
    (the CLI kind of work), started like the CLI ops; nothing in the
    repository can move it."""
    code, seconds, _ = launcher().run([sys.executable, "-I", "-S", "-c", "pass"])
    if code != 0:
        die(f"a bare interpreter exited {code}")
    return seconds


@dataclass(frozen=True)
class Reference:
    work: Callable[[], float]
    #: Seconds the work takes on the nominal host.
    nominal_s: float
    #: Take a sample at least this often while ops run.
    every_s: float

    def speed(self, samples) -> float:
        """Nominal over measured time: below 1 on a host slower than nominal."""
        return self.nominal_s / statistics.median(samples)


INTERPRETED = Reference(interpreted_work, 1e-3, 0.02)
BIG_INTEGER = Reference(big_integer_work, 1e-3, 0.02)
INTERPRETER_START = Reference(interpreter_start, 10e-3, 0.25)


# --------------------------------------------------------------------------
# executing and checking ops


def run_inprocess(op):
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        return perf_counter() - t0, None, f"raised {exc!r}"
    return perf_counter() - t0, result, None


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    #: The child's own peak resident memory, from its rusage.
    max_rss_kb: int


class Launcher:
    """The ``launcher.py`` process, which starts the children whose time or
    memory is measured (see there for why they do not start from here)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")], cwd=ROOT, env=CHILD_ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        atexit.register(self.stop)

    def run(self, argv: list[str]) -> tuple[Optional[int], float, int]:
        """``(exit code or None on timeout, seconds, child's max RSS in KiB)``;
        the child's output is in ``CHILD_STDOUT`` and ``CHILD_STDERR``."""
        request = [CHILD_TIMEOUT_S, str(CHILD_STDOUT), str(CHILD_STDERR), *argv]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            die("the child launcher stopped")
        code, seconds, max_rss_kb = json.loads(line)
        return code, seconds, max_rss_kb

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@functools.cache
def launcher() -> Launcher:
    return Launcher()


def run_cli(op, flags=()):
    """One ``python -m confrac.cli`` child; the cli ``peak_rss_mb`` is the
    largest peak of these op children."""
    code, latency, max_rss_kb = launcher().run(
        [sys.executable, *flags, "-m", "confrac.cli", *op.argv])
    if code is None:
        return latency, None, f"timed out after {CHILD_TIMEOUT_S} s"
    result = CliResult(code, CHILD_STDOUT.read_text(encoding="utf-8"),
                       CHILD_STDERR.read_text(encoding="utf-8"), max_rss_kb)
    if code != 0:
        return latency, result, f"exit {code}: {result.stderr.strip()[-200:]}"
    return latency, result, None


class Histogram:
    """Counts and sums of positive values in log-spaced bins 0.1% wide, from
    1 µs to 1000 s (values outside go to the end bins).  Its size is fixed,
    so the harness's memory does not grow with the op count and
    ``peak_rss_mb`` does not follow throughput.  A value is read back as
    the mean of its bin: exact when alone there, as in a sparse tail, and
    within 0.1% otherwise."""

    LOW = 1e-6
    LOG_RATIO = math.log(1.001)
    BINS = math.ceil(math.log(1e3 / LOW) / LOG_RATIO)

    def __init__(self) -> None:
        self.counts = array("q", bytes(8 * self.BINS))
        self.sums = array("d", bytes(8 * self.BINS))
        self.count = 0
        self.total = 0.0

    def add(self, x: float) -> None:
        i = min(int(math.log(max(x, self.LOW) / self.LOW) / self.LOG_RATIO), self.BINS - 1)
        self.counts[i] += 1
        self.sums[i] += x
        self.count += 1
        self.total += x

    def _value_at(self, k: int) -> float:
        """The k-th smallest value (from 0)."""
        seen = 0
        for i, c in enumerate(self.counts):
            if c and seen + c > k:
                return self.sums[i] / c
            seen += c
        raise ValueError("empty histogram")

    def quantile(self, q: float) -> float:
        """Interpolated at rank ``q * (count - 1)``, as the inclusive
        method of ``statistics.quantiles`` places it."""
        rank = q * (self.count - 1)
        k = int(rank)
        value = self._value_at(k)
        return value if rank == k else value + (rank - k) * (self._value_at(k + 1) - value)

    def quartiles(self) -> list[float]:
        return [self.quantile(q) for q in (0.25, 0.5, 0.75)]


class Stats:
    """Latency histograms and correctness tallies of one measured run.

    Nothing here grows with the op count, so the process's peak memory is
    the library's, whatever the throughput."""

    def __init__(self) -> None:
        self.raw = Histogram()
        self.scaled = Histogram()  # op times scaled to nominal host speed
        self.pending: list[float] = []  # raw times not yet scaled
        self.host_speed = Histogram()  # Reference.speed of each sample pair
        self.attempted = 0
        #: Ops that raised, gave unusable output or broke their check's bound.
        self.failed = 0
        #: Failed ops plus those whose error exceeds the requested tolerance.
        self.outside_rel_tol = 0
        self.problems: list[str] = []
        self.max_err: dict[str, float] = defaultdict(float)
        self.shares = {key: Counter() for key in ("family", "mode", "evaluator", "bucket")}
        self.levels = Counter()
        # (levels, tiny substitutions, converged or terminated) of the first
        # COUNT_OPS evaluation reports, for counts that repeat exactly.
        self.first_reports: list[tuple[int, int, bool]] = []
        #: Largest peak memory of a CLI op child.
        self.child_rss_kb = 0

    def record(self, op, latency: float, result, problem, rel_tol: float) -> None:
        self.attempted += 1
        self.raw.add(latency)
        self.pending.append(latency)
        for key, counter in self.shares.items():
            counter[getattr(op, key) or "-"] += 1
        err = math.inf
        if problem is None:
            try:
                err, problem = op.check(result)
            except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
                err, problem = math.inf, f"unparsable output: {exc!r}"
            if math.isfinite(err):
                self.max_err[op.family] = max(self.max_err[op.family], err)
        self.outside_rel_tol += problem is not None or err > rel_tol
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{op.label}: {problem}")
        self.child_rss_kb = max(self.child_rss_kb, getattr(result, "max_rss_kb", 0))
        depth_used = getattr(result, "depth_used", None)
        if depth_used is not None:
            self.levels[depth_used] += 1
            if len(self.first_reports) < COUNT_OPS:
                self.first_reports.append((depth_used, result.tiny_substitutions,
                                           result.converged or result.terminated))

    def scale_pending(self, speed: float) -> None:
        """Scale the latencies recorded since the last call by *speed*."""
        self.host_speed.add(speed)
        for t in self.pending:
            self.scaled.add(t * speed)
        self.pending.clear()

    def ops_per_s(self, raw: bool = False) -> float:
        """Ops completed per second of (scaled) time spent inside them."""
        hist = self.raw if raw else self.scaled
        return hist.count / hist.total

    def percentile_ms(self, q: int, raw: bool = False) -> float:
        return (self.raw if raw else self.scaled).quantile(q / 100) * 1e3

    def error_rate(self) -> float:
        """Share of ops outside the requested tolerance (``rel_tol``), or
        failed outright."""
        return self.outside_rel_tol / self.attempted

    def summary(self) -> dict:
        total = max(self.attempted, 1)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "ops_outside_rel_tol": self.outside_rel_tol,
            "error_rate": self.outside_rel_tol / total,
            "first_problems": self.problems,
            "max_rel_err_by_family": dict(sorted(self.max_err.items())),
            "shares": {key: {k: round(v / total, 4) for k, v in sorted(c.items())}
                       for key, c in self.shares.items()},
            "levels_histogram": dict(sorted(self.levels.items())),
            "raw_ops_per_s": self.ops_per_s(raw=True),
            "raw_latency_p50_ms": self.percentile_ms(50, raw=True),
            "raw_latency_p90_ms": self.percentile_ms(90, raw=True),
            "host_speed_quartiles": self.host_speed.quartiles(),
        }


def measure(blocks, seconds: float, execute, rel_tol: float, reference: Reference,
            min_blocks: int = 1) -> Stats:
    """Closed loop: one caller runs whole blocks until *seconds* have passed
    (at least *min_blocks*).  Each op's output is checked after its timing.
    The reference is sampled at least every ``reference.every_s`` and at the
    end of each block; the op times recorded between two samples are scaled
    by the speed those two samples show."""
    stats = Stats()
    deadline = perf_counter() + seconds
    ref = reference.work()
    last_ref = perf_counter()
    blocks_done = 0
    while True:
        block = next(blocks)
        for i, op in enumerate(block):
            latency, result, problem = execute(op)
            stats.record(op, latency, result, problem, rel_tol)
            # Free the result before the next op runs, or two large results
            # would overlap and peak memory would depend on op order.
            del result
            if i == len(block) - 1 or perf_counter() - last_ref >= reference.every_s:
                ref_after = reference.work()
                stats.scale_pending(reference.speed((ref, ref_after)))
                ref, last_ref = ref_after, perf_counter()
        blocks_done += 1
        if blocks_done >= min_blocks and perf_counter() >= deadline:
            return stats


def warm_up(blocks, execute, seconds: float) -> None:
    deadline = perf_counter() + seconds
    for op in next(blocks):
        execute(op)
        if perf_counter() >= deadline:
            return


def peak_rss_mb() -> float:
    """This process's peak resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
