#!/usr/bin/env python3
"""confrac benchmark: three seeded, closed-loop, single-caller workloads.

    python3 perfbench/run.py --workload float-eval --seed 1 --seconds 20 --trace 0

Run from anywhere; the benchmark measures the checkout it sits in (the
``src`` directory next to this one), never an installed ``confrac``.

Workloads (see ``workloads.py`` for the exact mix):

* ``float-eval``: float and complex evaluation to ``rel_tol=1e-13`` over all
  eight families, one fresh stream per op.
* ``exact-deep``: rational-mode fixed-depth ``convergents`` and
  ``eval_backward`` at depths 100-2000, plus terminating integer-exponent
  binomials checked for exact equality.
* ``cli``: ``python -m confrac.cli`` subprocesses, one at a time.

With ``--trace 0`` the run reports the end-to-end metrics of one workload.
Other tenants of a shared host slow execution for seconds at a time, so
every op's time is scaled by a reference computation timed between ops (see
``harness``); ``ops_per_s`` is ops completed per second of scaled time
inside them and latency percentiles are over every op.  ``setup_s`` is the
median time to import the library in a fresh interpreter.
``peak_rss_mb`` is this process's peak, or on ``cli`` the largest peak of
an op child (started by ``launcher.py``).  ``error_rate`` counts the ops
whose error exceeds the requested ``rel_tol``; ``failed`` in the result
line counts those outside the looser bound of ``workloads``.  Raw figures,
``error_rate``, the tail percentile with ten or more samples beyond it
(p99 on float-eval), provenance, shares and the levels histogram are
printed and stored in ``.bench_out/`` next to each result.  With
``--trace 1`` the run times every layer instead: each workload, the named
one first, runs once untraced and once traced
(``trace.overhead_ratio.*``), spans are written to ``.bench_out/``, and the
probes in ``layers.py`` time the layers the workloads reach only through
the CLI.

Every op's output is checked outside the timed region; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 2 means the benchmark could not run
(for example, no ``src/confrac`` next to it).
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import OUT, Stats, die, load_library, measure, peak_rss_mb, provenance, \
    run_cli, run_inprocess, setup_seconds, warm_up

#: The gated end-to-end metrics, as listed in BENCHMARK.json.
END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")


# --------------------------------------------------------------------------
# end-to-end run


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Stats, dict, dict]:
    import workloads as wl

    is_cli = workload == "cli"
    setup_s, raw_setup_s, setup_n = setup_seconds("confrac.cli" if is_cli else "confrac")
    execute = run_cli if is_cli else run_inprocess
    make_blocks, reference = wl.WORKLOADS[workload]
    warm_up(make_blocks(seed + 1_000_003), execute, 0.5)
    stats = measure(make_blocks(seed), seconds, execute, wl.REL_TOL, reference)
    # Read before any statistics are computed; neither measure nor Stats
    # keeps storage that grows with the op count.
    peak_mb = stats.child_rss_kb / 1024 if is_cli else peak_rss_mb()
    tail_q = 99 if workload == "float-eval" else 90
    samples = stats.attempted
    metrics = {
        "ops_per_s": (stats.ops_per_s(), "1/s", f"{samples} ops"),
        "latency_p50_ms": (stats.percentile_ms(50), "ms", f"{samples} ops"),
        "latency_p90_ms": (stats.percentile_ms(90), "ms", f"{samples} ops"),
        f"latency_p{tail_q}_ms": (stats.percentile_ms(tail_q), "ms", f"{samples} ops"),
        "error_rate": (stats.error_rate(), "ratio", f"{samples} ops"),
        "setup_s": (setup_s, "s", f"median of {setup_n} fresh imports"),
        "peak_rss_mb": (peak_mb, "MB", "largest op child" if is_cli else "1 process"),
    }
    summary = stats.summary()
    summary["raw_setup_s"] = raw_setup_s
    return stats, metrics, summary


# --------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["float-eval", "exact-deep", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")

    load_library()
    OUT.mkdir(exist_ok=True)
    info = provenance(args.seed)
    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace)

    if args.trace:
        import layers

        correct, attempted, failed, metrics, details = layers.traced_run(
            args.workload, args.seed, args.seconds)
        info["layers"] = details
        printed = {name: (value, unit, "") for name, (value, unit) in metrics.items()}
        gated = metrics
    else:
        stats, printed, summary = end_to_end(args.workload, args.seed, args.seconds)
        info.update(summary)
        attempted, failed = stats.attempted, stats.failed
        correct = failed == 0 and attempted > 0
        gated = {name: printed[name][:2] for name in END_TO_END}

    for name, (value, unit, samples) in printed.items():
        print(f"{name:<44} {value:>14.6g} {unit:<6} {samples}")
    info["metrics"] = {name: {"value": v, "unit": u, "samples": s} for name, (v, u, s) in printed.items()}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    print("report " + json.dumps(info, separators=(",", ":")))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
