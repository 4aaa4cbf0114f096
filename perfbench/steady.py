#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

    python3 perfbench/steady.py --runs 10 [--sets 2]

Runs ``run.py`` ``--runs`` times on every workload in ``BENCHMARK.json``
for its ``run_seconds``, each time with another seed (1, 2, ...),
echoes every run's metric table, and prints every end-to-end metric's
median and its spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median.  A pair is flagged UNSTEADY when the spread exceeds a
third of the metric's bound in ``BENCHMARK.json`` and OVER when it exceeds
the bound itself (``setup_s`` is exempt from the spread test).  With
``--sets 2`` the whole series runs twice and a metric whose second median
is worse than the first by more than its bound is flagged DRIFT.
Results go to ``.bench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run; echoes its metric table (every metric with unit and sample
    count) and returns its result line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-2]:
        print(f"{workload:<11} seed {seed:<4} {line}", flush=True)
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    record: dict = {"seconds": seconds, "runs": args.runs, "results": {}}
    flagged = 0
    for workload in names:
        sets = []
        for s in range(args.sets):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            results = [run_once(workload, seed, seconds) for seed in seeds]
            bad = [r for r in results if not r["correct"] or r["failed"]]
            if bad:
                print(f"{workload}: {len(bad)} run(s) reported failed ops", flush=True)
                flagged += 1
            sets.append(results)
        record["results"][workload] = sets
        for name, spec in metrics.items():
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                med, sp = statistics.median(values), spread(values) if len(values) > 1 else 0.0
                medians.append(med)
                flag = ""
                if name != "setup_s" and sp > spec["bound"]:
                    flag = "OVER"
                elif name != "setup_s" and sp > spec["bound"] / 3:
                    flag = "UNSTEADY"
                flagged += bool(flag)
                print(f"{workload:<11} set{s + 1} {name:<16} median {med:<12.6g} {spec['unit']:<6}"
                      f" spread {sp:6.3f}  bound {spec['bound']:.2f}  {flag}", flush=True)
            if len(medians) == 2:
                drift = worse_by(medians[0], medians[1], spec["better"])
                if drift > spec["bound"]:
                    flagged += 1
                    print(f"{workload:<11} {name:<16} DRIFT second median worse by {drift:.3f}")
    out = ROOT / ".bench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"{flagged} flagged; results in {out.relative_to(ROOT)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
