"""The benchmark's view of the library.

``perfbench`` imports names from ``confrac`` and checks the output of every
op it times.  This runs what it needs in a fresh interpreter, as the
benchmark does: a deletion or a changed result in the library fails here,
not first in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Importing layers and workloads touches every name perfbench imports.  One
# block of each in-process workload runs through the workload's own checks,
# untraced and as ``--trace 1`` runs it (a timed stream under each op), and
# the traced run's scalar, oracle and wrapper probes run once each; the cli
# block (subprocess ops) is only built.
SCRIPT = """
import layers, workloads
ran, failed = 0, []
traced = layers.TracedRun(1)
for name in ("float-eval", "exact-deep", "cli"):
    block = next(workloads.WORKLOADS[name][0](1))
    if name == "cli":
        continue
    for op in block:
        _, result, problem = traced.execute_engine(op)
        for result, problem in ((op.run(), None), (result, problem)):
            ran += 1
            if problem is None:
                _, problem = op.check(result)
            if problem is not None:
                failed.append(f"{op.label}: {problem}")
layers.scalar_probes(1)
layers.oracle_probe(1)
layers.wrapper_us_per_level()
print(ran, len(failed))
print("\\n".join(failed))
"""


def test_workloads_import_and_pass_their_checks():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    ran, failed = proc.stdout.splitlines()[0].split()
    assert int(ran) > 0 and failed == "0", proc.stdout
