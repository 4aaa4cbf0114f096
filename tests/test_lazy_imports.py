"""What a command imports.

``confrac eval`` needs neither the oracles nor the check suite, so importing
``confrac`` or ``confrac.cli`` loads neither module: both load on first use.
Each script here runs in a fresh interpreter, as the benchmark's children
do, since this process has imported both long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAZY = ("confrac.oracles", "confrac.verify")

IMPORTS = """
import json, sys
import confrac
after_package = sorted(m for m in {lazy} if m in sys.modules)
import confrac.cli
after_cli = sorted(m for m in {lazy} if m in sys.modules)
names = {{}}
exec("from confrac import *", names)
print(json.dumps({{
    "after_package": after_package,
    "after_cli": after_cli,
    "unbound": sorted(set(confrac.__all__) - set(names)),
    "same_binomial_power": confrac.binomial_power is confrac.oracles.binomial_power,
    "oracles": {{f.name: f.oracle.__name__ for f in confrac.Family
                 if f.oracle is getattr(confrac.oracles, f.oracle.__name__)}},
}}))
"""

COMPARE = """
import io, json, sys
from contextlib import redirect_stdout
from confrac import cli
before = sorted(m for m in {lazy} if m in sys.modules)
out = io.StringIO()
with redirect_stdout(out):
    code = cli.main(["compare", "--family", "arctan", "--arg", "0.5", "--depth", "2"])
print(json.dumps({{"before": before, "code": code, "rows": out.getvalue().splitlines(),
                  "after": sorted(m for m in {lazy} if m in sys.modules)}}))
"""


def _fresh(script: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script.format(lazy=repr(LAZY))], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def imports() -> dict:
    return _fresh(IMPORTS)


def test_importing_the_package_or_the_cli_loads_neither_oracles_nor_verify(imports):
    assert imports["after_package"] == []
    assert imports["after_cli"] == []


def test_a_star_import_binds_every_public_name(imports):
    assert imports["unbound"] == []


def test_the_package_serves_the_oracles_own_functions(imports):
    assert imports["same_binomial_power"] is True


def test_every_family_reads_its_oracle_from_the_oracles_module(imports):
    assert imports["oracles"] == {
        "LAGRANGE_BINOMIAL": "binomial_power",
        "UNIFORM_BINOMIAL": "binomial_power",
        "SYMMETRIC_BINOMIAL": "symmetric_lhs",
        "TAN_MULTIPLE": "tan_multiple_lhs",
        "ARCTAN": "arctan_lhs",
        "TAN": "tan_lhs",
        "LOG_RATIO": "log_ratio_lhs",
        "COTH_SCALED": "coth_scaled_lhs",
    }


def test_compare_loads_the_oracles_when_it_runs_and_fills_their_column():
    result = _fresh(COMPARE)
    assert result["before"] == []
    assert result["code"] == 0
    header, *rows = result["rows"]
    assert header == "depth,cf_value,oracle_value,rel_err"
    assert [row.split(",")[2] for row in rows] == ["0.46364760900080609"] * 2
    assert result["after"] == ["confrac.oracles"]
