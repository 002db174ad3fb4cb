"""The traced benchmark run keeps its output contract: for every workload
of ``BENCHMARK.json``, ``perfbench/run.py --trace 1`` exits 0 and its last
line of standard output is strict JSON (no NaN or Infinity) that reports
a correct run and carries every declared ``per_layer`` metric.

The tracer finds what it spans by module and function name (for example
``exactlp.solve_lp``), so a rename in ``src/`` can break the traced run
while every other test still passes.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_in_strict_json_with_every_layer_metric(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "13", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    missing = [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == []
