"""Smoke test of the benchmark harness: schema and correctness, no timings.

Run from the repository root with ``python3 -m pytest benchmarks/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_no_failures(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
    for m in declared:
        assert f" {m['name']} " in proc.stdout  # printed by name with its unit


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
