"""Every benchmark workload runs one short round and passes its checks.

``benchmark/run.py`` checks each output against values computed apart
from flowsilt (oracle references, closed Feller moments, a direct pair
loop, repartitioned reruns). Running each workload once here puts the
paths the benchmark measures under the test suite, so a change that
breaks one of them fails here rather than in a benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correctly(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_tanaka_round_reads_through_hooked_kernels() -> None:
    """One traced ``tanaka-3d`` round: every hook finds its target and the
    kernel reads go through the hooked ``MollifiedGreen`` methods, so a
    read that bypasses them fails here instead of reading 0 in a trace."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "tanaka-3d",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "hooks without a target" not in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    metrics = result["metrics"]
    assert metrics["green.radial_points"]["value"] > 0
    assert metrics["green.radial_s"]["value"] > 0
