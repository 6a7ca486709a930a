"""Smoke test of the benchmark harness: one traced pass of every workload.

A traced run reads the spans of particular hdgbs calls, and a span that no
call makes raises there. Running each workload once here turns a change
that reroutes such a call into a test failure. The runs write only under
the ignored ``benchmark/out/``.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)


@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_traced_benchmark_pass_is_correct_and_complete(workload):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST["per_layer"]}
