"""The benchmark's traced and untraced local runs still work: its traced
harness wraps names of ``repro.aggregate`` by ``getattr``, so a change to
the operator can break it while every other test passes."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_local_wide_tiny_run_is_correct(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local_wide_1m",
         "--seed", "1", "--scale", "tiny", "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True and res["failed"] == 0, res
    if trace:  # the traced harness sees the operator's one aggregation call
        assert res["metrics"]["aggregate.hash_aggregate_s"]["value"] > 0, res
