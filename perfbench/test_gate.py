"""The benchmark's own tests: every workload reports every metric, and the
bit check can fail.

Run from the repository root: ``python -m pytest perfbench -q`` (about
three minutes; each Spark run starts its own JVM).
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOADS = run.LOCAL + run.SPARK


def _bench(workload, *extra, cwd=ROOT, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _left_running(root=ROOT):
    """Processes started from this checkout's benchmark directory, such as a
    Spark JVM, whose command lines name ``.perfbench/tmp``."""
    marker = os.path.join(root, ".perfbench", "tmp").encode()
    pids = []
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                if marker in f.read():
                    pids.append(int(name))
        except (OSError, ValueError):
            pass
    return pids


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    res = _result(_bench(workload, trace=trace))
    assert _left_running() == []
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 2
    want = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", ["local_wide_1m", "spark_groups_1k"])
def test_a_flipped_bit_fails_the_gate(workload):
    proc = _bench(workload, "--flip-bit")
    res = _result(proc)
    info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
    assert info["error_frac"] > 0
    assert res["failed"] >= 1 and res["correct"] is False
    assert "MISMATCH" in proc.stdout and "got bits" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("local_steady_1k", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "no repro package" in proc.stderr


def test_worker_import_failure_is_named(spark):
    from spark_wl import require_worker_import
    with pytest.raises(SystemExit, match="workers cannot import 'perfbench_missing'"):
        require_worker_import(spark, "perfbench_missing")
