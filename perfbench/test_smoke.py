"""Smoke tests for the benchmark itself: every workload at a tiny size, both
with and without tracing, must check its outputs, report no failed job and
print every metric BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(cwd, workload, trace, extra=()):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace, ["--smoke"])
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate" in proc.stdout


def test_notes_name_only_benchmark_metrics():
    with open(os.path.join(HERE, "notes.json")) as f:
        notes = json.load(f)
    named = {m for layer in notes["layers"].values() for m in layer["metrics"]}
    assert named == {m["name"] for m in SPEC["per_layer"]}
    assert set(notes["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_undecodable_rows_report_no_duration():
    sys.path.insert(0, HERE)
    sys.path.insert(0, ROOT)
    from workloads import _detectable

    assert _detectable(["undecodable_audio", "dur_inconsistent"]) == ["undecodable_audio"]
    assert _detectable(["duplicate_clip_id", "dur_inconsistent"]) == ["dur_inconsistent"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
