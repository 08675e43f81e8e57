"""End-to-end test of the cluster entry point ``jobs/validate_job.py`` —
the `ray job submit` surface — driven exactly as a deployment would:
fresh subprocesses (each owns its own standalone Ray session), a real
output tree, and a rerun that must resume by skipping every finished
partition. The in-container job server (aiohttp) is absent, so the
submit transport itself can't run here; this exercises everything below
it (arg parsing, session bootstrap, checkpointed run, baseline
write/read, summary JSON on stdout)."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB = os.path.join(REPO, "jobs", "validate_job.py")


def _run(args):
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)  # force the standalone bootstrap branch
    out = subprocess.run(
        [sys.executable, JOB, *args], capture_output=True, text=True,
        env=env, cwd=REPO, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr


@pytest.fixture(scope="module")
def clips_path():
    from schema_guru_ray.sources.clips import ensure_clips

    return ensure_clips("/root/testdata/sf0.001")


def test_job_runs_resumes_and_writes_baseline(clips_path, tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("vjob"))
    base = os.path.join(out_dir, "baseline.json")

    summary, _ = _run([clips_path, "--out", out_dir, "--files-per-partition", "1",
                       "--num-cpus", "4", "--write-baseline", base])
    n_parts = len(summary["partitions"])  # bounded by the corpus file count
    assert n_parts >= 2
    assert summary["ran"] == n_parts and summary["skipped"] == 0
    # per-partition lineage + metrics on disk
    for idx in range(n_parts):
        man = os.path.join(out_dir, f"partition={summary['active'][idx]}",
                           "_SUCCESS.json")
        meta = json.load(open(man))
        assert meta["config_hash"] == summary["config_hash"]
        assert meta["metrics"]["n_clips"] > 0
        assert meta["inputs"]  # lineage: the partition's source files
    store = json.load(open(base))
    assert store["n_codecs"] > 0 and store["sketches"]

    # identical resubmission: pure resume, nothing re-executes
    summary2, _ = _run([clips_path, "--out", out_dir, "--files-per-partition", "1",
                        "--num-cpus", "4"])
    assert summary2["ran"] == 0 and summary2["skipped"] == n_parts

    # a config change (baseline now present) invalidates the checkpoints:
    # the drift-scored rerun must NOT silently reuse un-scored partitions
    summary3, _ = _run([clips_path, "--out", out_dir, "--files-per-partition", "1",
                        "--num-cpus", "4", "--baseline", base])
    assert summary3["ran"] == n_parts and summary3["skipped"] == 0


def test_job_incremental_mode_appends_and_baselines(clips_path, tmp_path_factory):
    """--files-per-partition: the append-aware nightly-resubmission surface.
    The baseline writer must aggregate the ACTIVE partition set from the
    manifest (orphaned boundary-shifted chunks stay on disk)."""
    import shutil

    import pyarrow.parquet as pq

    src = tmp_path_factory.mktemp("vjob_inc_src")
    for i, f in enumerate(sorted(
            p for p in os.listdir(clips_path) if p.endswith(".parquet"))):
        shutil.copy(os.path.join(clips_path, f), src / f"part-{i:04d}.parquet")
    out_dir = str(tmp_path_factory.mktemp("vjob_inc"))
    base = os.path.join(out_dir, "baseline.json")

    summary, _ = _run([str(src), "--out", out_dir, "--files-per-partition", "2",
                       "--num-cpus", "4", "--write-baseline", base])
    assert summary["mode"] == "incremental" and summary["ran"] >= 1
    store = json.load(open(base))
    n_first = store["meta"]["n_clips"]

    # nightly append: new shard sorts last → full chunks are checkpoint hits
    first = sorted(os.listdir(src))[0]
    tbl = pq.read_table(src / first)
    pq.write_table(tbl, src / "part-9999.parquet")
    summary2, _ = _run([str(src), "--out", out_dir, "--files-per-partition", "2",
                        "--num-cpus", "4", "--write-baseline", base])
    full_chunks = len([p for p in summary["partitions"]])
    assert summary2["skipped"] >= full_chunks - 1  # at most the old tail reruns
    assert summary2["ran"] >= 1
    # rebuilt baseline covers the grown corpus (active set, not a stale glob)
    store2 = json.load(open(base))
    assert store2["meta"]["n_clips"] == n_first + tbl.num_rows


def test_drift_report_requires_baseline_fails_fast():
    """--drift-report without --baseline must error at ARGUMENT time, not
    after a (multi-hour at scale) validation run."""
    import time

    t0 = time.time()
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    out = subprocess.run(
        [sys.executable, JOB, "/nonexistent", "--out", "/tmp/never",
         "--drift-report", "/tmp/never.parquet"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=60,
    )
    assert out.returncode == 2  # argparse error
    assert "--drift-report requires --baseline" in out.stderr
    assert time.time() - t0 < 30  # no Ray session, no run


def test_drift_report_legacy_tree_degrades_gracefully(clips_path, tmp_path_factory):
    """A resumed pre-upgrade tree (checkpoint hits, no sketches.json) must
    warn and still emit the run summary, not crash after the run."""
    out_dir = str(tmp_path_factory.mktemp("vjob_legacy"))
    base = os.path.join(out_dir, "baseline.json")
    summary, _ = _run([clips_path, "--out", out_dir, "--files-per-partition", "1",
                       "--num-cpus", "4", "--write-baseline", base])

    # simulate a pre-upgrade tree: drop the committed sketches
    import glob as _glob

    for p in _glob.glob(os.path.join(out_dir, "partition=*", "sketches.json")):
        os.remove(p)

    summary2, err = _run([clips_path, "--out", out_dir, "--files-per-partition", "1",
                          "--num-cpus", "4", "--baseline", base,
                          "--drift-report", os.path.join(out_dir, "d.parquet")])
    # NB: --baseline changes the config hash, so partitions re-ran and
    # re-committed sketches — the report should succeed on the fresh tree
    assert summary2["ran"] == len(summary2["partitions"])
    assert "drift report written" in err

    # now a PURE resume (same config): checkpoint hits, sketches stripped
    for p in _glob.glob(os.path.join(out_dir, "partition=*", "sketches.json")):
        os.remove(p)
    summary3, err3 = _run([clips_path, "--out", out_dir, "--files-per-partition", "1",
                           "--num-cpus", "4", "--baseline", base,
                           "--drift-report", os.path.join(out_dir, "d2.parquet")])
    assert summary3["skipped"] == len(summary3["partitions"])  # pure resume
    assert "drift report unavailable" in err3
    assert not os.path.exists(os.path.join(out_dir, "d2.parquet"))
