"""Fault injection in the post-steps of a checkpointed validation run:
the baseline merge, the drift report and their atomic writes.

* a sketch file that fails to load inside a Ray task (the tasks regime of
  ``fold.map_items``) reaches the caller as ValueError from both
  ``merge_partition_baselines`` and ``drift_by_partition``, and
  ``jobs/validate_job.py --write-baseline`` falls back to re-aggregating
  the verdict rows;
* a crash between a tmp write and its ``os.replace`` leaves the previous
  baseline / drift report byte-identical, and the next run writes what a
  clean run writes.

The job runs in-process, on the session's Ray, so a patched
``fold.DRIVER_FOLD_ROWS`` steers its regime."""

import importlib.util
import json
import os
import sys

import pytest

from schema_guru_ray import fold

pytestmark = pytest.mark.usefixtures("ray_session")

JOB = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "jobs", "validate_job.py")


@pytest.fixture(scope="module")
def job():
    """jobs/validate_job.py as a module; its import-time sys.path and
    PYTHONPATH edits are undone."""
    env, path = os.environ.get("PYTHONPATH"), list(sys.path)
    spec = importlib.util.spec_from_file_location("validate_job", JOB)
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = path
        if env is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = env
    return mod


@pytest.fixture(scope="module")
def clips_dir(tmp_path_factory):
    import pyarrow.parquet as pq

    from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table

    d = tmp_path_factory.mktemp("post_step_clips")
    tab = generate_clips_table(300, ClipsConfig(seed=11))
    pq.write_table(tab.slice(0, 150), str(d / "a.parquet"))
    pq.write_table(tab.slice(150), str(d / "b.parquet"))
    return d


def _run_job(job, monkeypatch, *argv):
    import ray

    monkeypatch.setattr(ray, "shutdown", lambda: None)  # keep the session up
    return job.main([str(a) for a in argv])


def _truncate_one_sketch_file(out):
    """Cut one committed partition's sketches.json in half, as a crash
    mid-write on a non-atomic filesystem copy would."""
    from schema_guru_ray.state.checkpoint import active_dirs

    path = os.path.join(active_dirs(str(out), None)[0], "sketches.json")
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[: len(raw) // 2])


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def test_load_failure_in_tasks_regime_is_value_error(clips_dir, tmp_path, monkeypatch):
    """On the driver a truncated file raises json's JSONDecodeError; in a
    Ray task both post-steps re-raise it as a plain ValueError."""
    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        drift_by_partition,
        merge_partition_baselines,
        run_validation_checkpointed,
    )

    cfg = ValidationConfig()
    out = tmp_path / "out"
    run_validation_checkpointed(str(clips_dir), str(out), cfg, files_per_partition=1)
    _truncate_one_sketch_file(out)

    with pytest.raises(json.JSONDecodeError):
        merge_partition_baselines(str(out), cfg=cfg)
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)
    with pytest.raises(ValueError, match="map_items task failed") as merge_err:
        merge_partition_baselines(str(out), cfg=cfg)
    with pytest.raises(ValueError, match="map_items task failed") as drift_err:
        drift_by_partition(str(out), {}, cfg)
    assert merge_err.type is ValueError and drift_err.type is ValueError


def test_job_rebuilds_baseline_from_verdicts_when_tasks_fail(
        job, clips_dir, tmp_path, monkeypatch, capsys):
    from schema_guru_ray.sketches.kll import KLL
    from schema_guru_ray.state.sketch_store import load_baseline

    out, clean, rebuilt = tmp_path / "out", tmp_path / "clean.json", tmp_path / "rebuilt.json"
    assert _run_job(job, monkeypatch, clips_dir, "--out", out,
                    "--files-per-partition", 1, "--write-baseline", clean) == 0
    _truncate_one_sketch_file(out)
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)
    capsys.readouterr()
    assert _run_job(job, monkeypatch, clips_dir, "--out", out,
                    "--files-per-partition", 1, "--write-baseline", rebuilt) == 0
    err = capsys.readouterr().err
    assert "per-partition sketch merge unavailable" in err
    assert "re-aggregated verdict rows" in err

    want, want_meta = load_baseline(str(clean))
    got, got_meta = load_baseline(str(rebuilt))
    assert got_meta["meta"]["n_clips"] == want_meta["meta"]["n_clips"] == 300
    assert {c: set(cols) for c, cols in got.items()} == {
        c: set(cols) for c, cols in want.items()}
    for codec, cols in want.items():
        for col, raw in cols.items():
            assert KLL.from_bytes(got[codec][col]).n == KLL.from_bytes(raw).n


def test_crash_before_baseline_replace_keeps_previous(job, clips_dir, tmp_path, monkeypatch):
    """Last night's baseline covers one file; tonight's run over two
    crashes after writing the tmp file and before os.replace. The old
    baseline survives byte for byte, and the next run writes exactly the
    file a clean run over both files writes."""
    import shutil

    src = tmp_path / "src"
    src.mkdir()
    shutil.copy(clips_dir / "a.parquet", src)
    out, base = tmp_path / "out", tmp_path / "baseline.json"
    args = (src, "--out", out, "--files-per-partition", 1, "--write-baseline", base)
    assert _run_job(job, monkeypatch, *args) == 0
    previous = _read(base)

    shutil.copy(clips_dir / "b.parquet", src)
    real_replace = os.replace

    def crash_on_baseline(a, b):
        if str(b) == str(base):
            raise OSError("injected crash before os.replace")
        real_replace(a, b)

    monkeypatch.setattr(os, "replace", crash_on_baseline)
    with pytest.raises(OSError, match="injected"):
        _run_job(job, monkeypatch, *args)
    assert _read(base) == previous
    assert os.path.exists(str(base) + ".tmp")

    monkeypatch.setattr(os, "replace", real_replace)
    assert _run_job(job, monkeypatch, *args) == 0
    assert not os.path.exists(str(base) + ".tmp")

    clean = tmp_path / "clean.json"
    assert _run_job(job, monkeypatch, src, "--out", tmp_path / "clean_out",
                    "--files-per-partition", 1, "--write-baseline", clean) == 0
    assert _read(base) == _read(clean)


def test_failed_drift_report_write_keeps_previous_report(
        job, clips_dir, tmp_path, monkeypatch):
    """A drift-report write that dies half-way leaves the previous report
    in place, not a truncated parquet, and the next run rewrites it."""
    import pandas as pd

    out, base, report = tmp_path / "out", tmp_path / "baseline.json", tmp_path / "drift.parquet"
    common = (clips_dir, "--out", out, "--files-per-partition", 1)
    assert _run_job(job, monkeypatch, *common, "--write-baseline", base) == 0
    args = (*common, "--baseline", base, "--drift-report", report)
    assert _run_job(job, monkeypatch, *args) == 0
    previous = _read(report)
    want = pd.read_parquet(report)
    assert len(want)

    real_to_parquet = pd.DataFrame.to_parquet

    def dies_half_way(self, path, *a, **kw):
        with open(path, "wb") as f:
            f.write(b"PAR1 truncated")
        raise OSError("injected crash mid-write")

    monkeypatch.setattr(pd.DataFrame, "to_parquet", dies_half_way)
    with pytest.raises(OSError, match="injected"):
        _run_job(job, monkeypatch, *args)
    assert _read(report) == previous

    monkeypatch.setattr(pd.DataFrame, "to_parquet", real_to_parquet)
    assert _run_job(job, monkeypatch, *args) == 0
    pd.testing.assert_frame_equal(pd.read_parquet(report), want)
    assert not os.path.exists(str(report) + ".tmp")
