"""Crash-mid-run resume semantics of the partitioned checkpoint runner
(state/checkpoint.py): a failure between partitions must leave committed
work trusted, uncommitted work invisible, and a rerun must finish only
the remainder."""

import json
import os

import pytest

from schema_guru_ray.state import checkpoint
from schema_guru_ray.state.checkpoint import MANIFEST, config_hash, run_incremental, run_partitioned


def _mk_files(tmp_path, n=6):
    files = []
    for i in range(n):
        f = tmp_path / f"in{i}.txt"
        f.write_text(str(i))
        files.append(str(f))
    return files


class TestCrashResume:
    def test_crash_then_resume_completes_remainder(self, tmp_path):
        files = _mk_files(tmp_path)
        out = str(tmp_path / "out")
        state = {"calls": 0, "crashed": False}

        def boom_on_second(part_files, tmp_dir):
            state["calls"] += 1
            if state["calls"] == 2 and not state["crashed"]:
                state["crashed"] = True
                raise RuntimeError("simulated worker crash")
            with open(os.path.join(tmp_dir, "result.json"), "w") as f:
                json.dump({"files": sorted(part_files)}, f)
            return {"n": len(part_files)}

        cfg = config_hash({"v": 1})
        with pytest.raises(RuntimeError, match="simulated"):
            run_partitioned(files, out, boom_on_second, cfg, num_partitions=3)

        # partition 0 committed; the crashed partition left NO trusted dir
        names = sorted(os.listdir(out))
        assert "partition=0000" in names
        assert "partition=0001" not in names  # tmp dir only, not committed
        assert all(not n.startswith("partition=0001") or n.startswith(".tmp")
                   for n in names if "0001" in n)

        summary = run_partitioned(files, out, boom_on_second, cfg, num_partitions=3)
        assert summary["skipped"] == 1 and summary["ran"] == 2
        # every partition now has a committed result + matching lineage
        for i in range(3):
            pdir = os.path.join(out, f"partition={i:04d}")
            with open(os.path.join(pdir, "_SUCCESS.json")) as f:
                meta = json.load(f)
            with open(os.path.join(pdir, "result.json")) as f:
                res = json.load(f)
            assert res["files"] == meta["inputs"]

    def test_leftover_tmp_dir_is_cleaned_on_retry(self, tmp_path):
        files = _mk_files(tmp_path, 2)
        out = str(tmp_path / "out2")
        os.makedirs(os.path.join(out, ".tmp-partition=0000"))
        with open(os.path.join(out, ".tmp-partition=0000", "junk"), "w") as f:
            f.write("stale")

        def proc(part_files, tmp_dir):
            assert not os.path.exists(os.path.join(tmp_dir, "junk"))
            return {"n": len(part_files)}

        summary = run_partitioned(files, out, proc, config_hash({}), num_partitions=2)
        assert summary["ran"] == 2


def _write_result(part_files, tmp_dir):
    with open(os.path.join(tmp_dir, "result.json"), "w") as f:
        json.dump(sorted(part_files), f)
    return {"n": len(part_files)}


@pytest.mark.parametrize("runner", [
    lambda files, out, **kw: run_partitioned(
        files, out, _write_result, config_hash({}), num_partitions=2, **kw),
    lambda files, out, **kw: run_incremental(
        files, out, _write_result, config_hash({}), files_per_partition=2, **kw),
], ids=["partitioned", "incremental"])
def test_crash_during_manifest_write_keeps_previous_manifest(tmp_path, monkeypatch, runner):
    files = _mk_files(tmp_path, 4)
    out = str(tmp_path / "out")
    before = runner(files, out)
    manifest = os.path.join(out, MANIFEST)
    real_dump = checkpoint.json.dump

    def dump_then_crash(obj, f, **kw):
        if "partitions" not in obj:  # a partition's _SUCCESS.json
            return real_dump(obj, f, **kw)
        f.write('{"config_hash": ')
        raise OSError("simulated crash mid-manifest")

    grown = files + [str(tmp_path / "in9.txt")]
    (tmp_path / "in9.txt").write_text("9")
    monkeypatch.setattr(checkpoint.json, "dump", dump_then_crash)
    with pytest.raises(OSError, match="mid-manifest"):
        runner(grown, out)
    monkeypatch.undo()
    with open(manifest) as f:  # still the whole previous manifest
        assert json.load(f) == json.loads(json.dumps(before, default=str))

    after = runner(grown, out)
    with open(manifest) as f:
        assert json.load(f) == json.loads(json.dumps(after, default=str))
    assert after["ran"] == 0  # the crashed run committed every partition


def test_gc_sweeps_tmp_dirs_left_by_a_crashed_run(tmp_path):
    files = _mk_files(tmp_path, 3)
    out = str(tmp_path / "out")
    cfg = config_hash({})

    def boom(part_files, tmp_dir):
        raise RuntimeError("simulated worker crash")

    with pytest.raises(RuntimeError):
        run_incremental(files, out, boom, cfg, files_per_partition=2)
    stale = [n for n in os.listdir(out) if n.startswith(".tmp-partition=")]
    assert len(stale) == 1

    # the crashed chunk's membership changes, so its digest never runs again
    (tmp_path / "in0.txt").unlink()
    files = files[1:]
    s = run_incremental(files, out, _write_result, cfg, files_per_partition=2)
    assert "tmp_swept" not in s and stale[0] in os.listdir(out)  # no GC asked

    s = run_incremental(files, out, _write_result, cfg, files_per_partition=2,
                        gc_orphans=True)
    assert s["tmp_swept"] == 1 and "gc_removed" not in s
    assert not [n for n in os.listdir(out) if n.startswith(".tmp-")]
    assert s["skipped"] == 1
