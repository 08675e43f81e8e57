"""Crash-mid-run resume semantics of the checkpoint runner
(state/checkpoint.py run_incremental): a failure at any step must leave
committed work trusted, uncommitted work invisible, and a rerun must
finish only the remainder. Tests that count calls or tmp dirs per chunk
patch ``CHUNKS_PER_PLAN`` to 1, so every plan is one chunk."""

import json
import os
import shutil
import time

import pytest

from schema_guru_ray.state import checkpoint
from schema_guru_ray.state.checkpoint import (
    MANIFEST,
    config_hash,
    partition_chunks,
    partition_digest,
    run_incremental,
)


def _each(one):
    """A plan-level ``process`` that runs ``one(files, tmp_dir)`` per chunk."""
    return lambda chunks, staging: [one(f, d) for f, d in chunks]


def _mk_files(tmp_path, n=6):
    files = []
    for i in range(n):
        f = tmp_path / f"in{i}.txt"
        f.write_text(str(i))
        files.append(str(f))
    return files


class TestCrashResume:
    def test_crash_then_resume_completes_remainder(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint, "CHUNKS_PER_PLAN", 1)
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
            run_incremental(files, out, _each(boom_on_second), cfg, files_per_partition=2)

        # partition 0 committed; the crashed partition left NO trusted dir
        first, second, _ = [partition_digest(c) for c in partition_chunks(files, 2)]
        names = sorted(os.listdir(out))
        assert f"partition={first}" in names
        assert f"partition={second}" not in names  # tmp dir only, not committed
        assert all(not n.startswith(f"partition={second}") or n.startswith(".tmp")
                   for n in names if second in n)

        summary = run_incremental(files, out, _each(boom_on_second), cfg,
                                  files_per_partition=2)
        assert summary["skipped"] == 1 and summary["ran"] == 2
        # every partition now has a committed result + matching lineage
        for i in range(3):
            pdir = os.path.join(out, f"partition={summary['active'][i]}")
            with open(os.path.join(pdir, "_SUCCESS.json")) as f:
                meta = json.load(f)
            with open(os.path.join(pdir, "result.json")) as f:
                res = json.load(f)
            assert res["files"] == meta["inputs"]

    def test_leftover_tmp_dir_is_cleaned_on_retry(self, tmp_path):
        files = _mk_files(tmp_path, 2)
        out = str(tmp_path / "out2")
        tmp = os.path.join(out, f".tmp-partition={partition_digest(files[:1])}")
        os.makedirs(tmp)
        with open(os.path.join(tmp, "junk"), "w") as f:
            f.write("stale")

        def proc(part_files, tmp_dir):
            assert not os.path.exists(os.path.join(tmp_dir, "junk"))
            return {"n": len(part_files)}

        summary = run_incremental(files, out, _each(proc), config_hash({}),
                                  files_per_partition=1)
        assert summary["ran"] == 2


class TestPlanCrash:
    """Several dirty chunks run in one ``process`` call (a plan) and are
    then committed one by one: a crash commits either nothing of the
    plan or a prefix of its chunks, and the next run redoes the rest."""

    def test_crash_inside_process_commits_no_chunk_of_the_plan(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint, "CHUNKS_PER_PLAN", 2)
        files = _mk_files(tmp_path, 6)
        out = str(tmp_path / "out")
        cfg = config_hash({})
        plans = []

        def boom_on_second_plan(chunks, staging):
            plans.append([partition_digest(f) for f, _ in chunks])
            if len(plans) == 2:
                os.makedirs(staging)  # plan-wide outputs half written
                raise RuntimeError("simulated crash mid plan")
            return [_write_result(f, d) for f, d in chunks]

        with pytest.raises(RuntimeError, match="mid plan"):
            run_incremental(files, out, boom_on_second_plan, cfg, files_per_partition=1)
        names = set(os.listdir(out))
        assert {f"partition={d}" for d in plans[0]} <= names
        # the crashed plan left only tmp dirs: its chunks' and its staging dir
        assert not {f"partition={d}" for d in plans[1]} & names
        assert {f".tmp-partition={d}" for d in plans[1]} <= names
        assert sum(n.startswith(".tmp-partition=plan-") for n in names) == 1
        assert MANIFEST not in names

        s = run_incremental(files, out, _each(_write_result), cfg, files_per_partition=1,
                            gc_orphans=True)
        assert (s["skipped"], s["ran"], s["plans"]) == (2, 4, 2)
        # the rerun's first plan is the crashed one: its dirs are reused
        assert s["tmp_swept"] == 0
        assert sorted(os.listdir(out)) == sorted(
            [MANIFEST] + [f"partition={d}" for d in s["active"]])

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_crash_after_k_of_n_renames_reruns_the_rest(self, tmp_path, monkeypatch, k):
        files = _mk_files(tmp_path, 4)
        out = str(tmp_path / "out")
        cfg = config_hash({})
        real_replace, renames = os.replace, []

        def replace(src, dst):
            if os.path.basename(dst).startswith("partition=") and len(renames) == k:
                raise RuntimeError("simulated crash between commits")
            real_replace(src, dst)
            renames.append(dst)

        monkeypatch.setattr(checkpoint.os, "replace", replace)
        with pytest.raises(RuntimeError, match="between commits"):
            run_incremental(files, out, _each(_write_result), cfg, files_per_partition=1)
        monkeypatch.undo()
        committed = [n for n in os.listdir(out) if n.startswith("partition=")]
        assert len(committed) == k

        calls = []
        s = run_incremental(files, out, _each(lambda f, d: calls.append(f) or
                                               _write_result(f, d)),
                            cfg, files_per_partition=1)
        assert (s["ran"], s["skipped"], s["plans"]) == (4 - k, k, 1)
        assert calls == [[f] for f in sorted(files)[k:]]

    def test_plan_timing_is_split_across_its_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint, "CHUNKS_PER_PLAN", 2)
        files = _mk_files(tmp_path, 3)
        out = str(tmp_path / "out")

        def slow(part_files, tmp_dir):
            time.sleep(0.05)
            return _write_result(part_files, tmp_dir)

        s = run_incremental(files, out, _each(slow), config_hash({}),
                            files_per_partition=1)
        assert s["plans"] == 2
        ran = s["partitions"]
        assert [p["plan_chunks"] for p in ran] == [2, 2, 1]
        for p in ran:
            assert p["plan_wall_sec"] >= 0.05 * p["plan_chunks"]
            assert abs(p["wall_sec"] - p["plan_wall_sec"] / p["plan_chunks"]) <= 0.001
            with open(os.path.join(out, f"partition={p['digest']}", "_SUCCESS.json")) as f:
                meta = json.load(f)
            assert {k: meta[k] for k in ("wall_sec", "plan_wall_sec", "plan_chunks")} == \
                {k: p[k] for k in ("wall_sec", "plan_wall_sec", "plan_chunks")}
        again = run_incremental(files, out, _each(_write_result), config_hash({}),
                                files_per_partition=1)
        assert again["plans"] == 0 and again["skipped"] == 3

    def test_process_must_return_one_metrics_per_chunk(self, tmp_path):
        files = _mk_files(tmp_path, 2)
        out = str(tmp_path / "out")
        with pytest.raises(ValueError, match="1 metrics for 2 chunks"):
            run_incremental(files, out, lambda chunks, staging: [{}], config_hash({}),
                            files_per_partition=1)
        assert not [n for n in os.listdir(out) if n.startswith("partition=")]


def _write_result(part_files, tmp_dir):
    with open(os.path.join(tmp_dir, "result.json"), "w") as f:
        json.dump(sorted(part_files), f)
    return {"n": len(part_files)}


@pytest.mark.parametrize("runner", [
    lambda files, out, **kw: run_incremental(
        files, out, _each(_write_result), config_hash({}), files_per_partition=2, **kw),
], ids=["incremental"])
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


def test_gc_sweeps_tmp_dirs_left_by_a_crashed_run(tmp_path, monkeypatch):
    monkeypatch.setattr(checkpoint, "CHUNKS_PER_PLAN", 1)
    files = _mk_files(tmp_path, 3)
    out = str(tmp_path / "out")
    cfg = config_hash({})

    def boom(part_files, tmp_dir):
        raise RuntimeError("simulated worker crash")

    with pytest.raises(RuntimeError):
        run_incremental(files, out, _each(boom), cfg, files_per_partition=2)
    stale = [n for n in os.listdir(out) if n.startswith(".tmp-partition=")]
    assert len(stale) == 1

    # the crashed chunk's membership changes, so its digest never runs again
    (tmp_path / "in0.txt").unlink()
    files = files[1:]
    s = run_incremental(files, out, _each(_write_result), cfg, files_per_partition=2)
    assert "tmp_swept" not in s and stale[0] in os.listdir(out)  # no GC asked

    s = run_incremental(files, out, _each(_write_result), cfg, files_per_partition=2,
                        gc_orphans=True)
    assert s["tmp_swept"] == 1 and "gc_removed" not in s
    assert not [n for n in os.listdir(out) if n.startswith(".tmp-")]
    assert s["skipped"] == 1


# ---- fault injection: every step of the commit protocol --------------------

_STEPS = ["tmp_mkdir", "mid_process", "stage_move", "success_write",
          "rmtree_final", "replace", "manifest_write", "gc"]


def _write_staged(chunks, staging):
    """A plan-wide ``process``: every chunk's result is written under the
    staging dir as ``__chunk=<digest>``, then each is moved into its
    chunk's tmp dir (the shape of a hive-partitioned Ray Data write)."""
    for files, _ in chunks:
        d = os.path.join(staging, f"__chunk={partition_digest(files)}")
        os.makedirs(d)
        with open(os.path.join(d, "result.json"), "w") as f:
            json.dump(sorted(files), f)
    for files, tmp_dir in chunks:
        os.replace(os.path.join(staging, f"__chunk={partition_digest(files)}"),
                   os.path.join(tmp_dir, "result"))
    return [{"n": len(files)} for files, _ in chunks]


def _tree(out):
    """What a converged run leaves: the entries of out_dir, each active
    partition's lineage + result, and the manifest's active set."""
    with open(os.path.join(out, MANIFEST)) as f:
        manifest = json.load(f)
    parts = {}
    for d in manifest["active"]:
        pdir = os.path.join(out, f"partition={d}")
        with open(os.path.join(pdir, checkpoint.SUCCESS)) as f:
            meta = json.load(f)
        with open(os.path.join(pdir, "result", "result.json")) as f:
            parts[d] = (meta["inputs"], meta["config_hash"], json.load(f))
    return sorted(os.listdir(out)), parts, manifest["active"]


@pytest.mark.parametrize("step", _STEPS)
def test_fault_after_each_commit_step_converges(tmp_path, monkeypatch, step):
    """A crash right after any step of the commit protocol — tmp mkdir,
    mid-``process``, the move of a staged ``__chunk=`` dir into its tmp dir,
    the ``_SUCCESS`` write, ``rmtree(final_dir)`` (reached by a config
    change), ``os.replace``, the manifest write, GC — leaves a tree that
    the next run turns into exactly the tree a clean run produces. The
    crashing run is a config change over an appended corpus with GC, so
    every step is reached: committed chunks re-run in one plan, the old
    trailing chunk becomes an orphan."""
    files = _mk_files(tmp_path, 6)
    base, grown = files[:5], files
    v1, v2 = config_hash({"v": 1}), config_hash({"v": 2})

    def run(out, fs, cfg, proc=_write_staged):
        return run_incremental(fs, out, proc, cfg, files_per_partition=2,
                               gc_orphans=True)

    clean = str(tmp_path / "clean")
    run(clean, base, v1)
    run(clean, grown, v2)

    out = str(tmp_path / "out")
    run(out, base, v1)

    def after(real, when):
        def wrapped(*args, **kwargs):
            result = real(*args, **kwargs)
            if when(*args):
                raise RuntimeError(f"injected fault after {step}")
            return result
        return wrapped

    def base_of(path):
        return os.path.basename(str(path))

    proc = _write_staged
    if step == "tmp_mkdir":
        monkeypatch.setattr(checkpoint.os, "makedirs", after(
            os.makedirs, lambda p, *a: base_of(p).startswith(".tmp-partition=")))
    elif step == "mid_process":
        def proc(chunks, staging):
            with open(os.path.join(chunks[0][1], "result.json"), "w") as f:
                f.write("[")
            raise RuntimeError("injected fault mid process")
    elif step == "stage_move":
        monkeypatch.setattr(checkpoint.os, "replace", after(
            os.replace, lambda src, dst: base_of(src).startswith("__chunk=")))
    elif step == "success_write":
        monkeypatch.setattr(checkpoint.json, "dump", after(
            json.dump, lambda obj, *a: "inputs" in obj))
    elif step == "rmtree_final":
        monkeypatch.setattr(checkpoint.shutil, "rmtree", after(
            shutil.rmtree, lambda p, *a: base_of(p).startswith("partition=")))
    elif step == "replace":
        monkeypatch.setattr(checkpoint.os, "replace", after(
            os.replace, lambda src, dst: base_of(dst).startswith("partition=")))
    elif step == "manifest_write":
        monkeypatch.setattr(checkpoint.os, "replace", after(
            os.replace, lambda src, dst: base_of(dst) == MANIFEST))
    else:  # gc: the first deletion after the manifest commit
        real_replace, seen = os.replace, {"manifest": False}

        def replace(src, dst):
            real_replace(src, dst)
            seen["manifest"] |= base_of(dst) == MANIFEST

        monkeypatch.setattr(checkpoint.os, "replace", replace)
        monkeypatch.setattr(checkpoint.shutil, "rmtree", after(
            shutil.rmtree, lambda p, *a: seen["manifest"]))

    with pytest.raises(RuntimeError, match="injected fault"):
        run(out, grown, v2, proc)
    monkeypatch.undo()

    s = run(out, grown, v2)
    assert _tree(out) == _tree(clean)
    # the orphaned trailing chunk is collected by whichever run gets to GC
    assert s.get("gc_removed", 0) == (0 if step == "gc" else 1)
    assert s["tmp_swept"] == 0  # a crashed chunk's tmp dir is reused on rerun
