"""Append-aware checkpoints (state/checkpoint.py run_incremental, the one
checkpoint runner): content-addressed contiguous chunks so a nightly
append to a 100 TB corpus re-validates only the chunks whose file
membership changed.

Covers: (1) pure-python chunk/digest semantics, (2) the append fast path
(full chunks skip, only trailing-partial + new chunks run, the stale
partial is reported orphaned), (3) config-change invalidation, (4) an
end-to-end run through the real validation pipeline with an appended
parquet file, and (5) a guard that no reader outside the runner names
partitions by index or globs them instead of taking the active set."""

import json
import os

import pytest

from schema_guru_ray.state import checkpoint
from schema_guru_ray.state.checkpoint import (
    config_hash,
    partition_chunks,
    partition_digest,
    run_incremental,
)


def _mk_files(tmp_path, names):
    files = []
    for n in names:
        f = tmp_path / f"{n}.txt"
        f.write_text(n)
        files.append(str(f))
    return files


def _each(one):
    """A plan-level ``process`` that runs ``one(files, tmp_dir)`` per chunk."""
    return lambda chunks, staging: [one(f, d) for f, d in chunks]


def _record(calls):
    def proc(part_files, tmp_dir):
        calls.append(sorted(part_files))
        with open(os.path.join(tmp_dir, "result.json"), "w") as f:
            json.dump(sorted(part_files), f)
        return {"n": len(part_files)}

    return _each(proc)


class TestChunking:
    def test_contiguous_chunks_and_digest_stability(self, tmp_path):
        files = _mk_files(tmp_path, [f"in{i:02d}" for i in range(7)])
        chunks = partition_chunks(files, 3)
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert chunks[0] == sorted(files)[:3]
        # digest depends only on membership, not order
        assert partition_digest(chunks[0]) == partition_digest(chunks[0][::-1])
        assert partition_digest(chunks[0]) != partition_digest(chunks[1])

    def test_append_preserves_full_chunk_digests(self, tmp_path):
        files = _mk_files(tmp_path, [f"in{i:02d}" for i in range(7)])
        before = partition_chunks(files, 3)
        grown = files + _mk_files(tmp_path, ["in07", "in08"])
        after = partition_chunks(grown, 3)
        # the two full chunks keep their identity; only the tail changes
        assert after[0] == before[0] and after[1] == before[1]
        assert partition_digest(after[2]) != partition_digest(before[2])


class TestIncrementalRun:
    def test_append_reruns_only_changed_chunks(self, tmp_path):
        files = _mk_files(tmp_path, [f"in{i:02d}" for i in range(7)])
        out = str(tmp_path / "out")
        cfg = config_hash({"v": 1})

        calls = []
        s1 = run_incremental(files, out, _record(calls), cfg, files_per_partition=3)
        assert s1["ran"] == 3 and s1["skipped"] == 0 and s1["orphaned"] == 0
        assert len(s1["active"]) == 3
        stale_partial = partition_digest(sorted(files)[6:])

        # nightly append: the partial chunk fills up + one new file arrives
        grown = files + _mk_files(tmp_path, ["in07", "in08", "in09"])
        calls2 = []
        s2 = run_incremental(grown, out, _record(calls2), cfg, files_per_partition=3)
        # chunks 0 and 1 are untouched full chunks → pure checkpoint hits
        assert s2["skipped"] == 2
        # only the re-shaped tail (in06..08) and the new chunk (in09) run
        assert s2["ran"] == 2
        assert calls2 == [sorted(grown)[6:9], sorted(grown)[9:]]
        # the superseded partial chunk is reported orphaned, left on disk
        assert s2["orphaned"] == 1
        assert s2["orphans"] == [f"partition={stale_partial}"]
        assert os.path.isdir(os.path.join(out, f"partition={stale_partial}"))
        # consumers read the ACTIVE set from the manifest, never a glob
        man = json.load(open(os.path.join(out, "_MANIFEST.json")))
        assert man["active"] == s2["active"] and len(man["active"]) == 4
        assert stale_partial not in man["active"]

    def test_identical_resubmission_is_pure_resume(self, tmp_path):
        files = _mk_files(tmp_path, [f"in{i}" for i in range(4)])
        out = str(tmp_path / "out")
        cfg = config_hash({"v": 1})
        run_incremental(files, out, _record([]), cfg, files_per_partition=2)
        calls = []
        s = run_incremental(files, out, _record(calls), cfg, files_per_partition=2)
        assert s["ran"] == 0 and s["skipped"] == 2 and calls == []

    def test_gc_orphans_removes_superseded_partitions(self, tmp_path):
        files = _mk_files(tmp_path, [f"in{i:02d}" for i in range(5)])
        out = str(tmp_path / "out")
        cfg = config_hash({"v": 1})
        run_incremental(files, out, _record([]), cfg, files_per_partition=3)
        stale = partition_digest(sorted(files)[3:])

        grown = files + _mk_files(tmp_path, ["in05"])
        s = run_incremental(grown, out, _record([]), cfg,
                            files_per_partition=3, gc_orphans=True)
        assert s["gc_removed"] == 1
        assert not os.path.exists(os.path.join(out, f"partition={stale}"))
        # the active set on disk is exactly the manifest's
        on_disk = sorted(p for p in os.listdir(out) if p.startswith("partition="))
        assert on_disk == sorted(f"partition={d}" for d in s["active"])

    def test_config_change_invalidates_all(self, tmp_path):
        files = _mk_files(tmp_path, [f"in{i}" for i in range(4)])
        out = str(tmp_path / "out")
        run_incremental(files, out, _record([]), config_hash({"v": 1}),
                        files_per_partition=2)
        s = run_incremental(files, out, _record([]), config_hash({"v": 2}),
                            files_per_partition=2)
        assert s["ran"] == 2 and s["skipped"] == 0

    def test_crash_commits_nothing_half_done(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint, "CHUNKS_PER_PLAN", 1)
        files = _mk_files(tmp_path, [f"in{i}" for i in range(4)])
        out = str(tmp_path / "out")
        cfg = config_hash({})
        state = {"calls": 0}

        def boom(part_files, tmp_dir):
            state["calls"] += 1
            if state["calls"] == 2:
                raise RuntimeError("simulated crash")
            return {"n": len(part_files)}

        with pytest.raises(RuntimeError, match="simulated"):
            run_incremental(files, out, _each(boom), cfg, files_per_partition=2)
        committed = [p for p in os.listdir(out) if p.startswith("partition=")]
        assert len(committed) == 1  # only the first chunk committed
        s = run_incremental(files, out, _record([]), cfg, files_per_partition=2)
        assert s["skipped"] == 1 and s["ran"] == 1


class TestIncrementalProperty:
    """Hypothesis: under ANY sequence of corpus mutations (appends,
    removals, mid-list inserts) and reruns, the invariants hold —
    (1) the active set partitions exactly the current file list into
    contiguous chunks, (2) every active partition's committed result was
    computed from exactly its current inputs (never a stale membership),
    (3) a chunk whose membership didn't change never re-executes."""

    def test_arbitrary_mutation_sequences(self, tmp_path):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        mutation = st.tuples(
            st.sampled_from(["add", "remove"]),
            st.integers(0, 999),
        )

        @settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(st.lists(st.lists(mutation, min_size=1, max_size=6),
                        min_size=1, max_size=4),
               st.integers(1, 4))
        def run(rounds, fpp):
            import shutil
            import tempfile

            root = tempfile.mkdtemp(dir=str(tmp_path))
            try:
                src = os.path.join(root, "src")
                out = os.path.join(root, "out")
                os.makedirs(src)
                cfg = config_hash({"v": 1})
                current = set()
                executed_for = {}  # digest -> (inputs computed from, exec count)
                prev_active = set()  # digests with a live checkpoint dir

                def proc(part_files, tmp_dir):
                    d = partition_digest(part_files)
                    n_prev = executed_for.get(d, (None, 0))[1]
                    executed_for[d] = (sorted(part_files), n_prev + 1)
                    with open(os.path.join(tmp_dir, "result.json"), "w") as f:
                        json.dump(sorted(part_files), f)
                    return {"n": len(part_files)}

                for ops in rounds:
                    for op, i in ops:
                        name = os.path.join(src, f"f{i:03d}.txt")
                        if op == "add":
                            with open(name, "w") as f:
                                f.write(str(i))
                            current.add(name)
                        elif name in current:
                            os.remove(name)
                            current.discard(name)
                    if not current:
                        continue
                    files = sorted(current)
                    before = dict(executed_for)
                    s = run_incremental(files, out, _each(proc), cfg,
                                        files_per_partition=fpp,
                                        gc_orphans=True)
                    # (1) active set == contiguous chunking of the corpus
                    chunks = [files[i:i + fpp] for i in range(0, len(files), fpp)]
                    assert s["active"] == [partition_digest(c) for c in chunks]
                    for c in chunks:
                        d = partition_digest(c)
                        pdir = os.path.join(out, f"partition={d}")
                        meta = json.load(
                            open(os.path.join(pdir, "_SUCCESS.json")))
                        res = json.load(
                            open(os.path.join(pdir, "result.json")))
                        # (2) committed result matches current membership
                        assert meta["inputs"] == c and res == c
                        # (3) a chunk already checkpointed (live dir from
                        # the previous round) never re-executes: its
                        # execution COUNT must not grow on a hit
                        if d in prev_active:
                            assert executed_for[d][1] == before[d][1]
                    skipped = [p for p in s["partitions"]
                               if p["status"] == "skipped"]
                    assert len(skipped) == sum(
                        1 for c in chunks if partition_digest(c) in prev_active)
                    prev_active = set(s["active"])
            finally:
                shutil.rmtree(root, ignore_errors=True)

        run()


class TestValidatePipelineIncremental:
    """End-to-end: the real audio-validation pipeline in incremental mode,
    with a genuine parquet append between runs."""

    def test_append_only_validates_new_chunks(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from schema_guru_ray.pipelines.validate import (
            ValidationConfig,
            run_validation_checkpointed,
        )
        from schema_guru_ray.sources.clips import generate_clips_table

        clips_dir = tmp_path / "clips"
        clips_dir.mkdir()
        tbl = generate_clips_table(120)
        for i in range(4):  # four 30-clip shards
            pq.write_table(tbl.slice(i * 30, 30), clips_dir / f"part-{i:03d}.parquet")

        out = str(tmp_path / "out")
        cfg = ValidationConfig()
        s1 = run_validation_checkpointed(
            str(clips_dir), out, cfg, files_per_partition=2)
        assert s1["ran"] == 2 and s1["skipped"] == 0
        assert sum(p["metrics"]["n_clips"] for p in s1["partitions"]) == 120

        # nightly append: one new shard lands after the existing ones
        pq.write_table(tbl.slice(0, 30), clips_dir / "part-004.parquet")
        s2 = run_validation_checkpointed(
            str(clips_dir), out, cfg, files_per_partition=2)
        # both full 2-file chunks are checkpoint hits; only the new
        # 1-file chunk decodes
        assert s2["skipped"] == 2 and s2["ran"] == 1
        ran = [p for p in s2["partitions"] if p["status"] == "ran"]
        assert ran[0]["metrics"]["n_clips"] == 30
        assert s2["orphaned"] == 0  # append aligned with chunk boundary

        # the active partitions carry real verdict parquet + lineage
        for d in s2["active"]:
            pdir = os.path.join(out, f"partition={d}")
            meta = json.load(open(os.path.join(pdir, "_SUCCESS.json")))
            assert meta["config_hash"] == s2["config_hash"]
            vd = os.path.join(pdir, "verdicts")
            assert any(f.endswith(".parquet") for f in os.listdir(vd))


def _row_multiset(frame):
    """Rows of a frame as a sorted list of tuples: list cells become
    tuples and NaN becomes None, so equal rows compare equal."""
    import math

    def cell(v):
        if hasattr(v, "tolist"):
            v = v.tolist()
        if isinstance(v, list):
            return tuple(v)
        return None if isinstance(v, float) and math.isnan(v) else v

    rows = [tuple(cell(v) for v in r) for r in frame.itertuples(index=False)]
    return list(frame.columns), sorted(rows, key=repr)


def _kll_state(raw):
    """A KLL's content with each level's item order dropped."""
    from schema_guru_ray.sketches.kll import KLL

    k = KLL.from_bytes(raw)
    return k.k, k.n, list(k.flips), [sorted(level.tolist()) for level in k.levels]


class TestValidatePlanDifferential:
    """One plan over several dirty chunks commits, for every chunk, what
    the public validation functions compute over that chunk's files alone:
    verdict and violation rows, the codec verdict table, the sketch store
    and the ``_SUCCESS`` metrics. The chunks cover a null codec, a chunk
    with no violations and a chunk whose files hold no rows."""

    def test_each_committed_chunk_matches_its_own_run(self, ray_session, tmp_path):
        import pandas as pd
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray.data as rd

        from schema_guru_ray.pipelines.validate import (
            ValidationConfig,
            build_baseline,
            codec_verdicts,
            run_validation_checkpointed,
            validate_clips,
            violations_dataset,
        )
        from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table
        from schema_guru_ray.state.sketch_store import (
            decode_codecs,
            load_baseline,
            sketch_cfg_hash,
        )

        noisy = generate_clips_table(75, ClipsConfig(
            seed=7, rate_corrupt=0.05, rate_snr=0.05, rate_transcript_mismatch=0.05,
            rate_sr_invalid=0.05, rate_dur_mismatch=0.05))
        null_codec = pa.array([i == 3 for i in range(75)])
        noisy = noisy.set_column(
            noisy.schema.get_field_index("codec"), "codec",
            pc.if_else(null_codec, pa.scalar(None, pa.string()), noisy["codec"]))
        clean = generate_clips_table(40, ClipsConfig(
            seed=8, rate_dup=0, rate_corrupt=0, rate_ref_transcript_on_bad=0,
            rate_ref_null_on_good=0, rate_snr=0, rate_transcript_mismatch=0,
            rate_sr_invalid=0, rate_dur_mismatch=0))
        shards = [noisy.slice(0, 30), noisy.slice(30, 30),  # violations + a null codec
                  clean.slice(0, 20), clean.slice(20, 20),  # no violations
                  noisy.slice(0, 0), noisy.slice(0, 0),     # zero rows
                  noisy.slice(60, 15)]                      # trailing 1-file chunk
        clips_dir = tmp_path / "clips"
        clips_dir.mkdir()
        for i, t in enumerate(shards):
            pq.write_table(t, clips_dir / f"part-{i:03d}.parquet")

        cfg = ValidationConfig()
        baseline = build_baseline(validate_clips(rd.from_arrow(clean)), cfg)
        out = str(tmp_path / "out")
        s = run_validation_checkpointed(str(clips_dir), out, cfg, baseline=baseline,
                                        files_per_partition=2)
        assert (s["ran"], s["plans"]) == (4, 1)

        def committed_rows(pdir, name):
            d = os.path.join(pdir, name)
            return pq.read_table(d).to_pandas() if os.path.isdir(d) else None

        seen_violations = set()
        for i, (entry, files) in enumerate(zip(
                s["partitions"], checkpoint.partition_chunks(
                    [str(clips_dir / f"part-{i:03d}.parquet") for i in range(7)], 2))):
            pdir = os.path.join(out, f"partition={entry['digest']}")
            oracle_dir = tmp_path / f"oracle{i}"
            verdicts = validate_clips(rd.read_parquet(files), cfg).materialize()
            violations = violations_dataset(verdicts).materialize()
            violations.write_parquet(str(oracle_dir / "violations"))
            cv, store = codec_verdicts(verdicts, cfg, baseline=baseline, return_store=True)

            for name, rows in (("verdicts", verdicts), ("violations", violations)):
                got, want = committed_rows(pdir, name), rows.to_pandas()
                if got is None:  # a write of zero rows leaves no dir either
                    assert len(want) == 0
                    continue
                assert _row_multiset(got) == _row_multiset(want)
            assert os.path.isdir(os.path.join(pdir, "violations")) == \
                os.path.isdir(oracle_dir / "violations")
            seen_violations.add(violations.count() > 0)

            cv.assign(violations_by_kind=cv["violations_by_kind"].map(json.dumps)) \
                .to_parquet(oracle_dir / "cv.parquet")
            pd.testing.assert_frame_equal(
                pd.read_parquet(os.path.join(pdir, "codec_verdicts.parquet")),
                pd.read_parquet(oracle_dir / "cv.parquet"))

            got_store, got_meta = load_baseline(os.path.join(pdir, "sketches.json"))
            assert got_meta["cfg_hash"] == sketch_cfg_hash(cfg)
            assert got_meta["meta"] == {"n_clips": verdicts.count()}
            assert {c: {col: _kll_state(b) for col, b in cols.items()}
                    for c, cols in got_store.items()} == \
                {c: {col: _kll_state(b) for col, b in cols.items()}
                 for c, cols in decode_codecs(store).items()}

            with open(os.path.join(pdir, "_SUCCESS.json")) as f:
                meta = json.load(f)
            assert meta["inputs"] == files and meta["plan_chunks"] == 4
            assert meta["metrics"] == entry["metrics"] == {
                "n_clips": verdicts.count(),
                "n_ok": int(cv["n_ok"].sum()),
                "n_violations": int(cv["n_violations"].sum()),
                "codecs_passed": int(cv["passed"].sum()),
                "codecs_total": int(len(cv)),
            }
        # the cases the chunks were built to cover all occurred
        assert seen_violations == {True, False}
        assert [p["metrics"]["n_clips"] for p in s["partitions"]] == [60, 40, 0, 15]
        assert s["partitions"][0]["metrics"]["codecs_total"] == 5  # the null codec is one


def test_partition_set_comes_only_from_the_runner():
    """Only state/checkpoint.py knows how partition dirs are named: no
    module in the package or jobs/ names a partition by index or globs
    ``partition=*`` — readers take the run summary's or the manifest's
    active set, so orphaned chunks are never read. Only the runner names
    tmp and staging dirs (``.tmp-partition``), so its GC sweep collects
    every one a crash leaves. The striped runner stays gone."""
    import pathlib
    import re

    repo = pathlib.Path(__file__).resolve().parent.parent
    banned = re.compile(
        r"\brun_partitioned\b|\bpartition_inputs\b|\bis_partition_done\b"
        r"|partition=(\d{4}|NNNN|\{[^}]*:0?4d\})|partition=\*|\.tmp-partition")
    hits = []
    for root in ("schema_guru_ray", "jobs"):
        for path in sorted((repo / root).rglob("*.py")):
            rel = path.relative_to(repo).as_posix()
            if rel == "schema_guru_ray/state/checkpoint.py":
                continue
            for no, line in enumerate(path.read_text().splitlines(), 1):
                if banned.search(line):
                    hits.append(f"{rel}:{no}: {line.strip()}")
    assert not hits, "\n".join(hits)
