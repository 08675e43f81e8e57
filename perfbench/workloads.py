"""The three benchmark workloads: validate_full, infer_json, append_incremental.

Each workload builds its seeded corpus under a directory it is given
(:meth:`build`, timed as set-up), then runs one job per call: :meth:`iterate`
calls the public pipeline functions the way a user's job does, and
:meth:`iterate_traced` runs the same job stage by stage, with
``materialize()`` between stages and a span around each call into a layer.
Both check the job's outputs against facts known from the generator and
raise :class:`CheckFailed` when one does not hold.
"""

from __future__ import annotations

import os
import shutil
from collections import Counter
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from events import ENUM_CARDINALITY, TYPED_COLUMNS, make_events, shard_tables
from spans import Tracer


class CheckFailed(AssertionError):
    """A job finished but one of its outputs is wrong."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _write_clip_shards(out_dir: str, shards: range, per_shard: int, seed: int):
    """Write the given shards of the seeded clips corpus (names sort by shard
    number, so later shards sort after earlier ones). Returns the
    generator's labels and clip ids, row by row."""
    from schema_guru_ray.sources.clips import CLIPS_SCHEMA, ClipsConfig, generate_rows

    cfg = ClipsConfig(seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    labels: List = []
    clip_ids: List = []
    for s in shards:
        cols, lab = generate_rows(
            np.arange(s * per_shard, (s + 1) * per_shard), cfg, with_labels=True)
        pq.write_table(pa.Table.from_pydict(cols, schema=CLIPS_SCHEMA),
                       os.path.join(out_dir, f"part-{s:05d}.parquet"))
        labels.extend(lab)
        clip_ids.extend(cols["clip_id"])
    return labels, clip_ids


def _detectable(labels: List[str]) -> List[str]:
    """The violation kinds the validator reports for a row the generator
    labelled ``labels``. A duplicate id is found by dedup, not per row, and
    the duration of audio that does not decode cannot be measured, so the
    generator's ``dur_inconsistent`` on such a row is not reported."""
    undecodable = "undecodable_audio" in labels
    return [k for k in labels if k != "duplicate_clip_id"
            and not (undecodable and k == "dur_inconsistent")]


def _partials_probe(tr: Tracer, verdicts) -> None:
    """The per-batch CodecAgg states codec_verdicts folds, materialized on
    their own so their row count, bytes and build time can be read."""
    from schema_guru_ray.pipelines.validate import CodecPartialAggregator, ValidationConfig

    with tr.span("pipelines.validate.partials") as c:
        partials = verdicts.map_batches(
            CodecPartialAggregator(ValidationConfig()),
            batch_format="pyarrow", batch_size=None).materialize()
        c["rows"] = partials.count()
        c["bytes"] = partials.size_bytes()


class ValidateFull:
    """Full validation of a sharded clips corpus: decode + SNR per clip,
    per-codec verdicts through the tree fold, violation rows, exact dedup."""

    name = "validate_full"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        # 24 shards of 512 clips: one validator batch per shard, so the
        # codec fold sees 24 x 4 codecs x 8 salts = 768 partial states,
        # above the 512 at which codec_verdicts leaves the driver fold
        self.n_shards, self.per_shard = (4, 128) if smoke else (24, 512)
        self.rows_per_job = self.n_shards * self.per_shard

    def build(self, d: str) -> None:
        self.path = os.path.join(d, "clips")
        labels, ids = _write_clip_shards(
            self.path, range(self.n_shards), self.per_shard, self.seed)
        expected = [_detectable(ls) for ls in labels]
        self.kinds = Counter(k for ks in expected for k in ks)
        self.n_ok = sum(1 for ks in expected if not ks)
        self.copies = {cid: n for cid, n in Counter(ids).items() if n > 1}

    def prepare(self) -> None:
        pass

    def iterate(self) -> None:
        from schema_guru_ray.pipelines.validate import (
            codec_verdicts, duplicate_clip_ids, validate_clips, violations_dataset)
        from schema_guru_ray.sources.clips import read_clips

        verdicts = validate_clips(read_clips(self.path)).materialize()
        cv = codec_verdicts(verdicts)
        viol = violations_dataset(verdicts).to_pandas()
        dups = duplicate_clip_ids(verdicts).to_pandas()
        self._check(cv, viol, dups)

    def iterate_traced(self, tr: Tracer) -> None:
        from schema_guru_ray.pipelines.validate import (
            codec_verdicts, duplicate_clip_ids, validate_clips, violations_dataset)
        from schema_guru_ray.sources.clips import read_clips

        with tr.span("job"):
            with tr.span("sources.read") as c:
                clips = read_clips(self.path).materialize()
                c["blocks"] = clips.num_blocks()
                c["bytes"] = clips.size_bytes()
            with tr.span("stages.audio.validate"):
                verdicts = validate_clips(clips).materialize()
            tr.record_stats("stages.audio.validate", verdicts)
            with tr.span("pipelines.validate.codec_verdicts"):
                cv = codec_verdicts(verdicts)
            with tr.span("pipelines.validate.violations") as c:
                viol = violations_dataset(verdicts).to_pandas()
                c["rows"] = len(viol)
            with tr.span("pipelines.validate.dedup"):
                dups = duplicate_clip_ids(verdicts).to_pandas()
        _partials_probe(tr, verdicts)
        self._check(cv, viol, dups)

    def _check(self, cv, viol, dups) -> None:
        # a Dataset with no rows comes back as a frame without columns
        check(Counter(viol.get("kind", [])) == self.kinds, "violation kinds differ from labels")
        check(int(cv["n_clips"].sum()) == self.rows_per_job, "n_clips")
        check(int(cv["n_ok"].sum()) == self.n_ok, "n_ok")
        check(int(cv["n_violations"].sum()) == sum(self.kinds.values()), "n_violations")
        check(dict(zip(dups.get("clip_id", []), dups.get("n_copies", []))) == self.copies,
              "duplicate clip ids")


class InferJson:
    """Schema inference over nested JSON events and typed columns, per-segment
    inference, then validation of a perturbed copy against the schema."""

    name = "infer_json"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.n_docs, self.n_shards = (600, 2) if smoke else (6000, 6)
        self.rows_per_job = self.n_docs

    def build(self, d: str) -> None:
        from schema_guru_ray.context import SchemaContext

        corpus = make_events(self.n_docs, self.seed)
        self.path = os.path.join(d, "events")
        self.perturbed_path = os.path.join(d, "perturbed")
        for path, table in ((self.path, corpus.table), (self.perturbed_path, corpus.perturbed)):
            os.makedirs(path)
            for i, shard in enumerate(shard_tables(table, self.n_shards)):
                pq.write_table(shard, os.path.join(path, f"part-{i:05d}.parquet"))
        self.ctx = SchemaContext(enum_cardinality=ENUM_CARDINALITY)
        self.n_bad = len(corpus.bad_ids)
        self.flagged = corpus.bad_ids | corpus.perturbed_ids
        self.event_types = corpus.event_types

    def prepare(self) -> None:
        pass

    def iterate(self) -> None:
        import ray.data as rd

        from schema_guru_ray.pipelines.infer import infer_schema, infer_schema_segmented
        from schema_guru_ray.pipelines.validate_schema import validate_against_schema

        ds = rd.read_parquet(self.path)
        res = infer_schema(ds, self.ctx, json_column="doc")
        typed = infer_schema(ds.select_columns(list(TYPED_COLUMNS)), self.ctx)
        seg = infer_schema_segmented(
            ds.select_columns(["doc", "event"]), "event", self.ctx, json_column="doc").take_all()
        viol = validate_against_schema(
            rd.read_parquet(self.perturbed_path), res["schema"],
            json_column="doc", id_column="id").to_pandas()
        self._check(res, typed, seg, viol)

    def iterate_traced(self, tr: Tracer) -> None:
        from dataclasses import replace

        import ray.data as rd

        from schema_guru_ray.pipelines.infer import (
            fold_states, infer_schema, infer_schema_segmented)
        from schema_guru_ray.pipelines.validate_schema import validate_against_schema
        from schema_guru_ray.schema.finalize import merge_and_transform
        from schema_guru_ray.stages.derive import StateBatcher

        batch_size = 8192  # infer_schema's default
        with tr.span("job"):
            with tr.span("sources.read") as c:
                ds = rd.read_parquet(self.path).materialize()
                c["blocks"] = ds.num_blocks()
                c["bytes"] = ds.size_bytes()
            with tr.span("pipelines.infer.json"):
                ctx = replace(self.ctx, quantity=ds.count())
                with tr.span("stages.derive.json"):
                    states = ds.map_batches(
                        StateBatcher(ctx, json_column="doc"),
                        batch_format="pyarrow", batch_size=batch_size).materialize()
                tr.record_stats("stages.derive.json", states)
                with tr.span("pipelines.infer.fold"):
                    folded = fold_states(states, ctx,
                                         est_states=-(-self.n_docs // batch_size))
                with tr.span("schema.finalize.transform"):
                    schema = merge_and_transform(folded["state"], ctx)
            res = {"schema": schema, "n_rows": folded["n_rows"],
                   "n_errors": folded["n_errors"]}
            with tr.span("pipelines.infer.typed"):
                typed = infer_schema(ds.select_columns(list(TYPED_COLUMNS)), self.ctx)
            with tr.span("pipelines.infer.segmented"):
                seg = infer_schema_segmented(
                    ds.select_columns(["doc", "event"]), "event", self.ctx,
                    json_column="doc").take_all()
            with tr.span("pipelines.validate_schema.validate") as c:
                viol = validate_against_schema(
                    rd.read_parquet(self.perturbed_path), schema,
                    json_column="doc", id_column="id").to_pandas()
                c["rows"] = len(viol)
        self._check(res, typed, seg, viol)

    def _check(self, res, typed, seg, viol) -> None:
        check(res["n_rows"] == self.n_docs, "json n_rows")
        check(res["n_errors"] == self.n_bad, "json n_errors")
        check(typed["n_rows"] == self.n_docs and typed["n_errors"] == 0, "typed counts")
        check(set(typed["schema"]["properties"]) == set(TYPED_COLUMNS), "typed columns")
        check({r["segment"] for r in seg} == self.event_types, "segments")
        check(sum(r["n_rows"] for r in seg) == self.n_docs, "segmented n_rows")
        check(sum(r["n_errors"] for r in seg) == self.n_bad, "segmented n_errors")
        # exactly one violation per broken or perturbed document, none elsewhere
        check(len(viol) == len(self.flagged), "violation count")
        check({int(i) for i in viol.get("row_id", [])} == self.flagged, "violating rows")


def _chunks(names: List[str], k: int) -> List[tuple]:
    names = sorted(names)
    return [tuple(names[i:i + k]) for i in range(0, len(names), k)]


class AppendIncremental:
    """Nightly append: a committed content-addressed checkpoint tree gets new
    shards; the resubmission runs only the changed chunks, collects orphans,
    then rebuilds the corpus baseline and scores drift per partition."""

    name = "append_incremental"
    files_per_partition = 2

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        # 7 base shards leave a one-file trailing chunk, so the append
        # both re-runs a changed chunk and orphans (then collects) its
        # previous version
        self.n_base, self.n_added, self.per_shard = (3, 2, 64) if smoke else (7, 4, 256)

    def build(self, d: str) -> None:
        from schema_guru_ray.pipelines.validate import run_validation_checkpointed

        self.clips = os.path.join(d, "clips")
        self.added = os.path.join(d, "added")
        self.out = os.path.join(d, "out")
        self.snapshot = os.path.join(d, "snapshot")
        _write_clip_shards(self.clips, range(self.n_base), self.per_shard, self.seed)
        _write_clip_shards(self.added, range(self.n_base, self.n_base + self.n_added),
                           self.per_shard, self.seed)
        summary = run_validation_checkpointed(
            self.clips, self.out, files_per_partition=self.files_per_partition)
        check(summary["ran"] == len(_chunks(os.listdir(self.clips), self.files_per_partition)),
              "initial run")
        shutil.copytree(self.out, self.snapshot)

        base = sorted(os.listdir(self.clips))
        every = base + sorted(os.listdir(self.added))
        old = set(_chunks(base, self.files_per_partition))
        new = _chunks(every, self.files_per_partition)
        self.ran_chunks = [c for c in new if c not in old]
        self.expect_ran = len(self.ran_chunks)
        self.expect_skipped = len(new) - self.expect_ran
        self.expect_orphans = len(old - set(new))
        self.n_clips = len(every) * self.per_shard
        self.rows_per_job = sum(len(c) for c in self.ran_chunks) * self.per_shard

    def prepare(self) -> None:
        """Put back last night's committed tree and copy today's new shards
        in (untimed)."""
        shutil.rmtree(self.out)
        shutil.copytree(self.snapshot, self.out)
        for f in os.listdir(self.added):
            shutil.copy(os.path.join(self.added, f), os.path.join(self.clips, f))

    def _resubmit(self):
        from schema_guru_ray.pipelines.validate import run_validation_checkpointed

        return run_validation_checkpointed(
            self.clips, self.out, files_per_partition=self.files_per_partition,
            gc_orphans=True)

    def iterate(self) -> None:
        from schema_guru_ray.pipelines.validate import drift_by_partition, merge_partition_baselines

        summary = self._resubmit()
        store, n_clips = merge_partition_baselines(self.out, active=summary["active"])
        drift = drift_by_partition(self.out, store, active=summary["active"])
        self._check(summary, n_clips, drift)

    def iterate_traced(self, tr: Tracer) -> None:
        import ray.data as rd

        from schema_guru_ray.pipelines.validate import (
            codec_verdicts, drift_by_partition, merge_partition_baselines, validate_clips)
        from schema_guru_ray.state.sketch_store import load_baseline, merge_stores

        with tr.span("job"):
            with tr.span("state.checkpoint.resubmit") as resubmit:
                summary = self._resubmit()
            with tr.span("pipelines.validate.merge_baselines"):
                store, n_clips = merge_partition_baselines(self.out, active=summary["active"])
            with tr.span("pipelines.validate.drift"):
                drift = drift_by_partition(self.out, store, active=summary["active"])
        self._check(summary, n_clips, drift)

        ran = [p for p in summary["partitions"] if p["status"] == "ran"]
        resubmit.update(
            ran=summary["ran"],
            skipped=summary["skipped"],
            partition_s=float(np.median([p["wall_sec"] for p in ran])),
            bytes_per_clip=sum(
                _dir_bytes(os.path.join(self.out, f"partition={p['digest']}")) for p in ran
            ) / sum(p["metrics"]["n_clips"] for p in ran),
            violations=sum(p["metrics"]["n_violations"] for p in ran),
        )
        with tr.span("state.checkpoint.noop_resume"):
            again = self._resubmit()
            check(again["ran"] == 0, "resume over a committed tree re-ran work")
        sketch_files = [os.path.join(self.out, f"partition={d}", "sketches.json")
                        for d in summary["active"]]
        with tr.span("state.sketch_store.load_merge") as c:
            merge_stores([load_baseline(f)[0] for f in sketch_files])
            c["kb"] = float(np.mean([os.path.getsize(f) for f in sketch_files])) / 1024

        # one re-run chunk, stage by stage: the fold regime a checkpoint
        # partition takes
        files = [os.path.join(self.clips, f) for f in self.ran_chunks[0]]
        with tr.span("sources.read") as c:
            clips = rd.read_parquet(files).materialize()
            c["blocks"] = clips.num_blocks()
            c["bytes"] = clips.size_bytes()
        with tr.span("stages.audio.validate"):
            verdicts = validate_clips(clips).materialize()
        tr.record_stats("stages.audio.validate", verdicts)
        with tr.span("pipelines.validate.codec_verdicts"):
            codec_verdicts(verdicts)
        _partials_probe(tr, verdicts)

    def _check(self, summary: Dict, n_clips: int, drift) -> None:
        check(summary["ran"] == self.expect_ran, "chunks ran")
        check(summary["skipped"] == self.expect_skipped, "chunks skipped")
        check(summary.get("gc_removed", 0) == self.expect_orphans, "orphans collected")
        check(n_clips == self.n_clips, "merged baseline n_clips")
        check(set(drift["partition"]) == set(summary["active"]), "drift partitions")
        left = {p for p in os.listdir(self.out) if p.startswith("partition=")}
        check(left == {f"partition={d}" for d in summary["active"]}, "partition dirs")


WORKLOADS = {w.name: w for w in (ValidateFull, InferJson, AppendIncremental)}

