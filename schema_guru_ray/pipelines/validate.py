"""Flagship constraint-validation pipeline over the clips table.

Topology (SURVEY.md §3.5):

    read clips → map_batches(warm_kernel(ClipValidator))  [bytes dropped here]
      → verdicts Dataset (streams; audio never crosses a shuffle)
      → materialized verdicts coalesce to TAIL_ROWS-row blocks  [no shuffle]
      ├─ write/consume verdict rows + exploded violation rows
      ├─ exact clip_id dedup: sort-based groupby of hash buckets of the ids
      └─ per-codec aggregate: one CodecAgg partial per codec per block
         → fold_keyed by codec (schema_guru_ray.fold) → driver finalize
         (codec is Zipf-skewed by construction; the map-side combiner
         collapses a hot codec to one state per block before any shuffle)

Only tiny pickled aggregate states shuffle; the wide ``bytes`` column is
projected away by the validator stage itself.

A checkpointed run (:func:`run_validation_checkpointed`) runs this topology
once per plan of dirty chunks, not once per chunk:

    read every dirty file (include_paths) → path → ``__chunk`` digest
      → validate (the tag rides through) → materialize + coalesce once
      ├─ verdicts, violations: write_parquet(partition_cols=["__chunk"])
      │    into the plan's staging dir → each ``__chunk=<digest>`` subdir
      │    moves into its chunk's tmp dir
      └─ per-(chunk, codec) partials → fold_keyed by (__chunk, codec)
           → driver finalize per chunk: codec_verdicts.parquet + sketches.json

and the runner then commits each chunk on its own. The baseline merge and
the per-partition drift report read the committed sketch blobs through
``fold.map_items``.
"""

from __future__ import annotations

import math
import pickle
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from schema_guru_ray.fold import DRIVER_FOLD_ROWS, fold_keyed, map_items
from schema_guru_ray.sketches.drift import ks_statistic, psi
from schema_guru_ray.sketches.hll import HLL
from schema_guru_ray.sketches.kll import KLL
from schema_guru_ray.stages.audio import ClipValidator, explode_violations
from schema_guru_ray.stages.profile import stable_hash64
from schema_guru_ray.stages.warm import warm_kernel
from schema_guru_ray.state.checkpoint import (
    FILES_PER_PARTITION,
    active_dirs,
    config_hash,
    partition_digest,
    run_incremental,
)
from schema_guru_ray.state.sketch_store import NULL_CODEC, decode_codecs


@dataclass(frozen=True)
class ValidationConfig:
    snr_threshold_db: float = 30.0
    check_transcript: bool = True
    strict_codecs: bool = False
    pass_violation_rate: float = 0.02  # per-codec verdict threshold
    pass_psi: float = 0.25  # drift verdict threshold (industry convention)
    hll_p: int = 12
    kll_k: int = 800  # tail accuracy: q0.99 err 2% vs 12.5% at k=200, state ~15 KB
    validator_batch_size: int = 512


def validate_clips(ds, cfg: ValidationConfig = ValidationConfig()):
    """clips Dataset → verdicts Dataset (lazy). The validator state (decoder
    registry + thresholds) loads once per worker process; audio bytes do
    not flow past this stage."""
    validator = warm_kernel(
        ClipValidator,
        snr_threshold_db=cfg.snr_threshold_db,
        check_transcript=cfg.check_transcript,
        strict_codecs=cfg.strict_codecs,
    )
    return ds.map_batches(
        validator, batch_format="pyarrow", batch_size=cfg.validator_batch_size
    )


# rows per block once materialized verdicts reach the tail operators: the
# validator batch (512 clips) is far too small a unit for a Ray task over
# tiny verdict rows
TAIL_ROWS = 4096


def _is_materialized(ds) -> bool:
    from ray.data.dataset import MaterializedDataset

    return isinstance(ds, MaterializedDataset)


def _coalesced(verdicts):
    """Materialized verdicts with adjacent blocks joined into
    ``ceil(rows / TAIL_ROWS)`` blocks (a split repartition, no shuffle), so
    each tail operator pays one Ray task per block of that size rather than
    per validator batch. Lazy input, and input already at that many blocks
    or fewer, come back unchanged: a lazy tail map fuses into the decode
    tasks, and materializing it here would move every verdict row through
    the object store."""
    if not _is_materialized(verdicts):
        return verdicts
    k = max(1, math.ceil(verdicts.count() / TAIL_ROWS))
    if verdicts.num_blocks() <= k:
        return verdicts
    return verdicts.repartition(k)


def violations_dataset(verdicts):
    """Long-format violation rows (clip_id, codec, kind) — the error sink
    analogue (reference SchemaDerive.scala:58-62), written as a Dataset,
    never collected to the driver."""
    return _coalesced(verdicts).map_batches(explode_violations, batch_format="pyarrow")


def duplicate_clip_ids(verdicts):
    """Exact uniqueness check on clip_id (SURVEY.md §2.7 D4): ids are
    hash-bucketed and each bucket counted after a sort-based groupby →
    groups with count > 1. Lazy input has its id projection materialized
    first so the decode-heavy validate map never shares a streaming plan
    with the groupby's all-to-all (whose resource reservation would starve
    it — see codec_verdicts); materialized input is already behind that
    boundary."""
    from schema_guru_ray.stages.joins import bucketed_aggregate

    if not _is_materialized(verdicts):
        verdicts = verdicts.select_columns(["clip_id"]).materialize()
    ids = _coalesced(verdicts).select_columns(["clip_id"])
    # clip_id is a groups≈rows key: bucketed vectorized count, not the
    # native per-group aggregate (round-5 trap — see bucketed_aggregate)
    counts = bucketed_aggregate(
        ids, "clip_id", {"n_copies": ("clip_id", "size")},
        n_rows=verdicts.count(),
    )
    return counts.map_batches(
        lambda t: t.filter(pc.greater(t["n_copies"], 1)),
        batch_format="pyarrow",
    )


# --- per-codec aggregate ----------------------------------------------------


@dataclass
class CodecAgg:
    """Mergeable per-codec validation aggregate."""

    n: int = 0
    n_ok: int = 0
    viol_counts: Counter = field(default_factory=Counter)
    clip_hll: Optional[HLL] = None
    dur_kll: Optional[KLL] = None
    sr_kll: Optional[KLL] = None
    snr_kll: Optional[KLL] = None

    def merge(self, other: "CodecAgg") -> "CodecAgg":
        def m(a, b):
            return a.merge(b) if a is not None and b is not None else (a or b)

        out = CodecAgg(
            n=self.n + other.n,
            n_ok=self.n_ok + other.n_ok,
            viol_counts=self.viol_counts + other.viol_counts,
            clip_hll=m(self.clip_hll, other.clip_hll),
            dur_kll=m(self.dur_kll, other.dur_kll),
            sr_kll=m(self.sr_kll, other.sr_kll),
            snr_kll=m(self.snr_kll, other.snr_kll),
        )
        return out


# codec_verdicts folds on the driver when the partial-state row count is at
# most this (one row per codec per verdict block, ~16 KB of pickled
# sketches for a TAIL_ROWS block: a bounded pull). Re-exported from
# schema_guru_ray.fold so the benchmark can report the regime.
DRIVER_FOLD_PARTIALS = DRIVER_FOLD_ROWS


class CodecPartialAggregator:
    """map_batches kernel over verdict batches → one pickled CodecAgg per
    codec per batch (per ``(__chunk, codec)`` when a checkpoint plan
    tagged the rows with their chunk)."""

    def __init__(self, cfg: ValidationConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        hashes = stable_hash64(batch["clip_id"].to_pandas())
        # a null codec (broken upstream field) is one GROUP, per SQL GROUP BY
        # semantics — encoded as a sentinel string so every fold level sees
        # a totally ordered key; decoded back to None in the finalize loop.
        # np.unique over a None-bearing object array would TypeError here;
        # fill_null keeps the encoding vectorized.
        codecs = np.asarray(
            pc.fill_null(batch["codec"], NULL_CODEC).to_pylist()
        )
        oks = batch["ok"].to_numpy(zero_copy_only=False)
        # int32-with-nulls converts to float64 NaN; NaN must not enter the
        # KLLs (it poisons every quantile comparison downstream)
        durs = batch["dur_ms"].to_numpy(zero_copy_only=False).astype(np.float64)
        srs = batch["sr_hz"].to_numpy(zero_copy_only=False).astype(np.float64)
        snrs = batch["snr_db"].to_numpy(zero_copy_only=False)

        def _finite(x):
            return x[~np.isnan(x)]

        viols = batch["violations"].to_pylist()
        tagged = "__chunk" in batch.column_names
        chunks = (np.asarray(batch["__chunk"].to_pylist()) if tagged
                  else np.zeros(len(codecs), dtype=object))

        rows = []
        for chunk, codec in sorted(set(zip(chunks, codecs))):
            mask = (chunks == chunk) & (codecs == codec)
            agg = CodecAgg(
                n=int(mask.sum()),
                n_ok=int(oks[mask].sum()),
                viol_counts=Counter(
                    k for i in np.nonzero(mask)[0] for k in viols[i]
                ),
                clip_hll=HLL(cfg.hll_p).add_hashes(hashes[mask]),
                dur_kll=KLL(cfg.kll_k).add_many(_finite(durs[mask])),
                sr_kll=KLL(cfg.kll_k).add_many(_finite(srs[mask])),
                snr_kll=KLL(cfg.kll_k).add_many(_finite(snrs[mask])),
            )
            row = {"codec": str(codec), "agg": pickle.dumps(agg)}
            rows.append({"__chunk": str(chunk), **row} if tagged else row)
        fields = [("codec", pa.string()), ("agg", pa.binary())]
        if tagged:
            fields.insert(0, ("__chunk", pa.string()))
        return pa.Table.from_pylist(rows, schema=pa.schema(fields))


def _combine_codec_aggs(frame: pd.DataFrame, key: List[str]) -> pd.DataFrame:
    """Merge CodecAgg states per distinct ``key`` value."""
    rows = []
    for vals, g in frame.groupby(key, sort=False, dropna=False):
        acc: Optional[CodecAgg] = None
        for buf in g["agg"]:
            a = pickle.loads(buf)
            acc = a if acc is None else acc.merge(a)
        rows.append({**dict(zip(key, vals)), "agg": pickle.dumps(acc)})
    return pd.DataFrame(rows, columns=[*key, "agg"])


def _fold_codec_aggs(verdicts, cfg: ValidationConfig, key: List[str]) -> pd.DataFrame:
    """One merged CodecAgg per ``key`` value over ``verdicts``: per-block
    partials (over the coalesced blocks) folded by :func:`fold_keyed`."""
    partials = _coalesced(verdicts).map_batches(
        CodecPartialAggregator(cfg), batch_format="pyarrow", batch_size=None
    )
    return fold_keyed(partials, key, lambda frame: _combine_codec_aggs(frame, key))


_VERDICT_DTYPES = {
    "codec": object, "n_clips": "int64", "n_ok": "int64", "n_violations": "int64",
    "violation_rate": "float64", "violations_by_kind": object,
    "approx_distinct_clips": "float64", "approx_dup_ratio": "float64",
    "dur_p50": "float64", "dur_p95": "float64", "snr_p50": "float64", "passed": "bool",
}


def codec_verdicts(
    verdicts,
    cfg: ValidationConfig = ValidationConfig(),
    baseline: Optional[Dict[str, Dict[str, bytes]]] = None,
    return_store: bool = False,
):
    """verdicts Dataset → per-codec pass/fail verdict table (small, pandas).

    ``return_store=True`` additionally returns the baseline sketch store
    {codec: {col: KLL bytes}} extracted from the SAME aggregation pass
    (zero extra execution) as ``(cv_df, store)`` — the checkpointed runner
    commits it per partition so baseline refreshes never re-aggregate
    verdict rows.

    The per-batch partials fold by codec through
    :func:`schema_guru_ray.fold.fold_keyed`, then the driver finalizes
    each codec (counts, HLL distinct, KLL quantiles, PSI/KS drift vs the
    baseline store, pass/fail). Materialized verdicts are first coalesced
    into ``TAIL_ROWS``-row blocks (:func:`_coalesced`), so the aggregator
    builds one partial per codec per block. ``batch_size=None`` on the
    partial aggregator is load-bearing for LAZY input (measured on the
    250k-clip scaling corpus at 8 CPUs): it inherits the upstream
    (validator) batching. A fixed large batch_size LOOKS harmless — the
    aggregator reads tiny verdict rows — but map-fusion propagates it UP
    into the fused read→validate→aggregate task and re-batches the wide
    binary clips into ~batch_size×38KB bundles. ``fold_keyed``
    materializes the partials before any shuffle, so the decode map never
    shares a streaming plan with an all-to-all whose resource reservation
    would starve it (measured 274 s → 55 s at 8 CPUs).

    The store keys the null codec as ``NULL_CODEC``, so it persists as
    JSON; a baseline may key it either way.
    """
    folded = _fold_codec_aggs(verdicts, cfg, ["codec"])
    return _finalize_codecs(folded, cfg, baseline, return_store)


def _finalize_codecs(folded: pd.DataFrame, cfg: ValidationConfig,
                     baseline: Optional[Dict[str, Dict[str, bytes]]],
                     return_store: bool):
    """The driver half of :func:`codec_verdicts`: one folded CodecAgg row
    per codec → the verdict table (and the sketch store)."""
    baseline = decode_codecs(baseline) if baseline else baseline
    rows = []
    store: Dict[str, Dict[str, bytes]] = {}
    for row in folded.to_dict("records"):
        codec = None if row["codec"] == NULL_CODEC else row["codec"]
        agg: CodecAgg = pickle.loads(row["agg"])
        if return_store:
            store[row["codec"]] = {
                "dur_ms": agg.dur_kll.to_bytes(),
                "sr_hz": agg.sr_kll.to_bytes(),
            }
        viol_total = sum(agg.viol_counts.values())
        rate = viol_total / max(1, agg.n)
        distinct = agg.clip_hll.estimate() if agg.clip_hll else 0.0
        rec = {
            "codec": codec,
            "n_clips": agg.n,
            "n_ok": agg.n_ok,
            "n_violations": viol_total,
            "violation_rate": rate,
            "violations_by_kind": dict(sorted(agg.viol_counts.items())),
            "approx_distinct_clips": distinct,
            "approx_dup_ratio": max(0.0, 1.0 - distinct / max(1, agg.n)),
            "dur_p50": agg.dur_kll.quantile(0.5) if agg.dur_kll and agg.dur_kll.n else None,
            "dur_p95": agg.dur_kll.quantile(0.95) if agg.dur_kll and agg.dur_kll.n else None,
            "snr_p50": agg.snr_kll.quantile(0.5) if agg.snr_kll and agg.snr_kll.n else None,
        }
        drift_fail = False
        if baseline and codec in baseline:
            base = baseline[codec]
            for col, sk in (("dur_ms", agg.dur_kll), ("sr_hz", agg.sr_kll)):
                # sk.n == 0 ⇔ the column was all-NULL for this codec group:
                # there is no current distribution to drift-score
                if col in base and sk is not None and sk.n:
                    b = KLL.from_bytes(base[col])
                    rec[f"psi_{col}"] = psi(b, sk)
                    rec[f"ks_{col}"] = ks_statistic(b, sk)
                    drift_fail = drift_fail or rec[f"psi_{col}"] > cfg.pass_psi
        rec["passed"] = bool(rate <= cfg.pass_violation_rate and not drift_fail)
        rows.append(rec)
    if not rows:
        # empty shard-day: typed zero-row verdict table, not a KeyError on
        # sort_values over a columnless frame
        cv = pd.DataFrame(columns=list(_VERDICT_DTYPES)).astype(_VERDICT_DTYPES)
        return (cv, store) if return_store else cv
    # None codec sorts last (na_position default) — deterministic order
    cv = pd.DataFrame(rows).sort_values("codec", na_position="last").reset_index(drop=True)
    return (cv, store) if return_store else cv


def _tag_chunks(batch: pa.Table, chunk_of: Dict[str, str]) -> pa.Table:
    """Replace the ``path`` column of a read with ``__chunk``, the digest of
    the checkpoint chunk the row's file belongs to."""
    paths = batch["path"].combine_chunks().dictionary_encode()
    digests = pa.array([chunk_of[p] for p in paths.dictionary.to_pylist()], pa.string())
    return batch.drop_columns(["path"]).append_column("__chunk", pc.take(digests, paths.indices))


def run_validation_checkpointed(
    clips_dir: str,
    out_dir: str,
    cfg: ValidationConfig = ValidationConfig(),
    baseline: Optional[Dict[str, Dict[str, bytes]]] = None,
    files_per_partition: int = FILES_PER_PARTITION,
    gc_orphans: bool = False,
    log=None,
):
    """Checkpointed flagship run: the sorted clips parquet files are
    grouped into content-addressed chunks of ``files_per_partition``
    files. The chunks to run are validated together, one Ray Data plan per
    ``checkpoint.CHUNKS_PER_PLAN`` chunks (see the module docstring); each
    chunk gets its own verdicts/violations parquet, codec verdicts and
    sketches, the same as a run over its files alone, and commits an
    atomic ``_SUCCESS.json`` with lineage + metrics. A rerun skips
    finished chunks, and a nightly resubmission over a grown corpus
    re-validates only the chunks whose file membership changed (see
    state/checkpoint.py). ``gc_orphans`` deletes the chunks the new
    partitioning superseded."""
    import glob
    import json
    import os

    import ray.data as rd

    files = sorted(glob.glob(os.path.join(clips_dir, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet files under {clips_dir}")

    def process(chunks, staging):
        # one Ray Data plan over every dirty chunk: rows carry their
        # chunk's digest, each write lands one hive subdir per chunk, and
        # the codec fold keys on (chunk, codec)
        digests = [partition_digest(part_files) for part_files, _ in chunks]
        chunk_of = {f: d for (part_files, _), d in zip(chunks, digests) for f in part_files}
        ds = rd.read_parquet(sorted(chunk_of), include_paths=True).map_batches(
            _tag_chunks, fn_kwargs={"chunk_of": chunk_of}, batch_format="pyarrow")
        verdicts = _coalesced(validate_clips(ds, cfg).materialize()).materialize()
        for name, rows in (("verdicts", verdicts), ("violations", violations_dataset(verdicts))):
            rows.write_parquet(os.path.join(staging, name), partition_cols=["__chunk"])
        folded = _fold_codec_aggs(verdicts, cfg, ["__chunk", "codec"])
        by_chunk = dict(list(folded.groupby("__chunk"))) if len(folded) else {}
        from schema_guru_ray.state.sketch_store import save_baseline, sketch_cfg_hash

        metrics = []
        for (part_files, tmp_dir), digest in zip(chunks, digests):
            # a chunk with no rows of a kind has no subdir, and commits no
            # dir for it: what a write of zero rows leaves
            for name in ("verdicts", "violations"):
                src = os.path.join(staging, name, f"__chunk={digest}")
                if os.path.isdir(src):
                    os.replace(src, os.path.join(tmp_dir, name))
            cv, store = _finalize_codecs(
                by_chunk.get(digest, folded.iloc[:0]), cfg, baseline, return_store=True)
            cv.assign(
                violations_by_kind=cv["violations_by_kind"].map(json.dumps)
            ).to_parquet(os.path.join(tmp_dir, "codec_verdicts.parquet"))
            n = int(cv["n_clips"].sum())
            # per-partition sketch blobs (from the SAME aggregation pass that
            # produced cv): a corpus baseline refresh merges these
            # O(#partitions) KB-sized stores instead of re-aggregating
            # corpus-scale verdict ROWS (see sketch_store.merge_stores)
            save_baseline(
                store,
                os.path.join(tmp_dir, "sketches.json"),
                source=";".join(part_files[:2]) + ("..." if len(part_files) > 2 else ""),
                cfg_hash=sketch_cfg_hash(cfg),
                meta={"n_clips": n},
            )
            metrics.append({
                "n_clips": n,
                "n_ok": int(cv["n_ok"].sum()),
                "n_violations": int(cv["n_violations"].sum()),
                "codecs_passed": int(cv["passed"].sum()),
                "codecs_total": int(len(cv)),
            })
        return metrics

    cfg_h = config_hash(vars(cfg) | {"baseline": baseline is not None})
    return run_incremental(
        files, out_dir, process, cfg_hash=cfg_h,
        files_per_partition=files_per_partition,
        gc_orphans=gc_orphans, log=log,
    )


def build_baseline(verdicts, cfg: ValidationConfig = ValidationConfig()):
    """Build a baseline sketch store {codec: {col: KLL bytes}} from a
    reference run. Small (KBs/codec); broadcast with ray.put at use time.
    One aggregation pass shared with the verdict table — see
    codec_verdicts(return_store=True)."""
    return codec_verdicts(verdicts, cfg, return_store=True)[1]


def _require_sketches(part_dirs) -> None:
    """Driver-side existence pre-check: raise a CATCHABLE FileNotFoundError
    for legacy trees (partitions committed before per-partition sketches)
    BEFORE any fan-out — inside a Ray task the same raise would surface as
    RayTaskError and slip past the caller's typed fallback."""
    import os

    missing = [p for p in part_dirs
               if not os.path.exists(os.path.join(p, "sketches.json"))]
    if missing:
        raise FileNotFoundError(
            f"{len(missing)} partition(s) lack sketches.json (first: "
            f"{missing[0]}) — they predate per-partition sketches; rebuild "
            "from verdict rows instead")


def merge_partition_baselines(
    out_dir: str,
    active: Optional[list] = None,
    cfg: ValidationConfig = ValidationConfig(),
):
    """Rebuild a corpus baseline store by merging the per-partition
    ``sketches.json`` blobs a checkpointed run commits alongside each
    partition's verdicts. Cost is O(#partitions × codecs) KB-sized loads
    — never touches verdict rows. ``active`` is the run summary's active
    set; when None the committed ``_MANIFEST.json``'s is read, so orphaned
    chunks left on disk are never merged. Returns
    ``(store, total_clips)``; raises FileNotFoundError when any selected
    partition predates per-partition sketches, and ValueError when a
    sketch file fails to load in a Ray task (caller falls back to the
    row-level rebuild).

    Each batch of dirs (:func:`schema_guru_ray.fold.map_items`) merges to
    one store, and the driver ``merge_stores`` the batch results (KLL
    merge is associative and order-insensitive for quantile queries)."""
    import os

    from schema_guru_ray.state.sketch_store import (
        load_baseline,
        merge_stores,
        sketch_cfg_hash,
    )

    part_dirs = active_dirs(out_dir, active)
    _require_sketches(part_dirs)
    expect = sketch_cfg_hash(cfg)

    def merge_dirs(dirs: list) -> pd.DataFrame:
        loaded = [load_baseline(os.path.join(p, "sketches.json"),
                                expect_cfg_hash=expect) for p in dirs]
        merged = merge_stores([s for s, _ in loaded])
        n = sum(int(m.get("meta", {}).get("n_clips", 0)) for _, m in loaded)
        # one typed row even when every store is empty
        return pd.DataFrame({"store": pd.Series([pickle.dumps(merged)], dtype=object),
                             "n": pd.Series([n], dtype="int64")})

    rows = map_items(part_dirs, merge_dirs)
    return (merge_stores([pickle.loads(b) for b in rows["store"]]),
            int(rows["n"].sum()))


_DRIFT_DTYPES = {
    "partition": object, "codec": object, "col": object, "n_clips": "int64",
    "n": "int64", "psi": "float64", "ks": "float64", "drifted": "bool",
}


def _drift_frame(rows) -> pd.DataFrame:
    """Drift rows (records or a frame) with the same columns and dtypes
    whether or not there are any, so Ray can unify the blocks of the
    tasks regime."""
    return pd.DataFrame(rows, columns=list(_DRIFT_DTYPES)).astype(_DRIFT_DTYPES)


def drift_by_partition(
    out_dir: str,
    baseline: Dict[str, Dict[str, bytes]],
    cfg: ValidationConfig = ValidationConfig(),
    active: Optional[list] = None,
    min_n: int = 100,
) -> pd.DataFrame:
    """Localize distribution drift to PARTITIONS: score every active
    partition's sketch blobs (``active``, or the manifest's when None)
    against the corpus baseline store and return
    one row per (partition, codec, column) with PSI/KS and a drifted
    flag. The corpus-level drift verdict (``codec_verdicts(baseline=…)``)
    says THAT a codec drifted; this says WHERE — which chunk of last
    night's append moved — without touching a single verdict row.

    Each batch of dirs is scored by :func:`schema_guru_ray.fold.map_items`
    (the report is embarrassingly parallel per partition — no shuffle);
    the baseline rides in the scoring function's closure. It raises like
    :func:`merge_partition_baselines`.

    ``min_n``: a (partition, codec) slice with fewer than this many
    values is never FLAGGED (PSI over quantile bins is noise at small
    support — measured: a 300-clip partition's minority codec scores
    PSI 0.39 against its own corpus). The psi/ks values and the slice
    size (``n``) are still reported, so a caller can apply its own bar."""
    import os

    from schema_guru_ray.state.sketch_store import load_baseline, sketch_cfg_hash

    part_dirs = active_dirs(out_dir, active)
    _require_sketches(part_dirs)
    expect = sketch_cfg_hash(cfg)
    baseline = decode_codecs(baseline)

    def score_dir(p: str) -> list:
        name = os.path.basename(p).split("=", 1)[1]
        store, meta = load_baseline(
            os.path.join(p, "sketches.json"), expect_cfg_hash=expect)
        n = int(meta.get("meta", {}).get("n_clips", 0))
        out = []
        for codec, cols in store.items():
            base_cols = baseline.get(codec, {})
            for col, raw in cols.items():
                cur = KLL.from_bytes(raw)
                rec = {"partition": name, "codec": codec, "col": col,
                       "n_clips": n, "n": int(cur.n),
                       "psi": None, "ks": None, "drifted": False}
                if col in base_cols and cur.n:
                    b = KLL.from_bytes(base_cols[col])
                    rec["psi"] = psi(b, cur)
                    rec["ks"] = ks_statistic(b, cur)
                    rec["drifted"] = bool(
                        cur.n >= min_n and rec["psi"] > cfg.pass_psi)
                out.append(rec)
        return out

    rows = map_items(part_dirs, lambda dirs: _drift_frame(
        [r for p in dirs for r in score_dir(p)]))
    return (_drift_frame(rows)
            .sort_values(["partition", "codec", "col"])
            .reset_index(drop=True))
