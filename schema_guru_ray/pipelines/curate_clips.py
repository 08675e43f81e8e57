"""Flagship AUDIO curation chain — the clips-table mirror of the text
curation composition (pipelines/curate.py), built from the stages the
north star demands (BASELINE.json: validation + dedup + transform over
audio clip + transcript pairs):

    1. validate-and-sign — ONE decode per clip yields both the SNR/
       transcript/referential verdict (stages/audio.ClipValidator
       semantics) AND the 256-bit content signature; passing rows keep
       their bytes plus sig/vec_id. Deliberately NOT a verdict-join: the
       keep set is O(corpus) at 10^12 clips, so no broadcast or join can
       carry it — the ok-mask must ride in the same task that decoded the
       clip. The signature rides the same pcm for the same reason: the
       unfused chain paid a SECOND full decode pass in the signer
       (round-4 fusion, ~1.4x on the whole chain).
    2. exact dedup by clip_id — hash-bucket shuffle, keep one row per id
       (generator duplicates are byte-identical; D4 of SURVEY.md §2.7).
       The chain's ONE corpus-wide shuffle; materialized afterwards as
       the natural checkpoint boundary (same call the text chain makes).
    3. content near-dup removal — scalar signature-cluster collapse over
       the precomputed (vec_id, sig) columns: keep each cluster's minimum
       hashed id, drop the rest, through one
       :func:`stages.joins.join_keyed` anti join (the curate.py rule).
    4. resample + loudness-normalize the survivors to a uniform training
       format (stages/audio_transform.resample_clips).

Returns the curated Dataset plus a summary of exact integer counts per
stage (pytest pins them against generator ground-truth labels).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa

from schema_guru_ray.pipelines.validate import ValidationConfig
from schema_guru_ray.stages.warm import warm_kernel
from schema_guru_ray.state.checkpoint import (
    FILES_PER_PARTITION,
    active_files,
    config_hash,
    run_incremental,
)


@dataclass
class ClipCurationConfig:
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    dedup_threshold: float = 0.999
    dedup_bits: int = 10
    sr_out: int = 16000
    target_dbfs: float = -20.0


def filter_valid_clips(clips_ds, vcfg: ValidationConfig):
    """Validate and KEEP passing rows with their bytes, one streaming pass
    (decode happens exactly once; see module docstring for why this is not
    a verdict join)."""
    from schema_guru_ray.stages.audio import ClipValidator

    validator = warm_kernel(
        ClipValidator,
        snr_threshold_db=vcfg.snr_threshold_db,
        check_transcript=vcfg.check_transcript,
        strict_codecs=vcfg.strict_codecs,
    )

    def fv(batch: pa.Table) -> pa.Table:
        return batch.filter(validator(batch)["ok"])

    return clips_ds.map_batches(
        fv, batch_format="pyarrow", batch_size=vcfg.validator_batch_size
    )


class _ValidateAndSign:
    """Fused chain stage: ONE decode per clip serves both the validation
    verdict and the content signature. The unfused chain paid two full
    decode passes (validate, then ContentSigner re-decoding every
    survivor) — at 10^12 clips the decode IS the corpus-scale cost, so
    stage fusion over the same pcm is the single biggest lever. Passing
    rows come out with their original columns plus ``sig`` (256-bit
    hyperplane hash, hex — bit-identical to ContentSigner's) and
    ``vec_id`` (= stable_hash64(clip_id), the dedup drop key)."""

    def __init__(self, snr_threshold_db: float = 30.0,
                 check_transcript: bool = True, strict_codecs: bool = False):
        from schema_guru_ray.stages.audio import ClipValidator
        from schema_guru_ray.stages.audio_features import (
            FEATURE_DIM, _sign_planes,
        )

        self.validator = ClipValidator(
            snr_threshold_db=snr_threshold_db,
            check_transcript=check_transcript,
            strict_codecs=strict_codecs,
        )
        self.planes = _sign_planes(FEATURE_DIM, 256)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from schema_guru_ray.stages.audio_features import clip_features
        from schema_guru_ray.stages.profile import stable_hash64

        ids = batch["clip_id"].to_pylist()
        _, violations, decoded = self.validator.validate(batch)
        keep = np.array([not v for v in violations], dtype=bool)
        sigs = []
        for d, k in zip(decoded, keep):
            if not k:
                continue
            f = clip_features(*d).astype(np.float64)
            sigs.append(np.packbits((self.planes @ f) > 0).tobytes().hex())
        out = batch.filter(pa.array(keep))
        kept_ids = pd.Series(np.asarray(ids, dtype=object)[keep])
        vec_id = (
            stable_hash64(kept_ids).astype(np.int64)
            if len(kept_ids) else np.array([], dtype=np.int64)
        )
        return out.append_column(
            "sig", pa.array(sigs, pa.string())
        ).append_column("vec_id", pa.array(vec_id, pa.int64()))


def filter_valid_and_sign(clips_ds, vcfg: ValidationConfig):
    """The chain's stage-1: :func:`filter_valid_clips` fused with content
    signing over the same decode (see :class:`_ValidateAndSign`)."""
    fn = warm_kernel(
        _ValidateAndSign,
        snr_threshold_db=vcfg.snr_threshold_db,
        check_transcript=vcfg.check_transcript,
        strict_codecs=vcfg.strict_codecs,
    )
    return clips_ds.map_batches(
        fn, batch_format="pyarrow", batch_size=vcfg.validator_batch_size
    )


def exact_dedup_clips(ds, rows_per_bucket: int = 1024,
                      n_rows: int | None = None):
    """One row per clip_id: tag with hash(clip_id) bucket, groupby bucket,
    vectorized drop_duplicates inside each bucket — per-bucket memory is
    bounded by ``rows_per_bucket`` × row width as the corpus grows.

    ``rows_per_bucket`` is sized for WIDE rows: these carry the audio
    payload (~0.1-1 MB each at production), so 1024 rows ≈ 0.1-1 GB per
    reduce group. It also sets downstream parallelism — the bucket blocks
    are what the signer/resample decode pools consume, and the old 65536
    default collapsed a 60k-clip corpus into 8 fat blocks that ran the
    next decode stage 8-wide on a 16-actor pool (measured 2x wall time on
    the signer; round-4 finding).

    ``n_rows``: pass the known row count (e.g. parquet FOOTER metadata for a
    fresh-read input) so sizing the buckets never executes the upstream
    plan; defaults to ``ds.count()`` (cheap on the already-materialized
    chain input, metadata-only on a bare read)."""
    from schema_guru_ray.stages.joins import derive_num_buckets
    from schema_guru_ray.stages.profile import stable_hash64

    nb = derive_num_buckets(
        ds.count() if n_rows is None else n_rows,
        rows_per_bucket=rows_per_bucket,
    )

    # Arrow end-to-end: these rows carry the audio ``bytes`` through the
    # chain's ONE corpus-wide shuffle, and pandas blocks would (a) copy
    # every payload into object arrays and (b) hit Ray's slow pandas sort
    # path (measured ~5x on row-identical plans, round-4 bench root cause).
    def tag(t: pa.Table) -> pa.Table:
        h = stable_hash64(pd.Series(t["clip_id"].to_pandas()))
        return t.append_column(
            "__bucket", pa.array((h % np.uint64(nb)).astype(np.int64), pa.int64())
        )

    def keep_one(t: pa.Table) -> pa.Table:
        ids = t["clip_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        first = np.ones(len(ids), dtype=bool)
        first[1:] = sorted_ids[1:] != sorted_ids[:-1]
        return t.take(order[first]).drop_columns(["__bucket"])

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(keep_one, batch_format="pyarrow")
    )


def _near_dup_drop_hashes(deduped, cfg: ClipCurationConfig):
    """Content-dedup drop set via 64-bit signature cluster-collapse: each
    same-content cluster keeps its minimum hashed id, the rest drop.
    LINEAR in corpus size — the all-pairs LSH operator is inherently
    quadratic inside near-identical clusters (measured 7.6/18/59 s at
    5k/10k/20k clips) and belongs on bounded candidate sets, not the
    corpus-wide chain.

    If the rows already carry ``sig``/``vec_id`` (the fused
    validate-and-sign stage), this is a pure scalar collapse over a
    2-column projection — no decode; otherwise it falls back to
    ``content_dedup_drop_hashes`` (signer pass + collapse)."""
    from schema_guru_ray.stages.audio_features import (
        collapse_drop_hashes, content_dedup_drop_hashes,
    )

    if "sig" in deduped.schema().names:
        return collapse_drop_hashes(deduped.select_columns(["vec_id", "sig"]))
    return content_dedup_drop_hashes(deduped)


def _remove_by_hash(ds, drops):
    """Remove the clips whose hashed id is in ``drops`` (column ``drop_h``)
    with one :func:`stages.joins.join_keyed` anti join; both of its
    regimes filter Arrow blocks directly, so the audio payloads are never
    copied into pandas. Rows with a precomputed ``vec_id`` column skip the
    rehash."""
    from schema_guru_ray.stages.joins import join_keyed
    from schema_guru_ray.stages.profile import stable_hash64

    if "vec_id" in ds.schema().names:
        return join_keyed(ds, drops, on=("vec_id", "drop_h"), how="anti")

    def with_hash(t: pa.Table) -> pa.Table:
        h = stable_hash64(pd.Series(t["clip_id"].to_pylist())).astype(np.int64)
        return t.append_column("__h", pa.array(h, pa.int64()))

    return join_keyed(
        ds.map_batches(with_hash, batch_format="pyarrow"), drops,
        on=("__h", "drop_h"), how="anti",
    ).drop_columns(["__h"])


def curate_clips(clips_ds, cfg: ClipCurationConfig = ClipCurationConfig()):
    """Run the full chain. Returns ``(curated_ds, summary_df)`` — summary
    rows are exact integer counts per stage."""
    from schema_guru_ray.stages.audio_transform import resample_clips

    n_in = clips_ds.count()
    # materialize between the heavy decode map and the dedup shuffle: a
    # sort-based groupby sharing one streaming plan with a decode map
    # starves the map via the all-to-all's resource reservation (the
    # codec_verdicts finding, pipelines/validate.py) — measured >10min vs
    # ~1min at sf0.1 with the split plans. Also makes n_valid free.
    # fused stage 1: ONE decode yields both the verdict and the content
    # signature (sig/vec_id ride the rows from here) — the unfused chain
    # re-decoded every survivor in the signer, a second full corpus pass
    valid = filter_valid_and_sign(clips_ds, cfg.validation).materialize()
    n_valid = valid.count()
    if n_valid == 0:
        # an all-invalid (or empty) shard: every downstream stage would see
        # a schema-erased empty Dataset (Ray: UDFs never run on 0-row
        # blocks, schema() → None) — return the typed empty result directly
        import ray.data as rd

        from schema_guru_ray.sources.clips import CLIPS_SCHEMA

        summary = pd.DataFrame(
            {
                "stage": ["input", "valid", "exact_dedup", "near_dup", "curated"],
                "n": np.array([n_in, 0, 0, 0, 0], dtype="int64"),
            }
        )
        return rd.from_arrow(CLIPS_SCHEMA.empty_table()), summary
    deduped = exact_dedup_clips(valid).materialize()  # checkpoint boundary
    n_dedup = deduped.count()

    drops = _near_dup_drop_hashes(deduped, cfg)
    survivors = _remove_by_hash(deduped, drops).map_batches(
        lambda t: t.drop_columns(["sig", "vec_id"]), batch_format="pyarrow"
    ).materialize()
    n_surv = survivors.count()

    curated = resample_clips(
        survivors, sr_out=cfg.sr_out, target_dbfs=cfg.target_dbfs
    ).materialize()
    n_out = curated.count()

    summary = pd.DataFrame(
        {
            "stage": ["input", "valid", "exact_dedup", "near_dup", "curated"],
            "n": [n_in, n_valid, n_dedup, n_surv, n_out],
        }
    )
    summary["n"] = summary["n"].astype("int64")
    return curated, summary


def curate_clips_checkpointed(input_files, out_dir: str,
                              cfg: ClipCurationConfig = ClipCurationConfig(),
                              files_per_partition: int = FILES_PER_PARTITION,
                              log=None):
    """Resumable audio curation over a parquet file list — four
    checkpointed stages under ``out_dir`` (atomic commit + lineage +
    config hash via ``state/checkpoint.run_incremental``; each stage reads
    the previous one's ACTIVE partitions from its run summary):

      valid/  — validate-and-filter, PER CHUNK of ``files_per_partition``
                input files (embarrassingly parallel; a crash or an append
                re-decodes only the unfinished or changed chunks — the
                expensive stage at 10^12);
      dedup/  — exact dedup by clip_id over the valid files (GLOBAL: the
                keep-one shuffle is one chunk);
      drops/  — content-signature drop ids (GLOBAL, one chunk);
      final/  — drop removal + resample/normalize, PER CHUNK over the
                dedup output files (an append rewrites them, so every
                final chunk re-runs).

    Returns {result: Dataset over final/, manifest: {stage: summary}}. A
    completed run's row set equals :func:`curate_clips` on the same
    corpus (tested, including crash-mid-run resume)."""
    import os

    import ray.data as rd

    from schema_guru_ray.sources.clips import read_clips
    from schema_guru_ray.stages.audio_transform import resample_clips

    manifest = {}

    valid_dir = os.path.join(out_dir, "valid")
    # "op" versions the stage's OUTPUT SCHEMA, not just its parameters:
    # the fused validate-and-sign stage added sig/vec_id columns that the
    # drops stage reads back, so checkpoints written by the pre-fusion
    # code must invalidate (config-change semantics) instead of resuming
    # into a missing-column read.
    cfg_valid = config_hash({"stage": "valid", "op": "validate_and_sign_v2",
                             "v": vars(cfg.validation)})

    def run_valid(files, tmp_dir):
        # fused decode: verdict + content signature in one pass; the sig /
        # vec_id columns persist into the checkpoint so the drops stage is
        # a column-pruned scalar read, not a re-decode of the corpus
        out = filter_valid_and_sign(
            read_clips(files), cfg.validation
        ).materialize()
        out.write_parquet(tmp_dir)
        return {"n_valid": out.count()}

    manifest["valid"] = run_incremental(
        list(input_files), valid_dir,
        lambda chunks, _: [run_valid(f, d) for f, d in chunks], cfg_hash=cfg_valid,
        files_per_partition=files_per_partition, log=log,
    )

    valid_files = active_files(valid_dir, manifest["valid"]["active"])
    if not valid_files:
        # every partition validated to zero survivors (empty / all-invalid
        # shard): Ray writes no parquet for an empty Dataset, so the
        # downstream stages would read an empty path list — return the
        # typed empty result with the manifest as-is (resume semantics
        # hold: the valid checkpoints exist and record zero rows)
        from schema_guru_ray.sources.clips import CLIPS_SCHEMA

        for stage in ("dedup", "drops", "final"):
            manifest[stage] = {"config_hash": None, "partitions": [],
                               "skipped": 0, "ran": 0}
        return {"result": rd.from_arrow(CLIPS_SCHEMA.empty_table()),
                "manifest": manifest}

    dedup_dir = os.path.join(out_dir, "dedup")
    cfg_dedup = config_hash({"stage": "dedup", "valid_cfg": cfg_valid})

    def run_dedup(files, tmp_dir):
        # bucket count from parquet FOOTER metadata (the _meta_rows
        # pattern) — no plan-executing count() ahead of the shuffle
        import pyarrow.parquet as pq

        n = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        out = exact_dedup_clips(read_clips(files), n_rows=n).materialize()
        out.write_parquet(tmp_dir)
        return {"n_dedup": out.count()}

    manifest["dedup"] = run_incremental(
        valid_files, dedup_dir,
        lambda chunks, _: [run_dedup(f, d) for f, d in chunks], cfg_hash=cfg_dedup,
        files_per_partition=len(valid_files), log=log,
    )
    dedup_files = active_files(dedup_dir, manifest["dedup"]["active"])

    drops_dir = os.path.join(out_dir, "drops")
    cfg_drops = config_hash({"stage": "drops", "dedup_cfg": cfg_dedup})

    def run_drops(files, tmp_dir):
        # 2-column pruned read of the dedup checkpoint (sig/vec_id were
        # computed by the fused valid stage) — pure scalar collapse
        sigs = read_clips(files, columns=["vec_id", "sig"])
        from schema_guru_ray.stages.audio_features import collapse_drop_hashes

        drops = collapse_drop_hashes(sigs).materialize()
        drops.write_parquet(tmp_dir)
        return {"n_drops": drops.count()}

    manifest["drops"] = run_incremental(
        dedup_files, drops_dir,
        lambda chunks, _: [run_drops(f, d) for f, d in chunks], cfg_hash=cfg_drops,
        files_per_partition=len(dedup_files), log=log,
    )
    drop_files = active_files(drops_dir, manifest["drops"]["active"])

    final_dir = os.path.join(out_dir, "final")
    cfg_final = config_hash(
        {"stage": "final", "sr_out": cfg.sr_out, "dbfs": cfg.target_dbfs,
         "drops_cfg": cfg_drops}
    )

    def run_final(files, tmp_dir):
        part = read_clips(files)
        if drop_files:
            part = _remove_by_hash(part, read_clips(drop_files))
        part = part.map_batches(
            lambda t: t.drop_columns(
                [c for c in ("sig", "vec_id") if c in t.column_names]
            ),
            batch_format="pyarrow",
        )
        out = resample_clips(
            part, sr_out=cfg.sr_out, target_dbfs=cfg.target_dbfs
        ).materialize()
        out.write_parquet(tmp_dir)
        return {"n_out": out.count()}

    manifest["final"] = run_incremental(
        dedup_files, final_dir,
        lambda chunks, _: [run_final(f, d) for f, d in chunks], cfg_hash=cfg_final,
        files_per_partition=files_per_partition, log=log,
    )
    return {"result": rd.read_parquet(active_files(final_dir, manifest["final"]["active"])),
            "manifest": manifest}
