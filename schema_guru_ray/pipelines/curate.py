"""End-to-end corpus-curation pipeline — the flagship COMPOSITION demo.

A real pre-training data pipeline is not one operator but a chain; this
module wires the repo's operators into the canonical curation sequence,
every stage of which is deterministic and exactly SQL-replayable (the
DuckDB oracle replays the whole chain as one CTE):

    1. exact dedup      — keep min(doc_id) per normalized-content md5;
    2. near-dup removal — MinHash(21×3) candidates → distributed exact
                          shingle-Jaccard verify ≥ 0.8 → drop the HIGHER
                          doc_id of every confirmed pair
                          (stages/dedup.verify_pairs_jaccard_distributed);
    3. quality filter   — keep documents with n_words in [lo, hi]
                          (stages/text.QualityScorer semantics);
    4. deterministic sample — content-addressed Bernoulli keep-rate
                          (stages/sample semantics).

Shuffle budget of the whole chain: ONE full shuffle of the corpus (the
exact-dedup group-keep, one ``joins.bucketed`` shuffle so reducers see
whole buckets, not per-fingerprint groups), the LSH band shuffle over signatures, one
semi-join of candidate texts, and stateless filters. The deduped corpus
is materialized once because three downstream stages consume it.

:func:`curate_documents_checkpointed` is the resumable form: the two
global stages (dedup survivors, verified drop ids) and the final
per-chunk filter+sample pass each commit through
``state/checkpoint.run_incremental`` (atomic rename, lineage + config
hash), so a crash resumes without repeating finished work — in
particular the expensive LSH+verify stage is never recomputed once its
checkpoint exists.
"""

from __future__ import annotations

import hashlib
import os

import pandas as pd

from schema_guru_ray.state.checkpoint import (
    FILES_PER_PARTITION,
    active_files,
    config_hash,
    run_incremental,
)


def _exact_dedup(ds):
    """Stage 1: keep the min-doc_id row per normalized-content md5.
    Returns a LAZY Dataset of (doc_id, text); the buckets are sized from
    ``ds.count()`` (free on a parquet read or a materialized corpus)."""
    from schema_guru_ray.stages.dedup import _normalize
    from schema_guru_ray.stages.joins import bucketed

    def tag_fp(b: pd.DataFrame) -> pd.DataFrame:
        fp = b["text"].fillna("").map(
            lambda s: hashlib.md5(_normalize(s).encode()).hexdigest()
        )
        return pd.DataFrame({"doc_id": b["doc_id"], "text": b["text"], "fp": fp})

    def keep_min(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="stable")
        return g.drop_duplicates("fp", keep="first")[["doc_id", "text"]]

    return bucketed(ds.map_batches(tag_fp, batch_format="pandas"), "fp",
                    keep_min, n_rows=ds.count())


def _confirmed_drop_ids(kept, jaccard_threshold: float = 0.8):
    """Stage 2 decision: MinHash(21×3) candidates → distributed exact
    shingle-Jaccard verify → MATERIALIZED Dataset of drop ids (the higher
    doc_id of every confirmed pair). ``kept`` must be materialized."""
    from schema_guru_ray.stages.dedup import (
        MinHashSigner,
        minhash_candidate_pairs,
        verify_pairs_jaccard_distributed,
    )
    signer = MinHashSigner(num_perm=63, bands=21)
    cands = minhash_candidate_pairs(kept, signer, min_est_jaccard=0.5)
    pairs = verify_pairs_jaccard_distributed(
        cands, kept, threshold=jaccard_threshold)
    # distinct drop ids as a (tiny-state) materialized Dataset — never the
    # driver; materialized so counting and the removal join never re-run
    # the verification pass
    return pairs.map_batches(
        lambda b: pd.DataFrame({"id_b": b["id_b"].astype("int64")}),
        batch_format="pandas",
    ).materialize()


def _remove_drops(kept, drops):
    """Stage 2 application: one :func:`stages.joins.join_keyed` anti join
    of the corpus against the drop ids. A drop set too big to broadcast
    never reaches the driver (round-2 verdict: an unconditional driver
    broadcast is O(corpus) on duplicate-heavy crawls)."""
    from schema_guru_ray.stages.joins import join_keyed

    return join_keyed(kept, drops, on=("doc_id", "id_b"), how="anti")


def _quality_sample_fn(min_words: int, max_words: int, sample_rate: float):
    """Stages 3+4 as one vectorized batch fn: word-count quality gate +
    content-addressed Bernoulli sample → (doc_id, n_words)."""
    from schema_guru_ray.stages.sample import md5_hex, rate_threshold_hex
    from schema_guru_ray.stages.text import WORD_RE

    threshold_hex = rate_threshold_hex(sample_rate)
    nhex = len(threshold_hex)

    def filter_and_sample(b: pd.DataFrame) -> pd.DataFrame:
        n_words = (
            b["text"].fillna("").str.lower().str.findall(WORD_RE).map(len)
        ).astype("int64")
        b = b.assign(n_words=n_words)
        b = b[(b["n_words"] >= min_words) & (b["n_words"] <= max_words)]
        b = b[md5_hex(b["doc_id"]).str[:nhex] < threshold_hex]
        return b[["doc_id", "n_words"]].astype({"doc_id": "int64"})

    return filter_and_sample


def curate_documents(ds, *, jaccard_threshold: float = 0.8,
                     min_words: int = 30, max_words: int = 100_000,
                     sample_rate: float = 0.5):
    """documents Dataset (doc_id, text) → curated Dataset of
    (doc_id, n_words) surviving all four stages. Deterministic."""
    kept = _exact_dedup(ds).materialize()  # reused by 3 stages
    drops = _confirmed_drop_ids(kept, jaccard_threshold)
    survivors = _remove_drops(kept, drops)
    return survivors.map_batches(
        _quality_sample_fn(min_words, max_words, sample_rate),
        batch_format="pandas",
    )


def curate_documents_checkpointed(
    input_files, out_dir: str, *, jaccard_threshold: float = 0.8,
    min_words: int = 30, max_words: int = 100_000, sample_rate: float = 0.5,
    files_per_partition: int = FILES_PER_PARTITION, log=None,
):
    """Resumable curate over a parquet file list. Three checkpointed
    stages under ``out_dir`` (each with atomic commit + lineage + config
    hash via ``run_incremental``; each stage reads the previous one's
    ACTIVE partitions from its run summary):

      dedup/  — stage 1 survivors as partitioned parquet (GLOBAL: the
                group-keep shuffles the whole corpus; one chunk);
      drops/  — stage 2 verified near-dup drop ids (GLOBAL: LSH + verify
                interact across the corpus; the expensive stage a resume
                must never repeat);
      final/  — stages 3+4 over the dedup output files, PER CHUNK of
                ``files_per_partition`` files (embarrassingly parallel
                given the drop set, so a crash mid-pass finishes only the
                remainder; an append rewrites the dedup output, so every
                final chunk re-runs).

    Returns {result: Dataset over final/, manifest: {stage: summary}}.
    A completed run's output equals ``curate_documents`` on the same
    corpus (tested, including crash-mid-run resume)."""
    import ray.data as rd

    cfg = {
        "jaccard_threshold": jaccard_threshold, "min_words": min_words,
        "max_words": max_words, "sample_rate": sample_rate,
    }
    manifest = {}

    dedup_dir = os.path.join(out_dir, "dedup")
    cfg_dedup = config_hash({"stage": "dedup"})

    def run_dedup(files, tmp_dir):
        kept = _exact_dedup(rd.read_parquet(files))
        kept.write_parquet(tmp_dir)
        if not any(n.endswith(".parquet") for n in os.listdir(tmp_dir)):
            # write_parquet emits NO files for an empty dataset, which
            # would leave the downstream stages with an empty read list —
            # floor the stage with a typed empty file (input's own schema)
            import pyarrow.parquet as _pq

            _pq.write_table(
                _pq.ParquetFile(files[0]).schema_arrow.empty_table(),
                os.path.join(tmp_dir, "empty.parquet"),
            )
        return {}

    input_files = list(input_files)
    manifest["dedup"] = run_incremental(
        input_files, dedup_dir,
        lambda chunks, _: [run_dedup(f, d) for f, d in chunks], cfg_hash=cfg_dedup,
        files_per_partition=len(input_files), log=log,
    )
    dedup_files = active_files(dedup_dir, manifest["dedup"]["active"])

    drops_dir = os.path.join(out_dir, "drops")
    cfg_drops = config_hash(
        {"stage": "drops", "jaccard_threshold": jaccard_threshold,
         "dedup_cfg": cfg_dedup}
    )

    def run_drops(files, tmp_dir):
        kept = rd.read_parquet(files).materialize()
        drops = _confirmed_drop_ids(kept, jaccard_threshold)
        drops.write_parquet(tmp_dir)
        return {"n_drops": drops.count()}

    manifest["drops"] = run_incremental(
        dedup_files, drops_dir,
        lambda chunks, _: [run_drops(f, d) for f, d in chunks], cfg_hash=cfg_drops,
        files_per_partition=len(dedup_files), log=log,
    )
    drop_files = active_files(drops_dir, manifest["drops"]["active"])

    final_dir = os.path.join(out_dir, "final")
    cfg_final = config_hash({"stage": "final", **cfg, "drops_cfg": cfg_drops})

    def run_final(files, tmp_dir):
        part = rd.read_parquet(files)
        drops = (
            rd.read_parquet(drop_files)
            if drop_files
            else rd.from_pandas(pd.DataFrame({"id_b": pd.Series([], dtype="int64")}))
        )
        survivors = _remove_drops(part, drops)
        out = survivors.map_batches(
            _quality_sample_fn(min_words, max_words, sample_rate),
            batch_format="pandas",
        ).materialize()  # one execution feeds both the write and the metric
        out.write_parquet(tmp_dir)
        return {"n_out": out.count()}

    manifest["final"] = run_incremental(
        dedup_files, final_dir,
        lambda chunks, _: [run_final(f, d) for f, d in chunks], cfg_hash=cfg_final,
        files_per_partition=files_per_partition, log=log,
    )
    final_files = active_files(final_dir, manifest["final"]["active"])
    if not final_files:  # every partition curated down to zero rows
        import pyarrow as pa

        result = rd.from_arrow(pa.schema(
            [("doc_id", pa.int64()), ("n_words", pa.int64())]
        ).empty_table())
        return {"result": result, "manifest": manifest}
    return {"result": rd.read_parquet(final_files), "manifest": manifest}
