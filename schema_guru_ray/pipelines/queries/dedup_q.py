"""Dedup + similarity (minhash/simhash/embedding/ANN/cluster) queries — part of the catalog backing __ray_entry__.queries().

Split from the former single-file ``pipelines/queries.py`` (round 4); see
the package ``__init__`` for the full QUERIES/ORACLES catalog contract.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.fold import fold_keyed
from schema_guru_ray.stages.joins import sorted_lookup
from schema_guru_ray.stages.warm import warm_kernel
from schema_guru_ray.pipelines.queries._common import (
    _int_units,
    _meta_rows,
    _pandas_cols,
    _read,
)



def dedup_exact_documents(sf_dir: str):
    from schema_guru_ray.stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup(ds)


DEDUP_EXACT_DOCUMENTS_SQL = """
SELECT md5(trim(lower(regexp_replace(text, '\\s+', ' ', 'g')))) AS fp_md5,
       min(doc_id) AS keeper_id,
       count(*) AS n_copies
FROM documents
GROUP BY 1
"""


def minhash_dedup_documents(sf_dir: str, measure_recall: bool = True):
    """Near-dup candidate pairs (MinHash+LSH, default 64-perm × 16-band
    signer). LSH output is approximate by design (no SQL oracle), but the
    result carries a MEASURED recall against the verified exact-jaccard
    ≥ 0.8 pair set computed IN THE SAME RUN with the recall-exhaustive
    21×3-band signer — the truth set near_dup_pairs_documents
    oracle-checks — so the rows-only record is a checked invariant and
    pytest bounds it (the ivf_topk_embeddings pattern).
    ``measure_recall=False`` skips the truth-set harness (~3x the
    operator's own work) — bench.py times the bare operator."""
    from schema_guru_ray.stages.dedup import (
        MinHashSigner,
        minhash_candidate_pairs,
        verify_pairs_jaccard_distributed,
    )

    _pair_cols = ["id_a", "id_b", "est_jaccard"]
    _pair_types = {"id_a": "int64", "id_b": "int64", "est_jaccard": "float64"}
    ds = _read(sf_dir, "documents", ["doc_id", "text"]).repartition(8).materialize()
    cands = _pandas_cols(
        minhash_candidate_pairs(ds, MinHashSigner(), min_est_jaccard=0.5),
        _pair_cols, _pair_types,
    )
    if not measure_recall:
        return cands
    truth_cands = minhash_candidate_pairs(
        ds, MinHashSigner(num_perm=63, bands=21), min_est_jaccard=0.5
    )
    truth = _pandas_cols(
        verify_pairs_jaccard_distributed(truth_cands, ds, threshold=0.8),
        ["id_a", "id_b"], {"id_a": "int64", "id_b": "int64"},
    )
    truth_pairs = set(zip(truth["id_a"].astype(int), truth["id_b"].astype(int)))
    cand_pairs = set(zip(cands["id_a"].astype(int), cands["id_b"].astype(int)))
    recall = (
        len(truth_pairs & cand_pairs) / len(truth_pairs) if truth_pairs else 1.0
    )
    out = cands.copy()
    out["recall_vs_verified"] = float(recall)
    return out


def near_dup_pairs_documents(sf_dir: str):
    """End-to-end distributed near-dup detection with an EXACT answer:
    MinHash+LSH candidate generation (21 bands × 3 rows — miss probability
    at jaccard 0.8 is (1-0.8³)^21 ≈ 3e-7, i.e. recall-exhaustive for this
    threshold) → distributed exact shingle-set verification
    (verify_pairs_jaccard_distributed) → pairs with word-3-gram jaccard
    >= 0.8. Output is pure integers (n_inter, n_union), so the DuckDB
    brute-force oracle hash-matches exactly."""
    from schema_guru_ray.stages.dedup import (
        MinHashSigner,
        minhash_candidate_pairs,
        verify_pairs_jaccard_distributed,
    )

    # small single-file test corpora arrive as ONE block — repartition so
    # the signing stage parallelizes (real corpora are multi-block already)
    ds = _read(sf_dir, "documents", ["doc_id", "text"]).repartition(8)
    signer = MinHashSigner(num_perm=63, bands=21)
    cands = minhash_candidate_pairs(ds, signer, min_est_jaccard=0.5)
    # NB: no select_columns here — the verify output is exactly
    # (id_a, id_b, n_inter, n_union), and select_columns would fetch the
    # schema, executing the whole shuffle a second time
    return verify_pairs_jaccard_distributed(cands, ds, threshold=0.8)


NEAR_DUP_PAIRS_DOCUMENTS_SQL = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS tk FROM documents
),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    CASE WHEN len(tk) < 3 THEN [list_aggregate(tk, 'string_agg', ' ')]
         ELSE list_transform(generate_series(1, len(tk)-2),
                             i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2])
    END)) AS s
  FROM toks
),
counts AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS n_inter
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b, n_inter, ca.n + cb.n - n_inter AS n_union
FROM inter
JOIN counts ca ON ca.doc_id = id_a
JOIN counts cb ON cb.doc_id = id_b
WHERE n_inter * 5 >= (ca.n + cb.n - n_inter) * 4
"""


def dup_components_documents(sf_dir: str):
    """Duplicate clusters over the exact-verified near-dup pairs, regime
    chosen by the measured crossover (connected_components_auto): driver
    union-find while the pair set fits the memory bound — it beats the
    distributed loop at EVERY feasible size (jobs/components_crossover.py;
    the loop pays ~2 joins + a groupby of fixed overhead per pointer-jump
    round) — else the O(log diameter) distributed propagation. Oracle:
    recursive-CTE transitive closure in DuckDB — both regimes emit the
    identical min-of-component labels."""
    from schema_guru_ray.stages.dedup import (
        MinHashSigner,
        connected_components_auto,
        minhash_candidate_pairs,
        verify_pairs_jaccard_distributed,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).repartition(8)
    signer = MinHashSigner(num_perm=63, bands=21)
    cands = minhash_candidate_pairs(ds, signer, min_est_jaccard=0.5)
    pairs = verify_pairs_jaccard_distributed(cands, ds, threshold=0.8)
    labels = connected_components_auto(pairs)
    return labels.map_batches(
        lambda b: b.assign(
            node=b["node"].astype("int64"), label=b["label"].astype("int64")
        ),
        batch_format="pandas",
    )


DUP_COMPONENTS_DOCUMENTS_SQL = (
    "WITH RECURSIVE pairs AS (" + NEAR_DUP_PAIRS_DOCUMENTS_SQL + r"""),
edges AS (
  SELECT id_a AS a, id_b AS b FROM pairs
  UNION ALL
  SELECT id_b, id_a FROM pairs
),
walk AS (
  SELECT DISTINCT a AS src, a AS reach FROM edges
  UNION
  SELECT w.src, e.b FROM walk w JOIN edges e ON e.a = w.reach
)
SELECT src AS node, min(reach) AS label FROM walk GROUP BY src
"""
)


def simhash_documents(sf_dir: str):
    """SimHash near-dup pairs with a FULL DuckDB oracle: the md5 token
    hash lets SQL rebuild every 64-bit signature bit-for-bit, re-derive
    the chunk candidates (pigeonhole: hamming ≤ 3 ⇒ some 16-bit chunk is
    equal) and check ``bit_count(xor(sig_a, sig_b))`` — this moved from
    the no-oracle tail in round 3."""
    from schema_guru_ray.stages.dedup import simhash_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_pairs(ds, max_hamming=3)


SIMHASH_DOCUMENTS_SQL = r"""
WITH tokens AS (
  SELECT doc_id,
         unnest(string_split(
           trim(regexp_replace(lower(coalesce(text, '')), '\s+', ' ', 'g')),
           ' ')) AS tok
  FROM documents
),
tokhash AS (
  SELECT doc_id,
         CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT) AS h
  FROM tokens
),
bitsum AS (
  SELECT doc_id, gs.b,
         sum(CASE WHEN ((h >> gs.b) & 1) = 1 THEN 1 ELSE -1 END) AS s
  FROM tokhash, generate_series(0, 63) AS gs(b)
  GROUP BY doc_id, gs.b
),
sig AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN s > 0 THEN (1::HUGEINT << b) ELSE 0::HUGEINT END)
              AS UBIGINT) AS sig
  FROM bitsum GROUP BY doc_id
),
chunks AS (
  SELECT doc_id, sig, g2.c,
         CAST((sig >> (16 * g2.c)) & 65535 AS INT) AS cv
  FROM sig, generate_series(0, 3) AS g2(c)
),
cand AS (
  SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b,
         a.sig AS sa, b.sig AS sb
  FROM chunks a
  JOIN chunks b ON a.c = b.c AND a.cv = b.cv AND a.doc_id < b.doc_id
)
SELECT id_a, id_b, CAST(bit_count(xor(sa, sb)) AS BIGINT) AS hamming
FROM cand
WHERE bit_count(xor(sa, sb)) <= 3
"""


# --- similarity search ------------------------------------------------------


def _load_queries(sf_dir: str, n: int = 3) -> np.ndarray:
    import pyarrow.parquet as pq

    tab = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    df = tab.to_pandas()
    # a null embedding cannot be a query vector (broken-column shard)
    df = df[df["embedding"].notna()].sort_values("vec_id").head(n)
    if df.empty:  # empty shard: zero query vectors
        return np.zeros((0, 0), np.float64)
    return np.stack(df["embedding"].to_numpy())


def ann_topk_embeddings(sf_dir: str, k: int = 10):
    """Brute-force cosine top-k (exact baseline) for queries = embeddings of
    vec_id 0..2. Scores rounded to 4 dp to match the SQL oracle despite
    float32/float64 path differences."""
    from schema_guru_ray.stages.similarity import brute_force_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    queries = _load_queries(sf_dir)
    if not len(queries):
        return pd.DataFrame({c: pd.Series(dtype="int64")
                             for c in ("query_idx", "vec_id", "score_bp")})
    out = brute_force_topk(ds, queries, k=k)
    # integer basis points → float-representation-proof oracle compare
    out["score_bp"] = np.floor(out["score"] * 10000 + 0.5).astype("int64")
    out["query_idx"] = out["query_idx"].astype("int64")
    out["vec_id"] = out["vec_id"].astype("int64")
    return out[["query_idx", "vec_id", "score_bp"]]


ANN_TOPK_EMBEDDINGS_SQL = """
WITH q AS (SELECT vec_id AS query_idx, embedding AS qe FROM embeddings WHERE vec_id < 3)
SELECT query_idx, vec_id,
       CAST(round(list_cosine_similarity(qe, embedding) * 10000) AS BIGINT) AS score_bp
FROM q CROSS JOIN embeddings
QUALIFY row_number() OVER (PARTITION BY query_idx ORDER BY list_cosine_similarity(qe, embedding) DESC, vec_id) <= 10
"""


def ivf_topk_embeddings(sf_dir: str, k: int = 10):
    """IVF approximate top-k. Approximate by design (no SQL oracle), but
    the result carries a MEASURED per-query recall against the exact
    brute-force top-k computed in the same run — the rows-only record is
    therefore a checked invariant, and pytest bounds it."""
    from schema_guru_ray.stages.similarity import brute_force_topk, ivf_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    queries = _load_queries(sf_dir)
    if not len(queries):
        return pd.DataFrame({
            "query_idx": pd.Series(dtype="int64"),
            "vec_id": pd.Series(dtype="int64"),
            "score": pd.Series(dtype="float64"),
            "recall_vs_exact": pd.Series(dtype="float64"),
        })
    # random (cluster-free) embeddings are IVF's worst case — probe half
    # the cells; real clustered corpora reach the same recall with fewer
    approx = ivf_topk(ds, queries, k=k, n_cells=16, n_probe=8)
    exact = brute_force_topk(ds, queries, k=k)
    recall = {
        int(q): len(
            set(approx[approx["query_idx"] == q]["vec_id"])
            & set(exact[exact["query_idx"] == q]["vec_id"])
        )
        / max(1, (exact["query_idx"] == q).sum())
        for q in exact["query_idx"].unique()
    }
    approx = approx.copy()
    approx["recall_vs_exact"] = approx["query_idx"].map(recall).astype("float64")
    return approx


def embedding_near_dup(sf_dir: str):
    """Cosine near-dup pairs (multi-table hyperplane LSH, 16 tables × 6
    bits → miss probability ≈ 6e-6 at cosine 0.95) + in-bucket exact
    cosine. Integer basis points → hash-exact DuckDB brute-force oracle."""
    from schema_guru_ray.stages.dedup import embedding_near_dup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = embedding_near_dup_pairs(
        ds, dim=64, threshold=0.95, n_bits=6, n_tables=16
    ).to_pandas()
    if pairs.empty:  # empty aggregates drop their schema in to_pandas
        return pd.DataFrame(
            {
                "id_a": pd.Series(dtype="int64"),
                "id_b": pd.Series(dtype="int64"),
                "cosine_bp": pd.Series(dtype="int64"),
            }
        )
    pairs["cosine_bp"] = np.floor(pairs["cosine"] * 10000 + 0.5).astype("int64")
    return pairs[["id_a", "id_b", "cosine_bp"]]


EMBEDDING_NEAR_DUP_SQL = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       CAST(round(list_cosine_similarity(a.embedding, b.embedding) * 10000) AS BIGINT) AS cosine_bp
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.95
"""


def image_featurize_documents(sf_dir: str):
    """Multimodal pipeline over REAL image bytes: each doc's text
    deterministically synthesizes a 24×24 PNG payload (synth_media_png),
    and the ImageFeaturizer actor pool decodes it with the pure-stdlib
    PNG decoder (media/png.py, strict mode — no fake fallback) → resize →
    featurize. Rows-only."""
    from schema_guru_ray.stages.multimodal import ImageFeaturizer, synth_media_png

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_media(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "media": [synth_media_png(t.encode()) for t in b["text"].fillna("")]}
        )

    media = ds.map_batches(to_media, batch_format="pandas")
    out = media.map_batches(
        # PNG payloads: real decode only; warm-task mode (stages/warm.py)
        warm_kernel(ImageFeaturizer, strict=True),
        batch_format="pandas",
        batch_size=64,  # small batches: wide binary rows
    )
    return out.map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "height": b["height"],
                "width": b["width"],
                "feat_norm": [float(np.linalg.norm(f)) for f in b["features"]],
            }
        ),
        batch_format="pandas",
    )


def image_phash_dedup_documents(sf_dir: str):
    """Image near-dup pairs by 64-bit DCT perceptual hash over REAL PNG
    payloads (each doc's text deterministically synthesizes a 24×24 PNG;
    the pure-stdlib decoder in media/png.py decodes it — no fake, no
    image library): actor-pool decode+hash, then the shared 16-bit-chunk
    pigeonhole pairing (exact for hamming ≤ 3). Identical payloads (the
    corpus' exact-dup docs) land at hamming 0. Rows-only; codec ground
    truth in tests/test_png.py, pHash ground truth in
    tests/test_multimodal.py."""
    from schema_guru_ray.stages.multimodal import phash_dup_pairs, synth_media_png

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_media(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "media": [synth_media_png(t.encode()) for t in b["text"].fillna("")]}
        )

    media = ds.map_batches(to_media, batch_format="pandas")
    return phash_dup_pairs(media, max_hamming=3)


def video_frame_sample_documents(sf_dir: str):
    """Full multimodal chain over REAL video bytes: each doc's text
    deterministically synthesizes a 6-frame 16×16 .y4m clip
    (synth_media_y4m — the doc's gradient image panning), the
    FrameSampler actor pool decodes it with the pure-stdlib Y4M decoder
    (media/y4m.py, streaming frame iteration) keeping every 2nd frame as
    PNG bytes, and a second pass pHashes each sampled frame through the
    real PNG decode chain. Only (id, frame_idx, 8-byte hash) rows leave
    the second stage. Rows-only; codec ground truth in tests/test_y4m.py."""
    from schema_guru_ray.stages.multimodal import (
        FrameSampler,
        decode_image,
        phash64,
        synth_media_y4m,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_media(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "media": [synth_media_y4m(t.encode()) for t in b["text"].fillna("")]}
        )

    frames = ds.map_batches(to_media, batch_format="pandas").map_batches(
        warm_kernel(FrameSampler, every_n_frames=2),
        batch_format="pandas",
        batch_size=64,  # small batches: wide binary rows
    )

    def hash_frames(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "frame_idx": b["frame_idx"],
                "height": b["height"],
                "width": b["width"],
                "frame_phash": pd.array(
                    [np.uint64(phash64(decode_image(f))).astype(np.int64)
                     for f in b["frame"]],
                    dtype="int64",
                ),
            }
        )

    return frames.map_batches(hash_frames, batch_format="pandas")


def cluster_assign_embeddings(sf_dir: str, k: int = 8):
    """Nearest-centroid assignment with integer-milli quantized dot
    products (stages/cluster.py): centroids are the embeddings of the 8
    smallest vec_ids; every product/sum is int64-exact so the argmax (and
    its tie-break to the lowest centroid id) is bit-deterministic and the
    DuckDB ``list_dot_product`` oracle replays it exactly. Centroid matrix
    broadcast once; corpus pass is shuffle-free."""
    from schema_guru_ray.stages.cluster import _seed_centroids, assign_to_centroids

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # k-smallest-id seeds via the partial-reduce seeder — NOT a global
    # sort (sorting the corpus to pick k rows is the kmeans seed trap
    # fixed in round 4; same fix here)
    cids, cvecs = _seed_centroids(emb, k, "embedding", "vec_id", return_ids=True)
    return assign_to_centroids(emb, cids, cvecs)


CLUSTER_ASSIGN_EMBEDDINGS_SQL = """
WITH q AS (
    SELECT vec_id,
           list_transform(embedding,
                          x -> CAST(floor(x * 1000 + 0.5) AS BIGINT)) AS e
    FROM embeddings
),
cents AS (SELECT vec_id AS cid, e AS ce FROM q ORDER BY vec_id LIMIT 8),
sims AS (
    SELECT q.vec_id, cents.cid,
           CAST(list_dot_product(q.e, cents.ce) AS BIGINT) AS dp
    FROM q, cents
)
SELECT vec_id, CAST(cid AS BIGINT) AS cluster_id, dp AS dot_milli2
FROM (
    SELECT vec_id, cid, dp,
           row_number() OVER (PARTITION BY vec_id ORDER BY dp DESC, cid) AS rn
    FROM sims
)
WHERE rn = 1
"""


def kmeans_embeddings(sf_dir: str):
    """Distributed Lloyd k-means over the embeddings table (rows-only:
    iterative float algorithm, not SQL-expressible) — per-cluster sizes
    after 5 rounds from the deterministic lowest-id init. pytest checks
    inertia monotonicity and exact agreement with a driver-side numpy
    reference on separated blobs."""
    from schema_guru_ray.stages.cluster import kmeans_summary

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_summary(emb, k=8, iters=5)


def cross_source_leakage_documents(sf_dir: str, broadcast_limit: int = 5_000_000):
    """Cross-source contamination matrix — the training-data governance
    report behind "did corpus A leak into corpus B?": exact-verified
    near-dup pairs (the oracled MinHash→LSH→shingle-verify chain of
    ``near_dup_pairs_documents``) bucketed by the UNORDERED pair of their
    documents' ``source`` fields, with within-source duplication on the
    diagonal. Two-regime source lookup: ≤ ``broadcast_limit`` docs →
    plain-pyarrow footer read + sorted-array broadcast (docs-side never
    re-shuffles; a Ray read of a small dimension costs ~2 s of task
    overhead); larger → bucketed hash joins on each pair side. Output is
    (source_a, source_b, n_pairs) — strings + exact ints, so the oracle
    (same shingle CTE + two joins + least/greatest) hashes identically."""
    import ray
    from ray.data.aggregate import Sum

    from schema_guru_ray.pipelines.queries._common import _pa

    pairs = near_dup_pairs_documents(sf_dir)
    n_docs = _meta_rows(sf_dir, "documents")

    if n_docs <= broadcast_limit:
        import pyarrow.parquet as pq

        tab = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "source"],
        )
        ids = tab["doc_id"].to_numpy()
        order = np.argsort(ids)
        ref = ray.put((ids[order],
                       tab["source"].to_numpy(zero_copy_only=False)[order]))

        def tag_sources(t: pa.Table) -> pa.Table:
            keys, srcs = ray.get(ref)
            a = t["id_a"].to_numpy(zero_copy_only=False)
            b = t["id_b"].to_numpy(zero_copy_only=False)
            ia, ha = sorted_lookup(keys, a)
            ib, hb = sorted_lookup(keys, b)
            assert bool(ha.all()) and bool(hb.all())  # pairs came FROM docs
            sa, sb = srcs[ia], srcs[ib]
            lo = np.minimum(sa, sb)
            hi = np.maximum(sa, sb)
            df = pd.DataFrame({"source_a": lo, "source_b": hi, "n": 1})
            return _pa(df.groupby(["source_a", "source_b"], as_index=False)
                       .agg(n=("n", "sum")))

        counted = pairs.map_batches(tag_sources, batch_format="pyarrow")
    else:
        from schema_guru_ray.stages.joins import bucketed_hash_join

        docs = _read(sf_dir, "documents", ["doc_id", "source"])

        def _as(side: str):
            def fn(t: pa.Table) -> pa.Table:
                return pa.table({side: t["doc_id"],
                                 f"src_{side}": t["source"]})
            return fn

        # explicit schema hints: both left plans contain all-to-alls (the
        # verify shuffle, then the first join) — ds.schema() on such a plan
        # executes the whole shuffle once extra just for type inference
        pairs_schema = pa.schema([
            ("id_a", pa.int64()), ("id_b", pa.int64()),
            ("n_inter", pa.int64()), ("n_union", pa.int64()),
        ])
        j = bucketed_hash_join(
            pairs, docs.map_batches(_as("id_a"), batch_format="pyarrow"),
            on="id_a", left_schema=pairs_schema,
        )
        j = bucketed_hash_join(
            j, docs.map_batches(_as("id_b"), batch_format="pyarrow"),
            on="id_b",
            left_schema=pairs_schema.append(pa.field("src_id_a", pa.string())),
        )

        def canon(t: pa.Table) -> pa.Table:
            sa = t["src_id_a"].to_numpy(zero_copy_only=False)
            sb = t["src_id_b"].to_numpy(zero_copy_only=False)
            df = pd.DataFrame({"source_a": np.minimum(sa, sb),
                               "source_b": np.maximum(sa, sb), "n": 1})
            return _pa(df.groupby(["source_a", "source_b"], as_index=False)
                       .agg(n=("n", "sum")))

        counted = j.map_batches(canon, batch_format="pyarrow")

    return (
        counted.groupby(["source_a", "source_b"])
        .aggregate(Sum("n", alias_name="n_pairs"))
    )


CROSS_SOURCE_LEAKAGE_DOCUMENTS_SQL = (
    "WITH pairs AS (" + NEAR_DUP_PAIRS_DOCUMENTS_SQL + """)
SELECT least(da.source, db.source) AS source_a,
       greatest(da.source, db.source) AS source_b,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM pairs
JOIN documents da ON da.doc_id = pairs.id_a
JOIN documents db ON db.doc_id = pairs.id_b
GROUP BY 1, 2
"""
)


def _combine_label_sums(frame: pd.DataFrame) -> pd.DataFrame:
    labs = frame["label"].to_numpy().astype(np.int64)
    S = np.stack([np.frombuffer(x, np.int64) for x in frame["sums"]])
    uniq, inv = np.unique(labs, return_inverse=True)
    sums = np.zeros((len(uniq), S.shape[1]), dtype=np.int64)
    np.add.at(sums, inv, S)
    counts = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(counts, inv, frame["n"].to_numpy().astype(np.int64))
    return pd.DataFrame(
        {"label": uniq, "n": counts, "sums": [r.tobytes() for r in sums]})


def _fold_label_sums(parts):
    """Exactly reduce (label:int64, n:int64, sums:binary int64-vector)
    partial rows to per-label totals through
    :func:`schema_guru_ray.fold.fold_keyed` keyed by label. Returns
    (labels sorted asc, counts, sums[len(labels), dim]) — all int64-exact.
    """
    out = fold_keyed(parts, ["label"], _combine_label_sums)
    if out.empty:
        return (np.zeros(0, np.int64), np.zeros(0, np.int64),
                np.zeros((0, 0), np.int64))
    labels = out["label"].to_numpy().astype(np.int64)
    order = np.argsort(labels)
    sums = np.stack([np.frombuffer(x, np.int64) for x in out["sums"]])
    return labels[order], out["n"].to_numpy().astype(np.int64)[order], sums[order]


def label_centroid_confusion(sf_dir: str, _batch_size: int | None = None):
    """Embedding label-quality audit: per-label centroid in EXACT
    milli-integer space (the cluster_assign convention), every vector
    re-assigned to its nearest label centroid by exact integer squared
    distance (ties → smallest label), reported as a (label,
    assigned_label, n) confusion matrix — off-diagonal mass = labels
    whose vectors sit closer to another label's centroid, the standard
    label-noise screen before training on a labeled embedding set.

    Exactness contract with the oracle: milli-int vectors (round half
    up), centroid = floor(S/n + 0.5) per dim (one float64 division —
    deterministic; exact while per-label milli sums stay under 2^53,
    i.e. ~10^9 rows per label per dim — beyond that move sums to the
    decimal-string tree merge the corr operator uses), squared distance
    expanded as v·v - 2 v·c + c·c in int64 (≤ ~6e8 per term at milli
    scale). 100-TB shape: pass 1 reduces to (#labels × dim) integer
    sums via per-batch partials folded through ``_fold_label_sums``
    (``fold_keyed`` by label — at scale the driver reads one row per
    label regardless of block count); centroids broadcast via ray.put; pass
    2 is a streaming map emitting ≤ #labels² count partials per batch."""
    import ray
    from ray.data.aggregate import Sum

    from schema_guru_ray.pipelines.queries._common import _pa

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def sum_partial(t: pa.Table) -> pa.Table:
        # null labels / embeddings cannot contribute to a centroid (SQL:
        # GROUP BY drops nothing but the sums skip NULLs; a vector-less
        # row has no position) — excluded
        t = t.filter(pc.and_(pc.is_valid(t["label"]),
                             pc.is_valid(t["embedding"])))
        if t.num_rows == 0:  # np.stack raises on an empty block
            return pa.table({"label": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "sums": pa.array([], pa.binary())})
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        V = np.floor(
            np.stack(t["embedding"].to_pandas().to_numpy()) * 1000.0 + 0.5
        ).astype(np.int64)
        uniq, inv = np.unique(lab, return_inverse=True)
        acc = np.zeros((len(uniq), V.shape[1]), dtype=np.int64)
        np.add.at(acc, inv, V)
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "label": pa.array(uniq, pa.int64()),
            "n": pa.array(n, pa.int64()),
            "sums": pa.array([row.tobytes() for row in acc], pa.binary()),
        })

    parts = ds.map_batches(
        sum_partial, batch_format="pyarrow",
        **({"batch_size": _batch_size} if _batch_size else {}),
    )
    labels, counts, sums = _fold_label_sums(parts)
    C = np.floor(sums / counts[:, None] + 0.5).astype(np.int64)
    ref = ray.put((labels, C))

    def assign(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t["label"]),
                             pc.is_valid(t["embedding"])))
        if t.num_rows == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "assigned_label": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        labs, cents = ray.get(ref)
        V = np.floor(
            np.stack(t["embedding"].to_pandas().to_numpy()) * 1000.0 + 0.5
        ).astype(np.int64)
        # exact int64: |v|^2 - 2 v.c + |c|^2 per (vector, centroid)
        d2 = (
            (V * V).sum(axis=1)[:, None]
            - 2 * (V @ cents.T)
            + (cents * cents).sum(axis=1)[None, :]
        )
        # argmin with smallest-label tie-break: labs is sorted, argmin
        # returns the first (= smallest label) among equals
        assigned = labs[np.argmin(d2, axis=1)]
        df = pd.DataFrame({
            "label": t["label"].to_numpy(zero_copy_only=False).astype("int64"),
            "assigned_label": assigned.astype("int64"),
            "n": 1,
        })
        return _pa(df.groupby(["label", "assigned_label"], as_index=False)
                   .agg(n=("n", "sum")))

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby(["label", "assigned_label"])
        .aggregate(Sum("n", alias_name="n"))
    )


LABEL_CENTROID_CONFUSION_SQL = """
WITH v AS (
    SELECT vec_id, CAST(label AS BIGINT) AS label,
           list_transform(embedding,
                          x -> CAST(floor(x * 1000 + 0.5) AS BIGINT)) AS e
    FROM embeddings
),
dims AS (SELECT CAST(range AS BIGINT) AS d FROM range(64)),
flat AS (SELECT label, d, e[d + 1] AS x FROM v, dims),
cent AS (
    SELECT label AS cl, d,
           CAST(floor(sum(x) * 1.0 / count(*) + 0.5) AS BIGINT) AS c
    FROM flat GROUP BY 1, 2
),
cvec AS (SELECT cl, list(c ORDER BY d) AS ce FROM cent GROUP BY cl),
dist AS (
    SELECT v.vec_id, v.label, cvec.cl,
           CAST(list_dot_product(e, e) - 2 * list_dot_product(e, ce)
                + list_dot_product(ce, ce) AS BIGINT) AS d2
    FROM v, cvec
),
assigned AS (
    SELECT vec_id, label, cl,
           row_number() OVER (PARTITION BY vec_id ORDER BY d2, cl) AS rn
    FROM dist
)
SELECT label, CAST(cl AS BIGINT) AS assigned_label,
       CAST(count(*) AS BIGINT) AS n
FROM assigned WHERE rn = 1
GROUP BY 1, 2
"""
