"""Text-corpus (tokens, quality, dedup-adjacent text passes) queries — part of the catalog backing __ray_entry__.queries().

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
from schema_guru_ray.stages.joins import sorted_lookup
from schema_guru_ray.pipelines.queries._common import (
    _int_units,
    _meta_rows,
    _pa,
    _pandas_cols,
    _read,
    _scalar_or,
)



# --- text / dedup operators -------------------------------------------------


def token_counts_documents(sf_dir: str):
    from schema_guru_ray.stages.text import TokenCounter

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(TokenCounter(), batch_format="pandas")
    return out.select_columns(["doc_id", "n_tokens"])


TOKEN_COUNTS_DOCUMENTS_SQL = """
SELECT doc_id, CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens
FROM documents
"""


def pack_documents(sf_dir: str, seq_len: int = 512):
    """Sequence packing (concat-and-chunk), the layout step of an LLM
    training pipeline: documents are concatenated in doc_id order and cut
    into fixed ``seq_len``-token training sequences; each document gets its
    global token offset, its first sequence id, and how many sequences it
    spans. The core primitive is a DISTRIBUTED ORDERED PREFIX-SUM:

    1. per-doc token counts (vectorized TokenCounter, pruned read);
    2. contiguous doc_id RANGE buckets (width data-scaled) → per-bucket
       token totals via one tiny groupby;
    3. driver computes the exclusive prefix over the ≤ #buckets totals and
       broadcasts the offsets once (``ray.put``);
    4. per-bucket ``map_groups``: sort by doc_id within the bucket, local
       cumsum + bucket offset — global order = bucket order + local order,
       so no global sort ever runs.

    Only O(#buckets) scalars touch the driver; the wide data moves through
    exactly one groupby shuffle. Oracle: the same arithmetic as one SQL
    window ``sum() OVER (ORDER BY doc_id)``."""
    import ray
    from ray.data.aggregate import Sum
    from schema_guru_ray.stages.text import TokenCounter
    from schema_guru_ray.stages.joins import derive_num_buckets

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    counts = ds.map_batches(TokenCounter(), batch_format="pandas").select_columns(
        ["doc_id", "n_tokens"]
    )
    max_id = int(_scalar_or(counts.max("doc_id"), -1))  # None on empty shard
    nb = derive_num_buckets(max_id + 1)
    width = max(1, (max_id // nb) + 1)

    def tag(df: pd.DataFrame) -> pa.Table:
        df = df.copy()
        df["bucket"] = (df["doc_id"] // width).astype(np.int32)
        return _pa(df)

    tagged = counts.map_batches(tag, batch_format="pandas")
    totals = _pandas_cols(
        tagged.groupby("bucket").aggregate(Sum("n_tokens", alias_name="tok")),
        ["bucket", "tok"], {"bucket": "int32", "tok": "int64"},
    ).sort_values("bucket")
    cum = np.concatenate([[0], np.cumsum(totals["tok"].to_numpy(dtype=np.int64))[:-1]])
    offsets_ref = ray.put(dict(zip(totals["bucket"].tolist(), cum.tolist())))

    def pack_bucket(g: pd.DataFrame) -> pd.DataFrame:
        offsets = ray.get(offsets_ref)
        g = g.sort_values("doc_id")
        n = g["n_tokens"].to_numpy(dtype=np.int64)
        start = offsets[int(g["bucket"].iloc[0])] + np.concatenate([[0], np.cumsum(n)[:-1]])
        seq_first = start // seq_len
        last = (start + np.maximum(n, 1) - 1) // seq_len
        n_seqs = np.where(n > 0, last - seq_first + 1, 0)
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "n_tokens": n,
            "start_tok": start,
            "seq_first": seq_first,
            "n_seqs": n_seqs.astype(np.int64),
        })

    return (
        tagged.groupby("bucket")
        .map_groups(pack_bucket, batch_format="pandas")
        .select_columns(["doc_id", "n_tokens", "start_tok", "seq_first", "n_seqs"])
    )


PACK_DOCUMENTS_SQL = """
WITH c AS (
  SELECT doc_id, CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens
  FROM documents
),
p AS (
  SELECT doc_id, n_tokens,
         CAST(coalesce(sum(n_tokens) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS start_tok
  FROM c
)
SELECT doc_id, n_tokens, start_tok,
       start_tok // 512 AS seq_first,
       CAST(CASE WHEN n_tokens = 0 THEN 0
            ELSE (start_tok + n_tokens - 1) // 512 - start_tok // 512 + 1
       END AS BIGINT) AS n_seqs
FROM p
"""


def token_frequencies_documents(sf_dir: str):
    """Global token frequency table (the vocabulary-count primitive of a
    training-data pipeline): per-batch vectorized counts pre-aggregate;
    the reduce is bucketed (tokens are a groups≈rows key at real
    vocabulary sizes — the round-5 native-aggregate trap) — only
    (token, count) partials shuffle."""
    from schema_guru_ray.stages.joins import bucketed_aggregate

    ds = _read(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pa.Table:
        toks = b["text"].fillna("").str.lower().str.findall(r"[\w']+").explode()
        counts = toks.value_counts()
        return _pa(pd.DataFrame({"token": counts.index, "n": counts.to_numpy()}))

    parts = ds.map_batches(partial, batch_format="pandas")
    return bucketed_aggregate(parts, "token", {"n": ("n", "sum")},
                              n_rows=_meta_rows(sf_dir, "documents"))


TOKEN_FREQUENCIES_DOCUMENTS_SQL = """
SELECT token, CAST(count(*) AS BIGINT) AS n
FROM (SELECT unnest(regexp_extract_all(lower(text), '[\\w'']+')) AS token FROM documents)
GROUP BY token
"""


def vocab_documents(sf_dir: str, min_freq: int = 5):
    """Vocabulary construction with DISTRIBUTED id assignment: global token
    frequencies (per-batch partials → groupby Sum), frequency floor, then
    ``vocab_id = row_number() ORDER BY (freq DESC, token)`` without a
    global sort — the pack_documents ordered-prefix-sum pattern on a
    composite key:

    1. band every surviving token by ``(-freq, first-byte band)`` — bands
       are totally ordered consistently with the target sort order;
    2. one tiny multi-key groupby counts tokens per band; the driver
       prefix-sums the ≤ (#distinct freqs × 256) band counts and
       broadcasts the exclusive offsets;
    3. per-band ``map_groups`` sorts locally by token and adds the band
       offset — global rank = band offset + local rank.

    At web scale the vocabulary is ~10^7-10^8 rows; the only driver state
    is band counts, and the heaviest pandas group is one (freq, first-byte)
    band (the freq=min_freq singleton tail splits across 256 bands)."""
    import ray
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pa.Table:
        toks = b["text"].fillna("").str.lower().str.findall(r"[\w']+").explode()
        counts = toks.value_counts()
        return _pa(pd.DataFrame({"token": counts.index, "n": counts.to_numpy()}))

    from schema_guru_ray.stages.joins import bucketed_aggregate

    # bucketed reduce: tokens are groups≈rows (round-5 aggregate trap)
    freq = bucketed_aggregate(
        ds.map_batches(partial, batch_format="pandas"),
        "token", {"freq": ("n", "sum")}, n_rows=_meta_rows(sf_dir, "documents"),
    )

    def band(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["freq"] >= min_freq].copy()
        b["negfreq"] = -b["freq"].astype("int64")
        first = b["token"].str.slice(0, 1).map(lambda s: ord(s) if s else 0)
        b["band"] = first.clip(0, 255).astype("int64")
        return _pa(b[["token", "freq", "negfreq", "band"]])

    banded = freq.map_batches(band, batch_format="pandas")
    counts = _pandas_cols(
        banded.groupby(["negfreq", "band"]).aggregate(Count(alias_name="n")),
        ["negfreq", "band", "n"],
        {"negfreq": "int64", "band": "int64", "n": "int64"},
    ).sort_values(["negfreq", "band"])
    cum = np.concatenate([[0], np.cumsum(counts["n"].to_numpy(dtype=np.int64))[:-1]])
    offsets_ref = ray.put(
        {
            (int(nf), int(bd)): int(off)
            for nf, bd, off in zip(counts["negfreq"], counts["band"], cum)
        }
    )

    def rank_band(g: pd.DataFrame) -> pd.DataFrame:
        offsets = ray.get(offsets_ref)
        g = g.sort_values("token")
        off = offsets[(int(g["negfreq"].iloc[0]), int(g["band"].iloc[0]))]
        return pd.DataFrame(
            {
                "token": g["token"].to_numpy(),
                "freq": g["freq"].astype("int64").to_numpy(),
                "vocab_id": off + 1 + np.arange(len(g), dtype=np.int64),
            }
        )

    return banded.groupby(["negfreq", "band"]).map_groups(
        rank_band, batch_format="pandas"
    )


VOCAB_DOCUMENTS_SQL = """
WITH tf AS (
    SELECT token, count(*) AS c
    FROM (SELECT unnest(regexp_extract_all(lower(text), '[\\w'']+')) AS token
          FROM documents)
    GROUP BY 1
)
SELECT token, CAST(c AS BIGINT) AS freq,
       CAST(row_number() OVER (ORDER BY c DESC, token) AS BIGINT) AS vocab_id
FROM tf
WHERE c >= 5
"""


def split_assign_documents(sf_dir: str):
    """Deterministic train/val/test split — the standard content-addressed
    80/10/10 assignment: split by md5(doc_id) hex thresholds, so membership
    is a pure function of the id (stable across runs, machines, and corpus
    growth). Pure streaming map; oracle replays the same hex comparison."""
    from schema_guru_ray.stages.sample import md5_split_assign

    ds = _read(sf_dir, "documents", ["doc_id"])

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "split": md5_split_assign(b["doc_id"]),
            }
        )

    return ds.map_batches(assign, batch_format="pandas")


SPLIT_ASSIGN_DOCUMENTS_SQL = """
SELECT doc_id,
       CASE WHEN md5(CAST(doc_id AS VARCHAR)) < 'c{c31}'
            THEN 'train'
            WHEN md5(CAST(doc_id AS VARCHAR)) < 'e{six31}'
            THEN 'val'
            ELSE 'test' END AS split
FROM documents
""".replace("{c31}", "c" * 31).replace("{six31}", "6" * 31)


def shuffle_positions_documents(sf_dir: str):
    """Deterministic global shuffle for training-data export: every doc
    gets a content-addressed shuffle key ``md5(doc_id)``, a 256-way shard
    (first hex byte) and its EXACT global position in the shuffled order —
    reproducible across runs and resumable per shard, unlike
    ``random_shuffle``. Position assignment is the banded distributed
    row-number (shards are totally ordered by their hex prefix): per-shard
    counts → driver prefix-sum over 256 scalars → per-shard local sort.
    No global sort, no driver materialization. Oracle: ``row_number() OVER
    (ORDER BY md5, doc_id)``."""
    import hashlib

    import ray
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["doc_id"])

    def key(b: pd.DataFrame) -> pa.Table:
        h = [hashlib.md5(str(i).encode()).hexdigest() for i in b["doc_id"]]
        return _pa(pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "h": h,
                "shard": [x[:2] for x in h],
            }
        ))

    keyed = ds.map_batches(key, batch_format="pandas")
    counts = _pandas_cols(
        keyed.groupby("shard").aggregate(Count(alias_name="n")),
        ["shard", "n"], {"n": "int64"},
    ).sort_values("shard")
    cum = np.concatenate([[0], np.cumsum(counts["n"].to_numpy(dtype=np.int64))[:-1]])
    offsets_ref = ray.put(dict(zip(counts["shard"], cum.tolist())))

    def rank_shard(g: pd.DataFrame) -> pd.DataFrame:
        offsets = ray.get(offsets_ref)
        g = g.sort_values(["h", "doc_id"])
        off = offsets[g["shard"].iloc[0]]
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "shard": g["shard"].to_numpy(),
                "pos": off + 1 + np.arange(len(g), dtype=np.int64),
            }
        )

    return keyed.groupby("shard").map_groups(rank_shard, batch_format="pandas")


SHUFFLE_POSITIONS_DOCUMENTS_SQL = """
WITH k AS (SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS h FROM documents)
SELECT doc_id, substr(h, 1, 2) AS shard,
       CAST(row_number() OVER (ORDER BY h, doc_id) AS BIGINT) AS pos
FROM k
"""


def quality_documents(sf_dir: str):
    from schema_guru_ray.stages.text import QualityScorer

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(QualityScorer(), batch_format="pandas")
    return out.select_columns(["doc_id", "n_chars", "n_words"])


QUALITY_DOCUMENTS_SQL = """
SELECT doc_id, CAST(len(text) AS BIGINT) AS n_chars,
       CAST(len(regexp_extract_all(lower(text), '[\\w'']+')) AS BIGINT) AS n_words
FROM documents
"""


def fingerprint_documents(sf_dir: str):
    from schema_guru_ray.stages.text import Fingerprinter

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(Fingerprinter(), batch_format="pandas")
    return out.select_columns(["doc_id", "fp_md5"])


FINGERPRINT_DOCUMENTS_SQL = """
SELECT doc_id, md5(trim(lower(regexp_replace(text, '\\s+', ' ', 'g')))) AS fp_md5
FROM documents
"""


def clean_documents(sf_dir: str):
    """Text normalization stage: NFC + control-strip + whitespace collapse,
    emitting md5 + length of the cleaned text (normalization-stable dedup
    keys). Pure map — no shuffle."""
    from schema_guru_ray.stages.text import TextCleaner

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(TextCleaner(), batch_format="pandas")
    return out.map_batches(
        lambda b: b[["doc_id", "clean_md5", "n_chars_clean"]],
        batch_format="pandas",
    )


CLEAN_DOCUMENTS_SQL = r"""
SELECT doc_id,
       md5(trim(regexp_replace(regexp_replace(nfc_normalize(text),
           '[\x00-\x1f\x7f]', '', 'g'), '\s+', ' ', 'g'))) AS clean_md5,
       CAST(len(trim(regexp_replace(regexp_replace(nfc_normalize(text),
           '[\x00-\x1f\x7f]', '', 'g'), '\s+', ' ', 'g'))) AS BIGINT) AS n_chars_clean
FROM documents
"""


def bigram_frequencies_documents(sf_dir: str, min_count: int = 5):
    """Global bigram frequency table (n-gram statistics beyond unigrams):
    per-batch vectorized counts pre-aggregate, bucketed reduce (bigrams
    are a groups≈rows key: the 10× stress with a realistic vocabulary
    measured 210 s through the native aggregate at 177k distinct bigrams
    vs seconds bucketed — the round-5 trap), frequency floor to bound
    output size."""
    from schema_guru_ray.stages.joins import bucketed_aggregate

    ds = _read(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.lower().str.findall(r"[\w']+")
        bigrams = toks.map(
            lambda ws: [f"{a} {b_}" for a, b_ in zip(ws, ws[1:])]
        ).explode().dropna()
        counts = bigrams.value_counts()
        return _pa(pd.DataFrame({"bigram": counts.index, "n": counts.to_numpy()}))

    agg = bucketed_aggregate(
        ds.map_batches(partial, batch_format="pandas"),
        "bigram", {"n": ("n", "sum")}, n_rows=_meta_rows(sf_dir, "documents"),
    )
    return agg.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n"], min_count)),
        batch_format="pyarrow",
    )


BIGRAM_FREQUENCIES_DOCUMENTS_SQL = r"""
WITH toks AS (
  SELECT regexp_extract_all(lower(text), '[\w'']+') AS tk FROM documents
),
bg AS (
  SELECT unnest(list_transform(generate_series(1, len(tk) - 1),
                               i -> tk[i] || ' ' || tk[i+1])) AS bigram
  FROM toks
)
SELECT bigram, CAST(count(*) AS BIGINT) AS n
FROM bg GROUP BY bigram HAVING count(*) >= 5
"""


def heavy_hitters_tokens(sf_dir: str, k: int = 20, capacity: int = 8192):
    """EXACT global top-k tokens without a full-vocabulary shuffle, via a
    Misra-Gries sketch (sketches/heavy.py) + exact recount.

    Pass 1: per-batch ``value_counts`` feeds a bounded MG sketch (one tiny
    pickled state per batch), tree-folded to one global sketch — every
    token with true count > n/(capacity+1) is provably among its keys.
    Pass 2: the ≤``capacity`` surviving keys broadcast via ``ray.put`` and
    are recounted EXACTLY with a filtered partial + tiny groupby (shuffle
    volume: #batches × #candidates rows, never the vocabulary). The result
    is the exact top-k whenever the k-th exact count clears the sketch's
    measured decrement bound — asserted in-run, so a capacity too small
    for the distribution fails loudly instead of silently approximating.
    Contrast ``token_frequencies_documents``: that shuffles the WHOLE
    vocabulary; this shuffles 8k candidate rows per batch regardless of
    vocabulary size — the 100 TB shape for "top 1000 tokens of the crawl".
    """
    import pickle

    import ray
    from ray.data.aggregate import Sum

    from schema_guru_ray.sketches import MisraGries, fold_sketch_states

    ds = _read(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.lower().str.findall(r"[\w']+").explode().dropna()
        counts = toks.value_counts()
        mg = MisraGries(capacity).add_counts(
            zip(counts.index.to_list(), counts.to_numpy())
        )
        return pd.DataFrame({"state": [pickle.dumps(mg)]})

    mg = fold_sketch_states(ds.map_batches(partial, batch_format="pandas"))
    if mg is None:
        return pd.DataFrame({"token": [], "n": [], "rk": []})
    cand_ref = ray.put(frozenset(k_ for k_, _ in mg.candidates()))

    def recount(b: pd.DataFrame) -> pd.DataFrame:
        cand = ray.get(cand_ref)
        toks = b["text"].fillna("").str.lower().str.findall(r"[\w']+").explode().dropna()
        counts = toks[toks.isin(cand)].value_counts()
        return pd.DataFrame({"token": counts.index, "n": counts.to_numpy()})

    from schema_guru_ray.stages.joins import bucketed_aggregate

    exact = _pandas_cols(
        bucketed_aggregate(
            ds.map_batches(recount, batch_format="pandas"),
            "token", {"n": ("n", "sum")}, n_rows=_meta_rows(sf_dir, "documents"),
        ),
        ["token", "n"], {"n": "int64"},
    )
    topk = (
        exact.sort_values(["n", "token"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    # exactness guard: all true top-k are among the candidates iff the k-th
    # exact count exceeds the sketch's total decrement (max undercount)
    if len(topk) == k and int(topk["n"].iloc[-1]) <= mg.error_bound():
        raise AssertionError(
            f"MG capacity {capacity} too small: k-th count {topk['n'].iloc[-1]}"
            f" <= decrement bound {mg.error_bound()}; raise capacity"
        )
    return pd.DataFrame(
        {
            "token": topk["token"],
            "n": topk["n"].astype("int64"),
            "rk": np.arange(1, len(topk) + 1, dtype=np.int64),
        }
    )


HEAVY_HITTERS_TOKENS_SQL = """
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[\\w'']+')) AS token FROM documents
),
counts AS (
  SELECT token, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY token
)
SELECT token, n,
       CAST(row_number() OVER (ORDER BY n DESC, token) AS BIGINT) AS rk
FROM counts
ORDER BY n DESC, token
LIMIT 20
"""


def tfidf_top_terms_documents(sf_dir: str, k: int = 5):
    """Per-document top-k terms by tf-idf (linear idf: score = tf/df —
    monotone in tf·(N/df); a single IEEE division, so bit-exact against the
    SQL oracle, unlike log-idf where libm rounding differs across engines).

    Document frequencies: per-batch UNIQUE (doc, term) partials → tiny
    ``groupby(term)`` sum (exact — a doc's row lives in exactly one batch).
    The df table broadcasts once via ``ray.put`` (the guide's small-side
    lookup pattern: vocabulary ≪ corpus; at open-web scale, cut the
    broadcast with a min_df floor or switch to a term-keyed semi-join —
    the rarest terms have df=1 and score tf/1, computable locally). Scoring
    + per-doc top-k is then a pure ``map_batches``: docs never split across
    batches, so NO shuffle touches the (doc, term, tf) triples."""
    import ray

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def pairs(b: pd.DataFrame):
        toks = b["text"].fillna("").str.lower().str.findall(r"[\w']+")
        n = toks.str.len().to_numpy()
        return pd.DataFrame(
            {
                "doc_id": np.repeat(b["doc_id"].to_numpy(), n),
                "term": np.concatenate([np.array(t, dtype=object) for t in toks])
                if n.sum()
                else np.array([], dtype=object),
            }
        )

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        p = pairs(b).drop_duplicates()
        counts = p["term"].value_counts()
        return pd.DataFrame({"term": counts.index, "df": counts.to_numpy()})

    from schema_guru_ray.stages.joins import bucketed_aggregate

    # bucketed reduce: terms are groups≈rows (round-5 aggregate trap)
    df_tbl = _pandas_cols(
        bucketed_aggregate(
            ds.map_batches(df_partial, batch_format="pandas"),
            "term", {"df": ("df", "sum")}, n_rows=_meta_rows(sf_dir, "documents"),
        ),
        ["term", "df"], {"df": "int64"},
    )
    df_ref = ray.put(dict(zip(df_tbl["term"], df_tbl["df"].astype("int64"))))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        dfs = ray.get(df_ref)
        p = pairs(b)
        if p.empty:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype=b["doc_id"].dtype),
                 "term": pd.Series([], dtype=object),
                 "tf": pd.Series([], dtype="int64"),
                 "df": pd.Series([], dtype="int64"),
                 "score": pd.Series([], dtype="float64")}
            )
        tf = p.groupby(["doc_id", "term"], sort=False).size().reset_index(name="tf")
        tf["df"] = tf["term"].map(dfs).astype("int64")
        tf["score"] = tf["tf"].to_numpy().astype("float64") / tf["df"].to_numpy()
        tf = tf.sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True], kind="stable"
        )
        out = tf.groupby("doc_id", sort=False).head(k)
        return out.assign(tf=out["tf"].astype("int64")).reset_index(drop=True)

    return ds.map_batches(score, batch_format="pandas")


TFIDF_TOP_TERMS_DOCUMENTS_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[\\w'']+')) AS term
  FROM documents
),
tf AS (
  SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf FROM tok GROUP BY doc_id, term
),
df AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM tok GROUP BY term
)
SELECT doc_id, term, tf, df, CAST(tf AS DOUBLE) / df AS score
FROM tf JOIN df USING (term)
QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, term) <= 5
"""


def langid_documents(sf_dir: str):
    from schema_guru_ray.stages.text import LangId

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(LangId(), batch_format="pandas")


# --- deterministic sampling (training-data curation) ------------------------


def sample_documents(sf_dir: str, rate: float = 0.2):
    """Content-addressed 20% Bernoulli sample of documents — deterministic
    (two runs, or Ray and DuckDB, select the SAME rows), no shuffle."""
    from schema_guru_ray.stages.sample import deterministic_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return deterministic_sample(ds, "doc_id", rate)


SAMPLE_DOCUMENTS_SQL = """
SELECT doc_id, lang
FROM documents
WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 15) < '333333333333333'
"""


def mixture_documents(sf_dir: str):
    """Corpus mixture weighting: keep 100% of lang='en' documents, 25% of
    everything else — per-stratum deterministic Bernoulli rates (the
    upsample/downsample primitive of pre-training data mixes). Pure
    filter, no shuffle, exactly SQL-replayable."""
    from schema_guru_ray.stages.sample import stratified_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(ds, "lang", "doc_id", {"en": 1.0}, default_rate=0.25)


MIXTURE_DOCUMENTS_SQL = """
SELECT doc_id, lang
FROM documents
WHERE lang = 'en'
   OR substr(md5(CAST(doc_id AS VARCHAR)), 1, 15) < '400000000000000'
"""


def repetition_documents(sf_dir: str):
    """Per-document repetition concentration (Gopher-rule family): integer
    counts of the most frequent token/bigram. Pure streaming map — no
    shuffle, per-batch vectorized numpy unique (stages/text.py
    RepetitionScorer)."""
    from schema_guru_ray.stages.text import RepetitionScorer

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(RepetitionScorer(), batch_format="pandas")


REPETITION_DOCUMENTS_SQL = """
WITH toks AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS t FROM documents
),
uc AS (
    SELECT doc_id, tok, count(*) AS c
    FROM (SELECT doc_id, unnest(t) AS tok FROM toks) GROUP BY 1, 2
),
ustats AS (
    SELECT doc_id, count(*) AS n_distinct, max(c) AS top_token_n
    FROM uc GROUP BY 1
),
bc AS (
    SELECT doc_id, bg, count(*) AS c
    FROM (
        SELECT doc_id, t[i] || ' ' || t[i+1] AS bg
        FROM toks, UNNEST(range(1, len(t))) AS u(i)
        WHERE len(t) >= 2
    ) GROUP BY 1, 2
),
bstats AS (SELECT doc_id, max(c) AS top_bigram_n FROM bc GROUP BY 1)
SELECT toks.doc_id,
       CAST(len(t) AS BIGINT) AS n_tokens,
       CAST(coalesce(ustats.n_distinct, 0) AS BIGINT) AS n_distinct,
       CAST(coalesce(ustats.top_token_n, 0) AS BIGINT) AS top_token_n,
       CAST(coalesce(bstats.top_bigram_n, 0) AS BIGINT) AS top_bigram_n
FROM toks
LEFT JOIN ustats USING (doc_id)
LEFT JOIN bstats USING (doc_id)
"""


def scrub_pii_documents(sf_dir: str):
    """PII redaction over the documents table. The synthetic corpus carries
    no PII, so the query first APPENDS deterministic doc_id-keyed PII
    (email / dotted-quad / long number, each present for a different
    doc_id residue class) — replayed identically by the SQL oracle — then
    runs the real vectorized scrub stage (stages/text.py PiiScrubber).
    Output is redaction counts + an md5 of the scrubbed text so the oracle
    checks the rewritten bytes, not just the counts."""
    import hashlib

    from schema_guru_ray.stages.text import PiiScrubber

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def augment(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].astype("int64")
        sid = ids.astype(str)
        email = (" u" + sid + "@mail.example").where(ids % 3 > 0, "")
        ip = (" from 10." + (ids % 200).astype(str) + ".0."
              + (ids % 250).astype(str)).where(ids % 2 == 0, "")
        num = (" ref " + (10000000 + ids).astype(str)).where(ids % 5 > 0, "")
        return pd.DataFrame(
            {"doc_id": ids, "text": b["text"].fillna("") + email + ip + num}
        )

    scrubbed = docs.map_batches(augment, batch_format="pandas").map_batches(
        PiiScrubber(), batch_format="pandas"
    )

    def digest(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "n_emails": b["n_emails"],
                "n_ips": b["n_ips"],
                "n_nums": b["n_nums"],
                "scrubbed_md5": [
                    hashlib.md5(s.encode()).hexdigest() for s in b["scrubbed"]
                ],
            }
        )

    return scrubbed.map_batches(digest, batch_format="pandas")


SCRUB_PII_DOCUMENTS_SQL = """
WITH aug AS (
    SELECT doc_id,
           text
           || CASE WHEN doc_id % 3 > 0
                   THEN ' u' || doc_id || '@mail.example' ELSE '' END
           || CASE WHEN doc_id % 2 = 0
                   THEN ' from 10.' || (doc_id % 200) || '.0.' || (doc_id % 250)
                   ELSE '' END
           || CASE WHEN doc_id % 5 > 0
                   THEN ' ref ' || (10000000 + doc_id) ELSE '' END AS t
    FROM documents
),
s1 AS (
    SELECT doc_id, t,
           regexp_replace(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                          '[EMAIL]', 'g') AS r1
    FROM aug
),
s2 AS (
    SELECT doc_id, t, r1,
           regexp_replace(r1, '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                          '[IP]', 'g') AS r2
    FROM s1
)
SELECT doc_id,
       CAST(len(regexp_extract_all(
           t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT)
           AS n_emails,
       CAST(len(regexp_extract_all(
           r1, '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) AS BIGINT)
           AS n_ips,
       CAST(len(regexp_extract_all(r2, '\\d{7,}')) AS BIGINT) AS n_nums,
       md5(regexp_replace(r2, '\\d{7,}', '[NUM]', 'g')) AS scrubbed_md5
FROM s2
"""


def decontaminate_documents(sf_dir: str, n: int = 3):
    """Benchmark n-gram decontamination: docs with ``doc_id % 97 == 0``
    stand in for the benchmark suite; every other document is flagged with
    its count of DISTINCT shared token n-grams. The benchmark gram set is
    built once and broadcast (``ray.put``); the corpus pass is a pure
    streaming map — no shuffle (stages/contamination.py). n=3 here because
    the synthetic vocabulary is tiny; real deployments use 8–13."""
    from schema_guru_ray.stages.contamination import (
        build_benchmark_grams,
        flag_contaminated,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def _mod_split(t: pa.Table, keep_bench: bool) -> pa.Table:
        mask = (t["doc_id"].to_numpy() % 97) == 0
        return t.filter(pa.array(mask if keep_bench else ~mask))

    bench = docs.map_batches(
        _mod_split, fn_kwargs=dict(keep_bench=True), batch_format="pyarrow"
    )
    corpus = docs.map_batches(
        _mod_split, fn_kwargs=dict(keep_bench=False), batch_format="pyarrow"
    )
    grams = build_benchmark_grams(bench, n)
    return flag_contaminated(corpus, grams, n)


DECONTAMINATE_DOCUMENTS_SQL = """
WITH toks AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS t FROM documents
),
grams AS (
    SELECT doc_id, array_to_string(t[i:i+2], ' ') AS g
    FROM toks, UNNEST(range(1, len(t) - 1)) AS u(i)
    WHERE len(t) >= 3
),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0),
hits AS (
    SELECT dg.doc_id, count(*) AS n_hits
    FROM (SELECT DISTINCT doc_id, g FROM grams WHERE doc_id % 97 <> 0) dg
    JOIN bench USING (g)
    GROUP BY 1
)
SELECT d.doc_id,
       CAST(coalesce(h.n_hits, 0) AS BIGINT) AS n_hits,
       CAST(coalesce(h.n_hits, 0) > 0 AS BIGINT) AS contaminated
FROM documents d LEFT JOIN hits h USING (doc_id)
WHERE d.doc_id % 97 <> 0
"""


def edit_distance_adjacent_docs(sf_dir: str, cap: int = 48):
    """Levenshtein edit distance over document pairs (here: adjacent
    doc_ids, a deterministic SQL-expressible pairing; production pairs
    come from the near-dup candidate stage). The distance kernel is the
    classic DP VECTORIZED ACROSS THE PAIR BATCH — a (cap×cap) loop of
    O(batch) numpy ops, not a per-pair Python loop — on texts truncated to
    ``cap`` characters (SQL substr parity). The pairing join ships only
    (doc_id, 48-char prefix) slim projections through one bucketed hash
    join."""
    from schema_guru_ray.stages.text import batch_levenshtein

    from schema_guru_ray.stages.joins import bucketed_hash_join

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def left_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pair_key": pc.add(t["doc_id"], pa.scalar(1, pa.int64())),
                "doc_a": t["doc_id"],
                "text_a": pc.utf8_slice_codeunits(t["text"], 0, cap),
            }
        )

    def right_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pair_key": t["doc_id"],
                "text_b": pc.utf8_slice_codeunits(t["text"], 0, cap),
            }
        )

    left = docs.map_batches(left_side, batch_format="pyarrow")
    right = docs.map_batches(right_side, batch_format="pyarrow")
    pairs = bucketed_hash_join(
        left, right, on="pair_key",
        n_rows=2 * _meta_rows(sf_dir, "documents"),
        left_schema=pa.schema(
            [("pair_key", pa.int64()), ("doc_a", pa.int64()),
             ("text_a", pa.string())]
        ),
        right_schema=pa.schema(
            [("pair_key", pa.int64()), ("text_b", pa.string())]
        ),
    )

    def dist(b: pd.DataFrame) -> pd.DataFrame:
        # SQL: levenshtein(NULL, x) is NULL — null-text pairs drop out
        b = b.dropna(subset=["text_a", "text_b"])
        # utf-8 bytes: DuckDB levenshtein() is byte-unit over UTF-8
        d = batch_levenshtein(
            [s.encode("utf-8") for s in b["text_a"]],
            [s.encode("utf-8") for s in b["text_b"]],
        )
        return pd.DataFrame(
            {
                "doc_a": b["doc_a"].astype("int64"),
                "doc_b": b["pair_key"].astype("int64"),
                "dist": d.astype("int64"),
            }
        )

    return pairs.map_batches(dist, batch_format="pandas")


EDIT_DISTANCE_ADJACENT_DOCS_SQL = """
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(levenshtein(substr(a.text, 1, 48), substr(b.text, 1, 48))
            AS BIGINT) AS dist
FROM documents a JOIN documents b ON b.doc_id = a.doc_id + 1
"""


def duplicate_passages_documents(sf_dir: str, n: int = 5, min_docs: int = 2):
    """Repeated-passage detection (the exact-substring dedup signal of Lee
    et al. 2022, "Deduplicating Training Data Makes Language Models
    Better", at n-gram granularity): every token ``n``-gram appearing in ≥
    ``min_docs`` DISTINCT documents, with its document count. 100-TB
    shape — the Misra-Gries broadcast-recount pattern, NOT a gram-text
    shuffle (a naive groupby(gram_text) moved GBs of strings and measured
    38.6 s at sf0.1; this form is ~6x faster and the exchange is bounded
    by the SURVIVOR set, not the vocabulary):

      1. hash pass: per-batch distinct grams per doc → 64-bit gram-hash
         counts (ints shuffle, never text); collisions only MERGE counts
         upward, so hashes with count ≥ min_docs are a SUPERSET of the
         true repeated grams — no misses;
      2. exact recount: the surviving hash set broadcasts; a second
         streaming pass emits (gram_text, 1) only for grams whose hash
         survived, and one tiny groupby recounts EXACTLY by text — hash
         collisions are eliminated here, so the result is byte-exact vs
         the oracle.

    Tokenization is the decontamination stage's ``\\S+`` over lowercased
    text (same oracle-replayable normalization). Both passes are
    vectorized: per-batch token hashing + a rolling n-window combine give
    every gram hash with numpy ops (no per-gram Python string building);
    gram TEXT is materialized only for survivor hits in pass 2."""
    from collections import Counter
    from itertools import chain

    import ray

    from ray.data.aggregate import Sum

    from schema_guru_ray.stages.joins import bucketed
    from schema_guru_ray.stages.profile import stable_hash64

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = _meta_rows(sf_dir, "documents")
    # odd multipliers make the n-window combine position-sensitive
    combine = np.array(
        [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
         0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63, 0x2545F4914F6CDD1D,
         0x100000001B3, 0xC6A4A7935BD1E995][:n],
        dtype=np.uint64,
    )

    def _gram_hashes(b: pd.DataFrame):
        """Flat per-token hashes + valid n-window gram hashes + bookkeeping
        (doc index per window, flat token list, window start positions)."""
        tok_lists = b["text"].fillna("").str.lower().str.findall(r"\S+")
        lengths = tok_lists.map(len).to_numpy()
        flat = list(chain.from_iterable(tok_lists))
        if len(flat) < n:
            return None
        codes, uniq = pd.factorize(pd.Series(flat, dtype="object"))
        th = stable_hash64(pd.Series(uniq)).astype(np.uint64)[codes]
        doc_idx = np.repeat(np.arange(len(b)), lengths)
        n_win = len(flat) - n + 1
        with np.errstate(over="ignore"):
            gh = np.zeros(n_win, np.uint64)
            for j in range(n):
                gh += th[j : j + n_win] * combine[j]
        valid = doc_idx[:n_win] == doc_idx[n - 1 :]
        return gh[valid], doc_idx[:n_win][valid], flat, np.flatnonzero(valid)

    # bucketed hash counts: a groupby(h) would be one reducer group per
    # distinct gram (measured 43.8 s for 238k groups at sf0.1); the
    # in-bucket sum + HAVING are one vectorized np.unique per bucket
    def hash_partial(b: pd.DataFrame) -> pd.DataFrame:
        r = _gram_hashes(b)
        if r is None:
            return pd.DataFrame({"h": pd.Series(dtype="int64"),
                                 "n": pd.Series(dtype="int64")})
        gh, didx, _, _ = r
        # distinct (doc, gram) via one lexsort, then counts per gram
        order = np.lexsort((gh, didx))
        gs, ds_ = gh[order], didx[order]
        first = np.ones(len(gs), bool)
        first[1:] = (gs[1:] != gs[:-1]) | (ds_[1:] != ds_[:-1])
        u, cnt = np.unique(gs[first], return_counts=True)
        return pd.DataFrame({"h": u.astype(np.int64), "n": cnt.astype(np.int64)})

    def sum_bucket(g: pd.DataFrame) -> pd.DataFrame:
        u, inv = np.unique(g["h"].to_numpy(np.int64), return_inverse=True)
        sums = np.zeros(len(u), np.int64)
        np.add.at(sums, inv, g["n"].to_numpy(np.int64))
        keep = sums >= int(min_docs)
        return pd.DataFrame({"h": u[keep], "n": sums[keep]})

    surv = _pandas_cols(
        bucketed(docs.map_batches(hash_partial, batch_format="pandas"), "h",
                 sum_bucket, n_rows=n_docs),
        ["h", "n"], {"h": "int64", "n": "int64"},
    )
    surv_ref = ray.put(np.sort(surv["h"].to_numpy(np.int64).astype(np.uint64)))

    def recount_partial(b: pd.DataFrame) -> pd.DataFrame:
        r = _gram_hashes(b)
        k = ray.get(surv_ref)
        c: Counter = Counter()
        if r is not None and len(k):
            gh, didx, flat, starts = r
            _, hit = sorted_lookup(k, gh)
            seen = set()
            for pos, d in zip(starts[hit], didx[hit]):
                g = " ".join(flat[pos : pos + n])
                if (d, g) not in seen:  # distinct per doc
                    seen.add((d, g))
                    c[g] += 1
        return pd.DataFrame(
            {"g": list(c.keys()),
             "n_docs": pd.Series(list(c.values()), dtype="int64")}
        )

    def text_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("g", as_index=False)["n_docs"].sum()
        out = out[out["n_docs"] >= int(min_docs)]
        return out.astype({"n_docs": "int64"})

    return bucketed(docs.map_batches(recount_partial, batch_format="pandas"),
                    "g", text_bucket, n_rows=n_docs)


DUPLICATE_PASSAGES_DOCUMENTS_SQL = """
WITH toks AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS t FROM documents
),
grams AS (
    SELECT DISTINCT doc_id, array_to_string(t[i:i+4], ' ') AS g
    FROM toks, UNNEST(range(1, len(t) - 3)) AS u(i)
    WHERE len(t) >= 5
)
SELECT g, count(*) AS n_docs
FROM grams GROUP BY g HAVING count(*) >= 2
"""
