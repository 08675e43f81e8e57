"""Flagship end-to-end compositions queries — part of the catalog backing __ray_entry__.queries().

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
from schema_guru_ray.pipelines.queries._common import (
    _int_units,
    _meta_rows,
    _read_documents,
)



def curate_documents(sf_dir: str):
    """FLAGSHIP COMPOSITION: the full curation chain — exact dedup →
    verified near-dup removal → quality filter (n_words ∈ [30, 100k]) →
    deterministic 50% sample — end-to-end distributed, with the DuckDB
    oracle replaying the ENTIRE chain as one CTE. Every stage is
    deterministic, so the final kept set hash-matches exactly."""
    from schema_guru_ray.pipelines.curate import curate_documents as _curate

    ds = _read_documents(sf_dir)
    return _curate(ds)


CURATE_DOCUMENTS_SQL = r"""
WITH keepers AS (
  SELECT min(doc_id) AS doc_id
  FROM documents
  GROUP BY md5(trim(lower(regexp_replace(text, '\s+', ' ', 'g'))))
),
kept AS (SELECT d.doc_id, d.text FROM documents d JOIN keepers USING (doc_id)),
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS tk FROM kept
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
),
pairs AS (
  SELECT id_a, id_b
  FROM inter
  JOIN counts ca ON ca.doc_id = id_a
  JOIN counts cb ON cb.doc_id = id_b
  WHERE n_inter * 5 >= (ca.n + cb.n - n_inter) * 4
),
survivors AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(lower(text), '[\w'']+')) AS BIGINT) AS n_words
  FROM kept
  WHERE doc_id NOT IN (SELECT id_b FROM pairs)
)
SELECT doc_id, n_words
FROM survivors
WHERE n_words BETWEEN 30 AND 100000
  AND substr(md5(CAST(doc_id AS VARCHAR)), 1, 15) < '800000000000000'
"""


def prepare_training_corpus(sf_dir: str):
    """Flagship TEXT training-data preparation chain — the full
    pre-training hygiene pipeline as ONE composition, each stage the
    library's own operator, with the whole chain replayed by a single
    DuckDB CTE:

      1. exact dedup (whitespace-normalized md5, min doc_id kept);
      2. verified near-dup removal (MinHash 21×3 → exact shingle-Jaccard
         ≥ 0.8, higher doc_id dropped);
      3. benchmark decontamination (3-gram overlap with the held-out
         doc_id % 97 == 0 suite; contaminated docs AND the suite itself
         dropped);
      4. PII scrub (email → [EMAIL], dotted quad → [IP], 7+ digits →
         [NUM], in that order);
      5. quality filter (30 ≤ words ≤ 100k on the SCRUBBED text);
      6. leakage-stable split assignment (md5(doc_id) 80/10/10).

    100-TB shape: two shuffles total (exact-dedup buckets; the LSH/verify
    exchange over candidate ids + pruned texts) — stages 3-6 are pure
    streaming maps over broadcast state. Output: (doc_id, n_words, split,
    scrubbed_md5) — the md5 pins the exact training BYTES."""
    import hashlib

    import ray

    from schema_guru_ray.pipelines.curate import (
        _confirmed_drop_ids, _exact_dedup, _remove_drops,
    )
    from schema_guru_ray.stages.contamination import (
        build_benchmark_grams, hash_gram_strings,
    )
    from schema_guru_ray.stages.text import WORD_RE, PiiScrubber

    ds = _read_documents(sf_dir)
    bench = ds.map_batches(
        lambda b: b[b["doc_id"] % 97 == 0], batch_format="pandas"
    )
    kept = _exact_dedup(ds).materialize()
    drops = _confirmed_drop_ids(kept, 0.8)
    survivors = _remove_drops(kept, drops)

    bench_grams = build_benchmark_grams(bench, 3)
    probe_ref = ray.put((hash_gram_strings(bench_grams, 3), bench_grams))

    def decontam(b: pd.DataFrame) -> pd.DataFrame:
        # vectorized hash probe + exact recount for flagged docs only,
        # over the broadcast (sorted-hash-array, frozenset) probe pair —
        # fetched once per worker process
        from schema_guru_ray.stages.contamination import exact_hit_counts
        from schema_guru_ray.stages.warm import fetch

        hash_arr, grams = fetch(probe_ref)
        hits = exact_hit_counts(b["text"].fillna(""), hash_arr, grams, 3)
        mask = (b["doc_id"].to_numpy(np.int64) % 97 != 0) & (hits == 0)
        return b[pd.Series(mask, index=b.index)]

    clean = survivors.map_batches(decontam, batch_format="pandas")

    from schema_guru_ray.stages.sample import md5_split_assign

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        scr = PiiScrubber()(b)
        s = scr["scrubbed"].fillna("")
        out = pd.DataFrame(
            {
                "doc_id": scr["doc_id"].astype("int64"),
                "n_words": s.str.lower().str.findall(WORD_RE).map(len)
                .astype("int64"),
                "scrubbed_md5": s.map(
                    lambda x: hashlib.md5(x.encode()).hexdigest()
                ),
            }
        )
        out = out[(out["n_words"] >= 30) & (out["n_words"] <= 100_000)]
        out["split"] = md5_split_assign(out["doc_id"])
        return out

    return clean.map_batches(finish, batch_format="pandas")


PREPARE_TRAINING_CORPUS_SQL = r"""
WITH keepers AS (
  SELECT min(doc_id) AS doc_id
  FROM documents
  GROUP BY md5(trim(lower(regexp_replace(text, '\s+', ' ', 'g'))))
),
kept AS (SELECT d.doc_id, d.text FROM documents d JOIN keepers USING (doc_id)),
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS tk FROM kept
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
),
pairs AS (
  SELECT id_a, id_b
  FROM inter
  JOIN counts ca ON ca.doc_id = id_a
  JOIN counts cb ON cb.doc_id = id_b
  WHERE n_inter * 5 >= (ca.n + cb.n - n_inter) * 4
),
survivors AS (
  SELECT doc_id, text FROM kept
  WHERE doc_id NOT IN (SELECT id_b FROM pairs)
),
btoks AS (
  SELECT regexp_extract_all(lower(text), '\S+') AS t
  FROM documents WHERE doc_id % 97 = 0
),
bgrams AS (
  SELECT DISTINCT array_to_string(t[i:i+2], ' ') AS g
  FROM btoks, UNNEST(range(1, len(t) - 1)) AS u(i)
  WHERE len(t) >= 3
),
stoks AS (
  SELECT doc_id, text, regexp_extract_all(lower(text), '\S+') AS t
  FROM survivors WHERE doc_id % 97 <> 0
),
sgrams AS (
  SELECT DISTINCT doc_id, array_to_string(t[i:i+2], ' ') AS g
  FROM stoks, UNNEST(range(1, len(t) - 1)) AS u(i)
  WHERE len(t) >= 3
),
contaminated AS (SELECT DISTINCT doc_id FROM sgrams JOIN bgrams USING (g)),
clean AS (
  SELECT doc_id, text FROM stoks
  WHERE doc_id NOT IN (SELECT doc_id FROM contaminated)
),
scrub AS (
  SELECT doc_id,
         regexp_replace(
           regexp_replace(
             regexp_replace(text,
               '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g'),
             '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '[IP]', 'g'),
           '\d{7,}', '[NUM]', 'g') AS s
  FROM clean
),
final AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(lower(s), '[\w'']+')) AS BIGINT) AS n_words,
         md5(s) AS scrubbed_md5
  FROM scrub
)
SELECT doc_id, n_words, scrubbed_md5,
       CASE WHEN md5(CAST(doc_id AS VARCHAR)) < '{c31}'
            THEN 'train'
            WHEN md5(CAST(doc_id AS VARCHAR)) < '{six31}'
            THEN 'val'
            ELSE 'test' END AS split
FROM final
WHERE n_words BETWEEN 30 AND 100000
""".replace("{c31}", "c" * 32).replace("{six31}", "e" + "6" * 31)
