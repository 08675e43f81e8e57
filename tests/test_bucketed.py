"""``stages.joins.bucketed`` is the package's one hash-bucket shuffle.

Two properties keep it that way:

* the bucket count may change the plan, never the answer: every ported
  helper (and the catalog queries built on ``bucketed``) returns the same
  multiset of rows whatever ``joins.MIN_BUCKETS`` is, NULL keys and
  strided integer keys included;
* no module but ``stages/joins.py`` hand-rolls a bucket tag or carries a
  bucket-count parameter.
"""

import ast
import pathlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from schema_guru_ray.stages import joins

FLOORS = [1, 7, 64]


def _value(v):
    if v is None or (not isinstance(v, (bytes, str, list, np.ndarray)) and pd.isna(v)):
        return None
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, float, np.integer, np.floating)):
        return float(v)
    return v


def _multiset(out) -> list:
    """Rows as a sorted list of tuples, dtype-insensitive: a bucket that
    holds a NULL key reads its integer column back as float64."""
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    df = df[sorted(df.columns)]
    rows = [tuple(_value(v) for v in row) for row in df.itertuples(index=False)]
    return sorted(rows, key=repr)


def _events(n: int = 400, seed: int = 3) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    k = pd.array(rng.integers(0, 30, n) * 8, dtype="Int64")  # strided keys
    k[rng.random(n) < 0.1] = pd.NA
    k2 = pd.Series(rng.choice(["a", "b", "c", "d", "e"], n), dtype="object")
    k2[rng.random(n) < 0.1] = None
    return pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": k,
        "k2": k2,
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
    })


def _events_ds():
    import ray.data as rd

    t = pa.Table.from_pandas(_events(), preserve_index=False)
    # several blocks, only some of which hold a NULL key
    return rd.from_arrow([t.slice(i, 50) for i in range(0, t.num_rows, 50)])


def _docs_ds():
    import ray.data as rd

    rng = np.random.default_rng(9)
    words = [f"w{i}" for i in range(60)]
    base = [" ".join(rng.choice(words, 40)) for _ in range(30)]
    texts = base + [t.replace("w1 ", "w2 ", 1) for t in base[:10]] + base[:5]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    return rd.from_pandas(df).repartition(4)


def _vectors_ds():
    import ray.data as rd

    rng = np.random.default_rng(5)
    base = rng.standard_normal((40, 8))
    vecs = np.vstack([base, base[:8] + rng.standard_normal((8, 8)) * 0.01])
    df = pd.DataFrame({"vec_id": np.arange(len(vecs), dtype=np.int64),
                       "embedding": [v.astype(np.float32) for v in vecs]})
    return rd.from_pandas(df).repartition(3)


def _sigs_ds():
    import ray.data as rd

    rng = np.random.default_rng(2)
    sig = rng.choice([f"s{i}" for i in range(25)], 300)
    df = pd.DataFrame({"vec_id": rng.permutation(300).astype(np.int64),
                       "sig": sig})
    return rd.from_pandas(df).repartition(4)


def _run_bucketed():
    def fn(g):
        return g.groupby("k", as_index=False).agg(s=("v", "sum"), n=("v", "size"))

    return joins.bucketed(_events_ds(), "k", fn, n_rows=400)


def _run_bucketed_aggregate():
    return joins.bucketed_aggregate(
        _events_ds(), ["k", "k2"], {"s": ("v", "sum"), "mn": ("v", "min")})


def _run_grouped_topk():
    return joins.grouped_topk(_events_ds(), "k", "v", 2, tie_col="id",
                              rank_alias="rk")


def _run_partitioned_window():
    def apply_fn(g):
        return g.assign(rsum=g.groupby("k", sort=False)["v"].cumsum())

    return joins.partitioned_window(_events_ds(), "k", ["id"], apply_fn)


def _run_stratified_cap():
    from schema_guru_ray.stages.sample import stratified_cap

    return stratified_cap(_events_ds(), "k2", "id", 7, rank_alias="rk")


def _run_exact_dedup():
    from schema_guru_ray.stages.dedup import exact_dedup

    return exact_dedup(_docs_ds())


def _run_curate_exact_dedup():
    from schema_guru_ray.pipelines.curate import _exact_dedup

    return _exact_dedup(_docs_ds())


def _run_minhash_verify():
    from schema_guru_ray.stages.dedup import (
        MinHashSigner, minhash_candidate_pairs, verify_pairs_jaccard_distributed,
    )

    docs = _docs_ds()
    cands = minhash_candidate_pairs(docs, MinHashSigner(num_perm=32, bands=16))
    return verify_pairs_jaccard_distributed(cands, docs, threshold=0.5)


def _run_minhash():
    from schema_guru_ray.stages.dedup import MinHashSigner, minhash_candidate_pairs

    return minhash_candidate_pairs(_docs_ds(), MinHashSigner(num_perm=32, bands=16))


def _run_simhash():
    from schema_guru_ray.stages.dedup import simhash_pairs

    return simhash_pairs(_docs_ds(), max_hamming=6)


def _run_embedding():
    from schema_guru_ray.stages.dedup import embedding_near_dup_pairs

    return embedding_near_dup_pairs(_vectors_ds(), dim=8, threshold=0.98,
                                    n_bits=4, n_tables=4)


def _run_collapse():
    from schema_guru_ray.stages.audio_features import collapse_drop_hashes

    return collapse_drop_hashes(_sigs_ds())


HELPERS = {
    "bucketed": _run_bucketed,
    "bucketed_aggregate": _run_bucketed_aggregate,
    "grouped_topk": _run_grouped_topk,
    "partitioned_window": _run_partitioned_window,
    "stratified_cap": _run_stratified_cap,
    "exact_dedup": _run_exact_dedup,
    "curate_exact_dedup": _run_curate_exact_dedup,
    "minhash_candidate_pairs": _run_minhash,
    "verify_pairs_jaccard_distributed": _run_minhash_verify,
    "simhash_pairs": _run_simhash,
    "embedding_near_dup_pairs": _run_embedding,
    "collapse_drop_hashes": _run_collapse,
}

CATALOG = ["modal_event_type_user", "cohort_retention_events",
           "sessionize_events", "distinct_counts", "large_orders_having"]


@pytest.mark.usefixtures("ray_session")
class TestBucketCountInvariance:
    @pytest.mark.parametrize("name", list(HELPERS))
    def test_helper_rows_do_not_depend_on_bucket_count(self, name, monkeypatch):
        run = HELPERS[name]
        want = _multiset(run())
        assert want, f"{name}: the input must produce rows"
        for floor in FLOORS:
            monkeypatch.setattr(joins, "MIN_BUCKETS", floor)
            assert _multiset(run()) == want, f"{name} at MIN_BUCKETS={floor}"

    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_rows_do_not_depend_on_bucket_count(self, name, sf_dir,
                                                        monkeypatch):
        from schema_guru_ray.pipelines import queries

        fn = queries.QUERIES[name]
        want = _multiset(fn(sf_dir))
        assert want
        for floor in (1, 7):
            monkeypatch.setattr(joins, "MIN_BUCKETS", floor)
            assert _multiset(fn(sf_dir)) == want, f"{name} at MIN_BUCKETS={floor}"


def test_bucket_policy_lives_only_in_joins_module():
    """No module but stages/joins.py tags rows with a bucket or sizes a
    bucket count: no ``n_buckets``/``n_shards`` names, no
    ``num_partitions`` parameter, no inline ``rows / 250_000`` sizing and
    no ``groupby`` on one of the retired tag columns. Two ``"bucket"``
    columns stay because they are not hash buckets: pack_documents' doc_id
    RANGE shard and the quantile-bucket output of quantile_buckets."""
    pkg = pathlib.Path(joins.__file__).parents[1]
    roots = [pkg, pkg.parent / "jobs"]
    banned = re.compile(
        r"\bn_buckets\b|\bn_shards\b|/\s*250_000"
        r"|groupby\(\"(?:__b|__gb|__cbucket|__wbucket|bucket|coarse)\"\)")
    allowed = {
        ("pipelines/queries/textcorpus.py",
         'tagged.groupby("bucket").aggregate(Sum("n_tokens", alias_name="tok")),'),
        ("pipelines/queries/textcorpus.py", 'tagged.groupby("bucket")'),
        ("pipelines/queries/relational.py", '.groupby("bucket")'),
    }
    hits = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel == "stages/joins.py":
                continue
            text = path.read_text()
            for no, line in enumerate(text.splitlines(), 1):
                if banned.search(line) and (rel, line.strip()) not in allowed:
                    hits.append(f"{root.name}/{rel}:{no}: {line.strip()}")
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    for a in args.posonlyargs + args.args + args.kwonlyargs:
                        if a.arg == "num_partitions":
                            hits.append(f"{root.name}/{rel}:{a.lineno}: "
                                        f"{node.name}(num_partitions)")
    assert not hits, "\n".join(hits)


@pytest.mark.usefixtures("ray_session")
def test_null_key_bucket_keeps_integer_key_type(tmp_path, monkeypatch):
    """A bucket that holds a NULL integer key must emit its keys as int64
    like every other bucket: pandas would hand ``fn`` that key column as
    float64, and ``write_parquet`` would then write files whose key types
    differ (double in one, int64 in the rest). At 3 buckets the NULL key
    shares its bucket with key 5, and keys 6 and 7 land in another."""
    import pyarrow.parquet as pq
    import ray.data as rd

    monkeypatch.setattr(joins, "MIN_BUCKETS", 3)

    blocks = [pa.table({"k": pa.array([5, 6, 7], pa.int64()),
                        "v": pa.array([1, 2, 3], pa.int64())}),
              pa.table({"k": pa.array([5, None, 7], pa.int64()),
                        "v": pa.array([4, 5, 6], pa.int64())})]
    out = joins.bucketed_aggregate(rd.from_arrow(blocks), "k",
                                   {"n": ("v", "size")}, n_rows=6)
    out.write_parquet(str(tmp_path))
    files = sorted(tmp_path.glob("*.parquet"))
    assert files
    assert {str(pq.read_schema(f).field("k").type) for f in files} == {"int64"}
    got = pd.concat([pq.read_table(f).to_pandas() for f in files])
    assert dict(zip(got["k"], got["n"])) == {5: 2, 6: 1, 7: 2}
