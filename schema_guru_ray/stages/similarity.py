"""Similarity search over an embedding column (``list<float>``).

* :func:`brute_force_topk` — the exactness baseline: the query matrix is
  broadcast once (``ray.put``), every batch computes a numpy matmul against
  it and emits only its LOCAL top-k per query; the tiny partials merge in a
  final groupby. Nothing but (query, id, score) triples shuffle.
* :func:`ivf_topk` — the scale path: a k-means-lite coarse quantizer is fit
  on a driver-side sample (one pass), centroids broadcast; each batch
  assigns its vectors to cells and only cells within the query's ``n_probe``
  nearest centroids are scored.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd

from schema_guru_ray.stages.warm import fetch, warm_kernel


def _unit(m: np.ndarray) -> np.ndarray:
    return m / np.clip(np.linalg.norm(m, axis=1, keepdims=True), 1e-12, None)


def _merge_topk_partials(partials, k: int, id_column: str) -> pd.DataFrame:
    """Driver-side merge of per-batch local top-k partials, VECTORIZED:
    one stable sort over the O(#batches × n_queries × k) partial rows +
    a groupby-head — no per-row Python loop (the round-2 heap merge was a
    real loop at 10^4-query workloads). Tie-break matches the SQL oracle:
    score DESC, then id ASC."""
    frames = list(partials.iter_batches(batch_size=65536, batch_format="pandas"))
    if not frames:
        return pd.DataFrame({"query_idx": [], id_column: [], "score": []})
    allp = pd.concat(frames, ignore_index=True)
    allp = allp.sort_values(
        ["query_idx", "score", id_column],
        ascending=[True, False, True],
        kind="stable",
    )
    out = allp.groupby("query_idx", sort=False).head(k).reset_index(drop=True)
    return out[["query_idx", id_column, "score"]].astype(
        {"query_idx": "int64", id_column: "int64", "score": "float64"}
    )


def _topk_task(batch: pd.DataFrame, *, queries_ref, k: int, column: str,
               id_column: str) -> pd.DataFrame:
    """Per-batch local top-k kernel: the unit-normalized query matrix is
    fetched from the object store once per worker process."""
    from schema_guru_ray.stages.cluster import drop_null_vectors

    q = fetch(queries_ref)
    batch = drop_null_vectors(batch, column)
    if batch.empty:
        return pd.DataFrame({"query_idx": pd.Series(dtype="int64"),
                             id_column: pd.Series(dtype="int64"),
                             "score": pd.Series(dtype="float64")})
    vecs = _unit(np.stack(batch[column].to_numpy()).astype(np.float64))
    ids = batch[id_column].to_numpy()
    sims = q @ vecs.T
    kk = min(k, sims.shape[1])
    # deterministic tie-break: score desc, then id ASC (matches the SQL
    # oracle's ORDER BY similarity DESC, vec_id)
    out_q, out_i = [], []
    for qi in range(sims.shape[0]):
        order = np.lexsort((ids, -sims[qi]))[:kk]
        out_q.append(np.full(kk, qi, dtype=np.int64))
        out_i.append(order)
    rows_q = np.concatenate(out_q)
    rows_i = np.concatenate(out_i)
    return pd.DataFrame(
        {
            "query_idx": rows_q,
            id_column: ids[rows_i],
            "score": sims[rows_q, rows_i],
        }
    )


def brute_force_topk(ds, queries: np.ndarray, k: int = 10,
                     column: str = "embedding", id_column: str = "vec_id") -> pd.DataFrame:
    """Exact cosine top-k for each query row. Result is (n_q × k) rows —
    driver-side merge of per-batch partials via a single heap pass over the
    (tiny) partial top-k stream. The unit-normalized query matrix is
    broadcast once via ray.put."""
    import ray

    qref = ray.put(_unit(np.asarray(queries, dtype=np.float64)))
    partials = ds.map_batches(
        _topk_task,
        fn_kwargs=dict(queries_ref=qref, k=k, column=column, id_column=id_column),
        batch_format="pandas",
    )
    return _merge_topk_partials(partials, k, id_column)


def fit_centroids(sample: np.ndarray, n_cells: int, iters: int = 8, seed: int = 3) -> np.ndarray:
    """k-means-lite on a sample (Lloyd iterations, unit-normalized)."""
    rng = np.random.default_rng(seed)
    x = _unit(np.asarray(sample, dtype=np.float64))
    cents = x[rng.choice(len(x), size=min(n_cells, len(x)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ cents.T, axis=1)
        for c in range(len(cents)):
            mask = assign == c
            if mask.any():
                cents[c] = x[mask].mean(axis=0)
        cents = _unit(cents)
    return cents


class IVFBatchTopK:
    """map_batches kernel for IVF search: scores only vectors whose cell is
    probed by at least one query."""

    def __init__(self, queries_ref, centroids_ref, k: int, n_probe: int,
                 column: str = "embedding", id_column: str = "vec_id"):
        import ray

        self.queries = _unit(np.asarray(ray.get(queries_ref), dtype=np.float64))
        self.centroids = np.asarray(ray.get(centroids_ref), dtype=np.float64)
        self.k = k
        self.column = column
        self.id_column = id_column
        # per-query probed cells, precomputed once per worker process
        sims = self.queries @ self.centroids.T
        n_probe = min(n_probe, self.centroids.shape[0])
        self.probed = np.argpartition(-sims, n_probe - 1, axis=1)[:, :n_probe]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from schema_guru_ray.stages.cluster import drop_null_vectors

        batch = drop_null_vectors(batch, self.column)
        if batch.empty:
            return pd.DataFrame(
                {"query_idx": [], self.id_column: [], "score": []}
            )
        vecs = _unit(np.stack(batch[self.column].to_numpy()).astype(np.float64))
        ids = batch[self.id_column].to_numpy()
        cells = np.argmax(vecs @ self.centroids.T, axis=1)
        frames = []
        for q in range(len(self.queries)):
            mask = np.isin(cells, self.probed[q])
            if not mask.any():
                continue
            sims = vecs[mask] @ self.queries[q]
            k = min(self.k, sims.size)
            idx = np.argpartition(-sims, k - 1)[:k]
            frames.append(
                pd.DataFrame(
                    {
                        "query_idx": np.int64(q),
                        self.id_column: ids[mask][idx],
                        "score": sims[idx],
                    }
                )
            )
        if not frames:
            return pd.DataFrame({"query_idx": [], self.id_column: [], "score": []})
        return pd.concat(frames, ignore_index=True)


def ivf_topk(ds, queries: np.ndarray, k: int = 10, n_cells: int = 16,
             n_probe: int = 4, sample_size: int = 2000,
             column: str = "embedding", id_column: str = "vec_id") -> pd.DataFrame:
    """Approximate cosine top-k with an IVF coarse quantizer. Recall grows
    with ``n_probe`` (== n_cells → exact)."""
    import ray

    rows = [r[column] for r in ds.limit(sample_size).take(sample_size)
            if r[column] is not None]
    if not rows:  # no usable vectors anywhere: typed empty result
        return pd.DataFrame({"query_idx": pd.Series(dtype="int64"),
                             id_column: pd.Series(dtype="int64"),
                             "score": pd.Series(dtype="float64")})
    sample = np.stack(rows)
    cents = fit_centroids(sample, n_cells)
    qref, cref = ray.put(np.asarray(queries)), ray.put(cents)
    partials = ds.map_batches(
        warm_kernel(
            IVFBatchTopK, queries_ref=qref, centroids_ref=cref, k=k,
            n_probe=n_probe, column=column, id_column=id_column,
        ),
        batch_format="pandas",
    )
    return _merge_topk_partials(partials, k, id_column)
