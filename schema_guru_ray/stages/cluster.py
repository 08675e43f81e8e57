"""Distributed clustering over an embedding column (``list<float>``).

Two operators:

* :func:`assign_to_centroids` — one-shot nearest-centroid assignment with
  INTEGER-quantized dot products (embeddings → milli-units via
  ``floor(x*1000+0.5)``), so argmax ties and float summation order cannot
  flip an assignment: every product and sum is exact in int64/double, and
  the DuckDB oracle (``list_dot_product`` over the same quantization)
  replays it bit-for-bit. Centroid matrix broadcast once via ``ray.put``.
* :func:`kmeans` — real distributed Lloyd iterations: per-batch partial
  (cluster, count, vector-sum, SSE) rows → a tiny ``groupby.map_groups``
  merge (k × #batches small rows shuffle, never the vectors) → driver
  recomputes the k × d centroid matrix and re-broadcasts. The corpus
  streams every iteration; nothing but partial-sum rows and the centroid
  matrix ever leaves the workers.

At 10^12 rows the per-iteration exchange is O(#batches × k) rows of d
floats — independent of row count — and the driver state is k × d.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

from schema_guru_ray.stages.warm import fetch


def quantize_milli(x: np.ndarray) -> np.ndarray:
    """Half-up integer milli-units — matches SQL ``floor(x*1000+0.5)``
    exactly (NOT numpy's banker's rounding)."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1000.0 + 0.5).astype(np.int64)


def drop_null_vectors(batch: pd.DataFrame, column: str) -> pd.DataFrame:
    """Exclude rows whose vector is NULL before ``np.stack`` (SQL
    semantics: a null embedding never wins a similarity/assignment
    comparison — and a shard-day where the embedding column broke
    upstream must not crash the whole run)."""
    mask = batch[column].notna()
    return batch if bool(mask.all()) else batch[mask]


def _assign_batch(batch: pd.DataFrame, *, cents_ref, column: str,
                  id_column: str) -> pd.DataFrame:
    cent_ids, cents_q = fetch(cents_ref)
    batch = drop_null_vectors(batch, column)
    if batch.empty:
        return pd.DataFrame({
            id_column: pd.Series(dtype="int64"),
            "cluster_id": pd.Series(dtype="int64"),
            "dot_milli2": pd.Series(dtype="int64"),
        })
    X = quantize_milli(np.stack(batch[column].to_numpy()))
    dots = X @ cents_q.T  # int64-exact
    best = np.argmax(dots, axis=1)  # first max == lowest centroid id
    return pd.DataFrame(
        {
            id_column: batch[id_column].astype("int64"),
            "cluster_id": cent_ids[best].astype("int64"),
            "dot_milli2": dots[np.arange(len(best)), best].astype("int64"),
        }
    )


def assign_to_centroids(ds, centroid_ids: np.ndarray, centroids: np.ndarray,
                        column: str = "embedding", id_column: str = "vec_id"):
    """Assign every vector to the centroid with the highest integer-milli
    dot product (ties → lowest centroid id, via argmax-first over
    id-sorted centroids). Returns (id, cluster_id, dot_milli2) rows."""
    import ray

    order = np.argsort(centroid_ids)
    C = (np.stack(centroids)[order] if len(centroid_ids)
         else np.zeros((0, 0), np.float64))  # empty seeds ⇔ empty input
    ref = ray.put((np.asarray(centroid_ids)[order], quantize_milli(C)))
    return ds.map_batches(
        _assign_batch,
        fn_kwargs=dict(cents_ref=ref, column=column, id_column=id_column),
        batch_format="pandas",
    )


_PARTIAL_SCHEMA = pa.schema([
    ("cluster", pa.int64()),
    ("n", pa.int64()),
    ("vec_sum", pa.list_(pa.float64())),
    ("sse", pa.float64()),
])


def _partials_batch(batch: pd.DataFrame, *, cents_ref, column: str) -> pa.Table:
    # Output is ARROW: fold_keyed's tree regime shuffles these partials by
    # cluster, and Ray's sort shuffle takes pandas blocks (object-dtype
    # vec_sum) through a measured ~5x slow path; a list<float64> column
    # also keeps the block size estimator exact.
    C = fetch(cents_ref)
    batch = drop_null_vectors(batch, column)
    if batch.empty or not len(C):
        return _PARTIAL_SCHEMA.empty_table()
    X = np.stack(batch[column].to_numpy()).astype(np.float64)
    d2 = (
        (X * X).sum(axis=1, keepdims=True)
        - 2.0 * (X @ C.T)
        + (C * C).sum(axis=1)[None, :]
    )
    assign = np.argmin(d2, axis=1)
    sse = d2[np.arange(len(assign)), assign]
    # vectorized per-cluster (n, vec_sum, sse) via sort + reduceat
    order = np.argsort(assign, kind="stable")
    sorted_assign = assign[order]
    clusters, starts = np.unique(sorted_assign, return_index=True)
    n = np.diff(np.append(starts, len(sorted_assign)))
    vec_sums = np.add.reduceat(X[order], starts, axis=0)
    sse_sums = np.add.reduceat(sse[order], starts)
    return pa.table({
        "cluster": pa.array(clusters.astype(np.int64)),
        "n": pa.array(n.astype(np.int64)),
        "vec_sum": pa.FixedSizeListArray.from_arrays(
            pa.array(vec_sums.ravel(), type=pa.float64()), X.shape[1]
        ).cast(pa.list_(pa.float64())),
        "sse": pa.array(sse_sums.astype(np.float64)),
    })


def _combine_cluster_partials(frame: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        [
            {"cluster": c, "n": int(g["n"].sum()),
             "vec_sum": np.stack(g["vec_sum"].to_numpy()).sum(axis=0),
             "sse": float(g["sse"].sum())}
            for c, g in frame.groupby("cluster", sort=False, dropna=False)
        ],
        columns=["cluster", "n", "vec_sum", "sse"],
    )


def _fold_cluster_partials(partials) -> list:
    """Fold a per-batch Lloyd-partial Dataset to ≤ k merged rows, keyed by
    cluster through :func:`schema_guru_ray.fold.fold_keyed`. The
    interactive case folds on the driver, skipping a sort-exchange whose
    fixed ~0.4-0.6 s dominated every Lloyd round at sf0.1."""
    from schema_guru_ray.fold import fold_keyed

    return fold_keyed(partials, ["cluster"], _combine_cluster_partials).to_dict("records")


def _seed_partial(batch: pd.DataFrame, *, k: int, column: str,
                  id_column: str) -> pd.DataFrame:
    """Per-batch k-smallest-id candidates — the partial of the seed
    selection, so the deterministic lowest-id init never needs a global
    sort (sorting 10^12 rows to pick k vectors is the trap)."""
    batch = drop_null_vectors(batch, column)
    ids = batch[id_column].to_numpy()
    if len(ids) == 0:
        return pa.schema(
            [(id_column, pa.int64()), (column, pa.list_(pa.float64()))]
        ).empty_table()
    kk = min(k, len(ids))
    idx = np.argpartition(ids, kk - 1)[:kk]
    return pa.table({
        id_column: pa.array(ids[idx].astype(np.int64)),
        column: pa.array(
            [np.asarray(v, dtype=np.float64) for v in batch[column].to_numpy()[idx]],
            pa.list_(pa.float64()),
        ),
    })


def _seed_centroids(ds, k: int, column: str, id_column: str,
                    return_ids: bool = False):
    """k smallest-id vectors via two partial-reduce map levels (per-batch
    k-candidates, then a re-reduce over ~4096-candidate blocks) — the
    driver sees ≤ k rows per surviving block, never a sorted corpus.
    With ``return_ids`` also returns the seeds' ids (ascending)."""
    partials = ds.map_batches(
        _seed_partial, fn_kwargs=dict(k=k, column=column, id_column=id_column),
        batch_format="pandas",
    ).map_batches(
        _seed_partial, fn_kwargs=dict(k=k, column=column, id_column=id_column),
        batch_format="pandas", batch_size=4096,
    )
    cand = partials.to_pandas()  # ≤ k rows per 4096-candidate block: tiny
    if cand.empty or id_column not in cand.columns:
        # empty input: zero seeds (Ray returns a 0-column frame on empty)
        ids, C = np.zeros(0, np.int64), np.zeros((0, 0), np.float64)
        return (ids, C) if return_ids else C
    cand = cand.nsmallest(k, id_column).sort_values(id_column)
    C = np.stack([np.asarray(v, dtype=np.float64) for v in cand[column]])
    if return_ids:
        return cand[id_column].to_numpy(dtype=np.int64), C
    return C


def kmeans(ds, k: int = 8, iters: int = 5, column: str = "embedding",
           id_column: str = "vec_id", materialize_input: bool = True,
           ) -> Tuple[np.ndarray, List[float]]:
    """Distributed Lloyd k-means (squared-Euclidean). Deterministic init:
    the vectors of the ``k`` smallest ids (partial-reduce, no global sort).
    Returns the final k × d centroid matrix and the per-iteration inertia
    history (SSE against the iteration's INPUT centroids — non-increasing
    by Lloyd's argument up to float noise). Empty clusters keep their
    previous centroid.

    ``materialize_input`` caches the (pruned) input blocks in the object
    store once so the ``iters`` passes don't re-execute the read each
    round — the standard trade for iterative algorithms (Ray spills if the
    cached columns exceed memory); pass False to keep a fully lazy input."""
    import ray

    from ray.data.dataset import MaterializedDataset

    if materialize_input and not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    C = _seed_centroids(ds, k, column, id_column)
    history: List[float] = []
    for _ in range(iters):
        ref = ray.put(C)
        partials = ds.map_batches(
            _partials_batch,
            fn_kwargs=dict(cents_ref=ref, column=column),
            batch_format="pandas",
        )
        merged = _fold_cluster_partials(partials)
        history.append(float(sum(r["sse"] for r in merged)))
        newC = C.copy()
        for r in merged:
            if r["n"] > 0:
                newC[r["cluster"]] = np.asarray(r["vec_sum"]) / r["n"]
        C = newC
    return C, history


def kmeans_summary(ds, k: int = 8, iters: int = 5, column: str = "embedding",
                   id_column: str = "vec_id") -> pd.DataFrame:
    """Cluster-size summary after ``iters`` Lloyd rounds: one row per
    cluster with its member count, plus the final inertia (micro-units,
    integer) repeated per row for a stable scalar surface."""
    import ray
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()  # shared by the Lloyd rounds AND the sizes pass
    C, history = kmeans(ds, k=k, iters=iters, column=column, id_column=id_column)
    ref = ray.put(C)
    partials = ds.map_batches(
        _partials_batch, fn_kwargs=dict(cents_ref=ref, column=column),
        batch_format="pandas",
    )
    sizes = _fold_cluster_partials(partials)
    df = pd.DataFrame(
        {
            "cluster": [r["cluster"] for r in sizes],
            "n": [r["n"] for r in sizes],
        }
    ).sort_values("cluster").reset_index(drop=True)
    df["final_inertia_micro"] = np.int64(np.floor(sum(r["sse"] for r in sizes) * 1e6 + 0.5))
    return df.astype({"cluster": "int64", "n": "int64"})
