"""Clustering stage: integer-quantized centroid assignment (deterministic
argmax) and distributed Lloyd k-means (vs a driver-side numpy reference)."""

import numpy as np
import pandas as pd
import pytest


def _blob_frame(n_per=40, k=3, d=8, sep=20.0, seed=7):
    rng = np.random.default_rng(seed)
    rows = []
    vid = 0
    for c in range(k):
        center = np.zeros(d)
        center[c] = sep
        for _ in range(n_per):
            rows.append(
                {"vec_id": vid, "embedding": (center + rng.normal(0, 1, d)).tolist()}
            )
            vid += 1
    return pd.DataFrame(rows)


def _reference_lloyd(X, C, iters):
    """Driver-side Lloyd with the same init / empty-cluster rule."""
    hist = []
    for _ in range(iters):
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        hist.append(float(d2[np.arange(len(X)), assign].sum()))
        for c in range(len(C)):
            m = assign == c
            if m.any():
                C = C.copy()
                C[c] = X[m].mean(axis=0)
    return C, assign, hist


@pytest.mark.usefixtures("ray_session")
class TestKMeans:
    def test_matches_reference_on_blobs(self):
        import ray.data as rd

        from schema_guru_ray.stages.cluster import kmeans

        df = _blob_frame()
        ds = rd.from_pandas(df).repartition(4)
        k, iters = 3, 4
        C, hist = kmeans(ds, k=k, iters=iters)
        X = np.stack(df["embedding"].map(np.asarray))
        C0 = X[:k].copy()
        refC, ref_assign, ref_hist = _reference_lloyd(X, C0, iters)
        # well-separated blobs: float summation order cannot move centroids
        # across the 20-sigma margin, so centroids agree to float tolerance
        assert np.allclose(C, refC, atol=1e-8)
        assert np.allclose(hist, ref_hist, rtol=1e-12)
        # inertia non-increasing (Lloyd)
        assert all(b <= a * (1 + 1e-12) for a, b in zip(hist, hist[1:]))

    def test_summary_counts(self):
        import ray.data as rd

        from schema_guru_ray.stages.cluster import kmeans_summary

        df = _blob_frame()
        out = kmeans_summary(rd.from_pandas(df).repartition(3), k=3, iters=4)
        # every blob recovered with its 40 members
        assert sorted(out["n"]) == [40, 40, 40]
        assert out["final_inertia_micro"].nunique() == 1


@pytest.mark.usefixtures("ray_session")
class TestAssignQuantized:
    def test_tie_breaks_to_lowest_centroid_id(self):
        import ray.data as rd

        from schema_guru_ray.stages.cluster import assign_to_centroids

        # two identical centroids (ids 5 and 9): tie must go to id 5
        cents = np.array([[1.0, 0.0], [1.0, 0.0]])
        ds = rd.from_pandas(
            pd.DataFrame(
                {"vec_id": [100, 101], "embedding": [[1.0, 0.0], [0.5, 0.5]]}
            )
        )
        out = (
            assign_to_centroids(ds, np.array([9, 5]), cents)
            .to_pandas()
            .sort_values("vec_id")
        )
        assert list(out["cluster_id"]) == [5, 5]
        assert list(out["dot_milli2"]) == [1000 * 1000, 500 * 1000]


@pytest.mark.usefixtures("ray_session")
class TestFoldRegimes:
    def test_merge_regime_matches_driver_fold(self, monkeypatch):
        """The >DRIVER_FOLD_ROWS regime (worker-side groupby merge of the
        Arrow Lloyd partials) must fold to exactly the small-regime result;
        exercised directly because kmeans() only crosses the limit at block
        counts a unit test shouldn't pay for."""
        import ray
        import ray.data as rd

        from schema_guru_ray.stages.cluster import (
            _fold_cluster_partials,
            _partials_batch,
        )

        rng = np.random.default_rng(7)
        df = pd.DataFrame({
            "vec_id": np.arange(120, dtype=np.int64),
            "embedding": list(rng.normal(size=(120, 4))),
        })
        C = rng.normal(size=(3, 4))
        ref = ray.put(C)
        # 40 single-partial blocks -> up to 120 partial rows
        parts = rd.from_pandas(df).repartition(40).map_batches(
            _partials_batch, fn_kwargs=dict(cents_ref=ref, column="embedding"),
            batch_format="pandas",
        )
        from schema_guru_ray import fold

        monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 10_000)
        small = _fold_cluster_partials(parts)
        monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 1)
        large = _fold_cluster_partials(parts)
        assert {r["cluster"] for r in small} == {r["cluster"] for r in large}
        s = {r["cluster"]: r for r in small}
        for r in large:
            assert r["n"] == s[r["cluster"]]["n"]
            assert np.allclose(r["vec_sum"], s[r["cluster"]]["vec_sum"], atol=1e-9)
            assert abs(r["sse"] - s[r["cluster"]]["sse"]) < 1e-9
        # partial blocks must be ARROW (the sort-shuffle fast path)
        import pyarrow as pa

        blk = ray.get(parts.materialize().get_internal_block_refs()[0])
        assert isinstance(blk, pa.Table)
