"""Hot-key skew escape hatch for the bucketed joins (round-4 verdict #3).

A single hot key lands in one bucket of the plain bucketed joins by
construction; `hot_key_threshold` engages a Misra-Gries probe + per-key
salting (spread the heavy side, replicate the light side). These tests run
a 90%-one-key corpus through the salted regime and pin (a) exact oracle
parity with a pandas merge, (b) that the regime actually engaged, and
(c) that the hot key's rows really spread across the salt sub-buckets.
"""

import numpy as np
import pandas as pd
import pytest


def _skewed_frames(n_left=20_000, hot_key=7, hot_frac=0.9, n_keys=50, seed=11):
    rng = np.random.default_rng(seed)
    k = np.where(
        rng.random(n_left) < hot_frac,
        hot_key,
        rng.integers(100, 100 + n_keys, size=n_left),
    ).astype(np.int64)
    left = pd.DataFrame({"k": k, "x": np.arange(n_left, dtype=np.int64)})
    right = pd.DataFrame(
        {
            "k": np.r_[hot_key, np.arange(100, 100 + n_keys)].astype(np.int64),
            "y": np.arange(n_keys + 1, dtype=np.int64) * 10,
        }
    )
    return left, right


@pytest.mark.usefixtures("ray_session")
class TestSkewJoin:
    def test_detect_hot_keys_superset(self, ray_session):
        import ray.data as rd

        from schema_guru_ray.stages.joins import detect_hot_keys

        left, _ = _skewed_frames()
        hot = detect_hot_keys(rd.from_pandas(left).repartition(8), "k", 5_000)
        assert 7 in set(hot["k"])  # the true hot key is guaranteed present
        # nothing else comes near 5k rows (each cold key ~2k/50 = 40 rows)
        true_counts = left["k"].value_counts()
        for key in hot["k"]:
            assert true_counts[key] > 100  # only plausibly-hot keys survive

    def test_inner_join_90pct_one_key_matches_oracle(self, ray_session, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins

        monkeypatch.setattr(joins, "HOT_SALT", 8)
        left, right = _skewed_frames()
        out = joins.bucketed_hash_join(
            rd.from_pandas(left).repartition(8),
            rd.from_pandas(right).repartition(2),
            on="k",
            hot_key_threshold=5_000,
        ).to_pandas()
        assert joins.last_regime["op"] == "bucketed_hash_join"
        assert 7 in joins.last_regime["hot_keys"]
        want = left.merge(right, on="k")
        lhs = out.sort_values(["k", "x"]).reset_index(drop=True)
        rhs = want.sort_values(["k", "x"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            lhs[["k", "x", "y"]], rhs[["k", "x", "y"]], check_dtype=False
        )

    def test_left_join_skewed_matches_oracle(self, ray_session, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins

        monkeypatch.setattr(joins, "HOT_SALT", 8)
        left, right = _skewed_frames()
        # drop the hot key from the right side: every hot row must surface
        # exactly once with a null y (replicated-left would duplicate them)
        right_no_hot = right[right["k"] != 7]
        out = joins.bucketed_hash_join(
            rd.from_pandas(left).repartition(8),
            rd.from_pandas(right_no_hot).repartition(2),
            on="k",
            join_type="left",
            hot_key_threshold=5_000,
        ).to_pandas()
        assert all(joins.last_regime["spread_left"])  # left joins spread left
        want = left.merge(right_no_hot, on="k", how="left")
        assert len(out) == len(want)
        lhs = out.sort_values(["k", "x"]).reset_index(drop=True)
        rhs = want.sort_values(["k", "x"]).reset_index(drop=True)
        assert lhs["x"].tolist() == rhs["x"].tolist()
        assert lhs["y"].isna().equals(rhs["y"].isna())

    def test_inner_join_hot_on_right_spreads_right(self, ray_session, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins

        monkeypatch.setattr(joins, "HOT_SALT", 8)
        # mirror image: the RIGHT side carries the 90% key, so the planner
        # must spread right / replicate left for that key
        right, left = _skewed_frames()
        right = right.rename(columns={"x": "rx"})
        out = joins.bucketed_hash_join(
            rd.from_pandas(left).repartition(2),
            rd.from_pandas(right).repartition(8),
            on="k",
            hot_key_threshold=5_000,
        ).to_pandas()
        hot_idx = joins.last_regime["hot_keys"].index(7)
        assert joins.last_regime["spread_left"][hot_idx] is False
        want = left.merge(right, on="k")
        assert len(out) == len(want)
        assert sorted(out["rx"].tolist()) == sorted(want["rx"].tolist())

    def test_string_keys_salted(self, ray_session, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins

        monkeypatch.setattr(joins, "HOT_SALT", 4)
        rng = np.random.default_rng(3)
        keys = np.where(rng.random(8_000) < 0.85, "hot", "cold")
        left = pd.DataFrame({"k": keys, "x": np.arange(8_000)})
        right = pd.DataFrame({"k": ["hot", "cold", "never"], "y": [1, 2, 3]})
        out = joins.bucketed_hash_join(
            rd.from_pandas(left).repartition(4),
            rd.from_pandas(right),
            on="k",
            hot_key_threshold=2_000,
        ).to_pandas()
        assert "hot" in joins.last_regime["hot_keys"]
        want = left.merge(right, on="k")
        assert len(out) == len(want)
        assert int(out["y"].sum()) == int(want["y"].sum())

    def test_salted_tag_spreads_hot_rows(self, ray_session):
        """The point of the hatch: no single bucket holds the hot key's
        full row set any more."""
        import pyarrow as pa

        from schema_guru_ray.stages.joins import _tag_fn_salted

        left, _ = _skewed_frames(n_left=4_000)
        t = pa.Table.from_pandas(left, preserve_index=False)
        salt = 8

        def tagged(spread):
            rows, bucket = _tag_fn_salted("k", np.array([7]), np.array([spread]),
                                          salt)(t, 16)
            return (t if rows is None else t.take(rows)).append_column(
                "__bucket", pa.array(bucket))

        df = tagged(True).to_pandas()
        hot = df[df["k"] == 7]
        per_bucket = hot.groupby("__bucket").size()
        assert len(per_bucket) == salt  # spread across all sub-buckets
        assert per_bucket.max() <= np.ceil(len(hot) / salt)
        # replication side: every sub-bucket sees the full hot set
        dfr = tagged(False).to_pandas()
        hot_r = dfr[dfr["k"] == 7]
        assert len(hot_r) == len(hot) * salt
        assert (hot_r.groupby("__bucket").size() == len(hot)).all()

    def test_asof_join_skewed_matches_merge_asof(self, ray_session, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins

        monkeypatch.setattr(joins, "HOT_SALT", 8)
        rng = np.random.default_rng(5)
        n = 10_000
        k = np.where(rng.random(n) < 0.9, 7, rng.integers(100, 120, n)).astype(
            np.int64
        )
        left = pd.DataFrame(
            {"k": k, "ts": rng.integers(0, 10_000, n).astype(np.int64)}
        )
        right = pd.DataFrame(
            {
                "k": np.repeat(np.r_[7, np.arange(100, 120)], 20).astype(np.int64),
                "rts": np.tile(np.arange(0, 10_000, 500), 21).astype(np.int64),
                "v": np.arange(21 * 20, dtype=np.int64),
            }
        )
        out = joins.asof_join(
            rd.from_pandas(left).repartition(8),
            rd.from_pandas(right).repartition(2),
            key="k",
            left_ts="ts",
            right_ts="rts",
            hot_key_threshold=3_000,
        ).to_pandas()
        assert joins.last_regime["op"] == "asof_join"
        assert 7 in joins.last_regime["hot_keys"]
        want = pd.merge_asof(
            left.sort_values("ts", kind="stable"),
            right.sort_values(["rts", "k", "v"], kind="stable"),
            left_on="ts",
            right_on="rts",
            by="k",
        ).dropna(subset=["rts"])
        assert len(out) == len(want)
        lhs = out.sort_values(["k", "ts", "v"]).reset_index(drop=True)
        rhs = want.sort_values(["k", "ts", "v"]).reset_index(drop=True)
        assert lhs["v"].astype(np.int64).tolist() == rhs["v"].astype(np.int64).tolist()
