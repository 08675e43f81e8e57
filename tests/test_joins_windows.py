"""Join operators (keyed lookup, bucketed hash, as-of), tumbling windows,
and distributed connected components."""

import numpy as np
import pandas as pd
import pytest


@pytest.mark.usefixtures("ray_session")
class TestJoins:
    @pytest.fixture(scope="class")
    def sides(self, ray_session):
        import ray.data as rd

        left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "x": [10, 20, 21, 30, 50]})
        right = pd.DataFrame({"k": [1, 2, 4], "y": ["a", "b", "d"]})
        return rd.from_pandas(left).repartition(2), rd.from_pandas(right), left, right

    def test_bucketed_hash_join(self, sides, monkeypatch):
        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import bucketed_hash_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        lds, rds, left, right = sides
        out = bucketed_hash_join(lds, rds, on="k").to_pandas()
        want = left.merge(right, on="k")
        assert sorted(out["x"].tolist()) == sorted(want["x"].tolist())

    def test_asof_join(self, ray_session):
        import ray.data as rd

        from schema_guru_ray.stages.joins import asof_join

        left = pd.DataFrame(
            {
                "key": [1, 1, 1, 2, 3],
                "ts": pd.to_datetime(["2024-01-05", "2024-01-10", "2024-01-01",
                                      "2024-01-07", "2024-01-07"]),
                "ev": ["a", "b", "c", "d", "e"],
            }
        )
        right = pd.DataFrame(
            {
                "key": [1, 1, 2],
                "rts": pd.to_datetime(["2024-01-02", "2024-01-08", "2024-01-09"]),
                "val": [100, 200, 300],
            }
        )
        out = (
            asof_join(rd.from_pandas(left).repartition(2), rd.from_pandas(right),
                      key="key", left_ts="ts", right_ts="rts")
            .to_pandas()
            .sort_values("ev")
        )
        # ev a: latest rts <= 01-05 is 01-02 (100); ev b: 01-08 (200);
        # ev c: none before 01-01 → dropped; ev d: none (<09) → dropped; ev e: no key
        assert dict(zip(out["ev"], out["val"])) == {"a": 100, "b": 200}

    def test_asof_join_preserves_int_dtype(self, ray_session, monkeypatch):
        """Round-1 red oracle cell: the tagged union's null-fill degraded
        int64 columns to float64 inside the buckets (77 → 77.0). The output
        Arrow schema must carry the SOURCE integer types."""
        import pyarrow as pa
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import asof_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        left = pd.DataFrame(
            {
                "key": np.array([1, 1, 2], dtype=np.int64),
                "ts": pd.to_datetime(["2024-01-05", "2024-01-10", "2024-01-07"]),
                "eid": np.array([11, 12, 13], dtype=np.int64),
            }
        )
        right = pd.DataFrame(
            {
                "key": np.array([1, 2], dtype=np.int64),
                "rts": pd.to_datetime(["2024-01-02", "2024-01-03"]),
                "val": np.array([100, 300], dtype=np.int64),
                "flag": np.array([True, False]),
            }
        )
        out = asof_join(
            rd.from_pandas(left).repartition(2), rd.from_pandas(right),
            key="key", left_ts="ts", right_ts="rts",
        )
        sch = {n: t for n, t in zip(out.schema().names, out.schema().types)}
        assert sch["eid"] == pa.int64()
        assert sch["val"] == pa.int64()
        assert sch["key"] == pa.int64()
        assert sch["flag"] == pa.bool_()
        got = out.to_pandas().sort_values("eid")
        assert got["val"].tolist() == [100, 100, 300]

    def test_bucketed_join_dtypes_match_pandas_merge(self, sides, monkeypatch):
        """The bucketed join emits the Arrow schema of the same join done
        by a pandas merge (the union null-fill must not degrade int64 to
        float64 inside the buckets; round 1 masked it)."""
        import pyarrow as pa

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import bucketed_hash_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        lds, rds, left, right = sides
        out = bucketed_hash_join(lds, rds, on="k")
        want = left.merge(right, on="k")
        got_types = dict(zip(out.schema().names, out.schema().types))
        want_schema = pa.Schema.from_pandas(want, preserve_index=False)
        assert {n: got_types[n] for n in want_schema.names} == dict(
            zip(want_schema.names, want_schema.types))
        a = out.to_pandas().sort_values(["k", "x"]).reset_index(drop=True)
        b = want.sort_values(["k", "x"]).reset_index(drop=True)
        assert a[["k", "x", "y"]].equals(b[["k", "x", "y"]])

    def test_tumbling_window(self, ray_session):
        import ray.data as rd

        from schema_guru_ray.stages.joins import tumbling_window_agg

        df = pd.DataFrame(
            {
                "g": ["x", "x", "x", "y"],
                "ts": pd.to_datetime(
                    ["2024-01-01 00:10", "2024-01-01 00:50", "2024-01-01 01:10",
                     "2024-01-01 00:20"]
                ),
                "v": [1.0, 2.0, 3.0, 4.0],
            }
        )
        out = (
            tumbling_window_agg(rd.from_pandas(df).repartition(2), "ts", 3600, ["g"], "v")
            .to_pandas()
            .sort_values(["g", "window_start"])
            .reset_index(drop=True)
        )
        assert out["n"].tolist() == [2, 1, 1]
        assert out["sum_value_milli"].tolist() == [3000, 3000, 4000]

    def test_tumbling_window_null_values(self, ray_session):
        """NULL values: counted by n (count(*)) but skipped by the sum —
        SQL semantics, not NaN-to-int garbage."""
        import ray.data as rd

        from schema_guru_ray.stages.joins import tumbling_window_agg

        df = pd.DataFrame(
            {
                "g": ["x", "x", "x"],
                "ts": pd.to_datetime(["2024-01-01 00:10"] * 3),
                "v": [1.0, None, 2.0],
            }
        )
        out = tumbling_window_agg(rd.from_pandas(df), "ts", 3600, ["g"], "v").to_pandas()
        assert out["n"].tolist() == [3]
        assert out["sum_value_milli"].tolist() == [3000]


@pytest.mark.usefixtures("ray_session")
class TestDistributedComponents:
    def test_matches_union_find(self, ray_session):
        import ray.data as rd

        from schema_guru_ray.stages.dedup import (
            connected_components,
            connected_components_distributed,
        )

        rng = np.random.default_rng(3)
        # chain components of varying diameter + singleton pairs
        pairs = [(i, i + 1) for i in range(0, 5)]  # one chain 0..5
        pairs += [(100, 101), (102, 103), (200, 201), (201, 202)]
        pairs_df = pd.DataFrame(pairs, columns=["id_a", "id_b"])
        ds = rd.from_pandas(pairs_df).repartition(3)
        dist = connected_components_distributed(ds).to_pandas()
        got = dict(zip(dist["node"].astype(int), dist["label"].astype(int)))
        want = connected_components(pairs)
        assert got == want

    def test_auto_regimes_agree(self, ray_session, monkeypatch):
        """connected_components_auto: both regimes emit identical labels —
        forced driver (high limit) vs forced distributed (limit 0)."""
        import ray.data as rd

        from schema_guru_ray.stages import dedup
        from schema_guru_ray.stages.dedup import connected_components_auto

        pairs = [(i, i + 1) for i in range(0, 5)]
        pairs += [(100, 101), (102, 103), (200, 201), (201, 202)]
        ds = rd.from_pandas(pd.DataFrame(pairs, columns=["id_a", "id_b"]))
        monkeypatch.setattr(dedup, "DRIVER_PAIR_LIMIT", 10**6)
        drv = connected_components_auto(ds).to_pandas()
        monkeypatch.setattr(dedup, "DRIVER_PAIR_LIMIT", 0)
        dist = connected_components_auto(ds).to_pandas()
        d1 = dict(zip(drv["node"].astype(int), drv["label"].astype(int)))
        d2 = dict(zip(dist["node"].astype(int), dist["label"].astype(int)))
        assert d1 == d2
        assert str(drv["node"].dtype) == "int64" and str(drv["label"].dtype) == "int64"


def test_derive_num_buckets_bounds_per_bucket_rows():
    """Per-bucket rows stay ≤ DEFAULT_ROWS_PER_BUCKET at ANY input size —
    the round-2 verdict's criterion for the components-loop joins (a fixed
    8 meant 1/8 of the edge set per pandas group at any scale)."""
    from schema_guru_ray.stages.joins import (
        DEFAULT_ROWS_PER_BUCKET,
        derive_num_buckets,
    )

    for n in (1, 10**6, 10**8, 10**10):
        assert n / derive_num_buckets(n) <= DEFAULT_ROWS_PER_BUCKET
    assert derive_num_buckets(10**8) > derive_num_buckets(10**6)


def _anti_both_regimes(monkeypatch, left_ds, keys_ds, on):
    """join_keyed(how="anti") in its broadcast regime, then forced through
    its shuffle regime (-1: even a 0-byte key side shuffles)."""
    from schema_guru_ray.stages import joins

    out = []
    for limit in (joins.BROADCAST_BYTES, -1):
        monkeypatch.setattr(joins, "BROADCAST_BYTES", limit)
        out.append(joins.join_keyed(left_ds, keys_ds, on=on, how="anti").to_pandas())
    return out


@pytest.mark.usefixtures("ray_session")
class TestBucketedAntiJoin:
    def test_matches_pandas(self, ray_session, monkeypatch):
        import ray.data as rd

        rng = np.random.default_rng(9)
        left = pd.DataFrame(
            {"k": rng.integers(0, 200, size=1000), "v": np.arange(1000)}
        )
        # duplicated keys on the key side must not duplicate output rows
        keys = pd.DataFrame({"kk": np.repeat(rng.integers(0, 200, size=60), 2)})
        want = (
            left[~left["k"].isin(keys["kk"])].sort_values("v").reset_index(drop=True)
        )
        for got in _anti_both_regimes(
            monkeypatch, rd.from_pandas(left).repartition(4),
            rd.from_pandas(keys).repartition(2), on=("k", "kk"),
        ):
            got = got.sort_values("v").reset_index(drop=True)
            pd.testing.assert_frame_equal(
                got.astype({"k": "int64", "v": "int64"}), want.astype("int64")
            )

    def test_empty_key_side(self, ray_session, monkeypatch):
        import ray.data as rd

        left = pd.DataFrame({"k": [1, 2], "v": [1, 2]})
        keys = pd.DataFrame({"k": pd.Series([], dtype="int64")})
        for got in _anti_both_regimes(
            monkeypatch, rd.from_pandas(left), rd.from_pandas(keys), on="k"
        ):
            assert sorted(got["v"]) == [1, 2]


@pytest.mark.usefixtures("ray_session")
class TestGroupedTopKAndHopping:
    def test_grouped_topk_matches_pandas(self, ray_session):
        import ray.data as rd

        from schema_guru_ray.stages.joins import grouped_topk

        rng = np.random.default_rng(5)
        df = pd.DataFrame(
            {
                "g": rng.integers(0, 10, 500),
                "id": np.arange(500),
                "v": rng.normal(size=500),
            }
        )
        got = (
            grouped_topk(rd.from_pandas(df).repartition(4), "g", "v", 3,
                         tie_col="id", rank_alias="rk")
            .to_pandas()
            .sort_values(["g", "rk"])
            .reset_index(drop=True)
        )
        want = (
            df.sort_values(["v", "id"], ascending=[False, True], kind="stable")
            .groupby("g", sort=False)
            .head(3)
            .sort_values(["g", "v"], ascending=[True, False])
            .reset_index(drop=True)
        )
        assert got[["g", "id"]].astype(int).values.tolist() == want[
            ["g", "id"]
        ].astype(int).values.tolist()
        assert (got.groupby("g")["rk"].max() <= 3).all()

    def test_hopping_each_row_in_window_over_hop_windows(self, ray_session):
        import ray.data as rd

        from schema_guru_ray.stages.joins import hopping_window_agg

        df = pd.DataFrame(
            {
                "g": ["x", "x"],
                "ts": pd.to_datetime(["2024-01-01 02:30", "2024-01-01 02:45"]),
                "v": [1.0, 2.0],
            }
        )
        out = (
            hopping_window_agg(rd.from_pandas(df), "ts", 3600, 900, ["g"], "v")
            .to_pandas()
            .sort_values("window_start")
        )
        # each row in exactly 4 windows; the 02:00 window holds both rows
        assert out["n"].sum() == 8
        full = out[out["n"] == 2]
        assert len(full) >= 1 and full["sum_value_milli"].iloc[0] == 3000


@pytest.mark.usefixtures("ray_session")
class TestSharedColumnJoins:
    """Round-2 review finding: shared non-key columns must be KEPT (right
    side suffixed '_r'), not silently dropped to all-null by the
    post-merge reindex."""

    def test_bucketed_join_keeps_shared_column(self, ray_session, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import bucketed_hash_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        left = pd.DataFrame({"k": [1, 2], "status": ["L1", "L2"], "x": [10, 20]})
        right = pd.DataFrame({"k": [1, 2], "status": ["R1", "R2"]})
        out = (
            bucketed_hash_join(rd.from_pandas(left), rd.from_pandas(right),
                               on="k")
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert list(out.columns) == ["k", "status", "x", "status_r"]
        assert out["status"].tolist() == ["L1", "L2"]
        assert out["status_r"].tolist() == ["R1", "R2"]

    def test_asof_join_keeps_shared_column_and_ts(self, ray_session, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import asof_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 2)
        left = pd.DataFrame(
            {
                "key": [1, 1],
                "ts": pd.to_datetime(["2024-01-05", "2024-01-09"]),
                "note": ["lA", "lB"],
            }
        )
        right = pd.DataFrame(
            {
                "key": [1, 1],
                "ts": pd.to_datetime(["2024-01-02", "2024-01-08"]),  # same name!
                "note": ["rA", "rB"],  # shared non-key column
            }
        )
        out = (
            asof_join(rd.from_pandas(left), rd.from_pandas(right),
                      key="key", left_ts="ts", right_ts="ts")
            .to_pandas()
            .sort_values("ts")
            .reset_index(drop=True)
        )
        assert "ts_r" in out.columns and "note_r" in out.columns
        assert out["note"].tolist() == ["lA", "lB"]  # left values intact
        assert out["note_r"].tolist() == ["rA", "rB"]


@pytest.mark.usefixtures("ray_session")
class TestComponentsConvergence:
    def test_long_chain_converges_by_default(self, ray_session):
        """A chain longer than the old silent 20-round cap must still get
        correct labels (the loop now runs to the sum fixpoint)."""
        import ray.data as rd

        from schema_guru_ray.stages.dedup import (
            connected_components,
            connected_components_distributed,
        )

        pairs = [(i, i + 1) for i in range(0, 30)]  # diameter 30 chain
        ds = rd.from_pandas(pd.DataFrame(pairs, columns=["id_a", "id_b"])).repartition(3)
        got = connected_components_distributed(ds).to_pandas()
        want = connected_components(pairs)
        assert dict(zip(got["node"].astype(int), got["label"].astype(int))) == want

    def test_explicit_bound_raises_instead_of_lying(self, ray_session):
        import ray.data as rd

        from schema_guru_ray.stages.dedup import connected_components_distributed

        pairs = [(i, i + 1) for i in range(0, 12)]
        ds = rd.from_pandas(pd.DataFrame(pairs, columns=["id_a", "id_b"]))
        with pytest.raises(RuntimeError, match="did not converge"):
            connected_components_distributed(ds, max_rounds=1)


@pytest.mark.usefixtures("ray_session")
class TestRangeJoin:
    """Interval/range join (stages/joins.range_join): brute-force parity,
    multi-bucket interval replication, degenerate intervals, numeric and
    timestamp domains, column-collision suffixing."""

    def _brute(self, pts, ivs, point_col, lo, hi):
        out = []
        for _, ir in ivs.iterrows():
            m = pts[(pts[point_col] >= ir[lo]) & (pts[point_col] <= ir[hi])]
            for _, prow in m.iterrows():
                out.append({**ir.to_dict(), **prow.to_dict()})
        return out

    def test_numeric_matches_brute_force(self, ray_session, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import range_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 16)
        rng = np.random.default_rng(11)
        pts = pd.DataFrame(
            {"pid": np.arange(400), "x": rng.uniform(0, 1000, 400)}
        )
        ivs = pd.DataFrame({"iid": np.arange(60)})
        ivs["lo"] = rng.uniform(0, 1000, 60)
        # mix of narrow and wide intervals → spans 1..many buckets
        ivs["hi"] = ivs["lo"] + rng.choice([0.5, 10.0, 400.0], 60)
        got = (
            range_join(
                rd.from_pandas(pts).repartition(4),
                rd.from_pandas(ivs).repartition(3),
                point_col="x", lo_col="lo", hi_col="hi",
            )
            .to_pandas()
            .sort_values(["iid", "pid"])
            .reset_index(drop=True)
        )
        want = pd.DataFrame(
            self._brute(pts, ivs, "x", "lo", "hi"),
            columns=["iid", "lo", "hi", "pid", "x"],
        ).sort_values(["iid", "pid"]).reset_index(drop=True)
        assert len(got) == len(want)
        pd.testing.assert_frame_equal(
            got[["iid", "pid"]].astype("int64"),
            want[["iid", "pid"]].astype("int64"),
        )

    def test_degenerate_and_out_of_domain_intervals(self, ray_session, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import range_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        pts = pd.DataFrame({"pid": [1, 2, 3], "x": [10.0, 20.0, 30.0]})
        ivs = pd.DataFrame(
            {
                "iid": [1, 2, 3, 4],
                "lo": [25.0, 50.0, -100.0, 19.0],
                "hi": [15.0, 60.0, -90.0, 21.0],  # iid=1 inverted, 2/3 outside
            }
        )
        got = range_join(
            rd.from_pandas(pts), rd.from_pandas(ivs),
            point_col="x", lo_col="lo", hi_col="hi",
        ).to_pandas()
        assert got["iid"].tolist() == [4] and got["pid"].tolist() == [2]

    def test_timestamp_exact_and_collision_suffix(self, ray_session, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import range_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 3)
        base = pd.Timestamp("2024-01-01")
        pts = pd.DataFrame(
            {
                "id": [1, 2, 3, 4],
                "ts": [base + pd.Timedelta(seconds=s) for s in (0, 59, 60, 61)],
            }
        )
        ivs = pd.DataFrame(
            {
                "id": [10],
                "lo": [base],
                "hi": [base + pd.Timedelta(seconds=60)],  # inclusive end
            }
        )
        got = range_join(
            rd.from_pandas(pts), rd.from_pandas(ivs),
            point_col="ts", lo_col="lo", hi_col="hi",
        ).to_pandas()
        # shared "id" column: interval side keeps the name, point side _p
        assert "id" in got.columns and "id_p" in got.columns
        assert sorted(got["id_p"].astype(int)) == [1, 2, 3]  # 61s excluded, 60s kept
