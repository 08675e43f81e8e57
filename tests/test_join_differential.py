"""Randomized differential testing of the distributed join/aggregate
operators against DuckDB on identical in-memory tables.

The structured oracle suite (test_oracle_parity) checks the CATALOG's
fixed shapes; this module fuzzes the OPERATORS themselves — random key
cardinalities, skew (70%-one-key), timestamp layouts and interval widths,
always through the bucketed/distributed regime (``joins.MIN_BUCKETS``
patched small so every bucket is multi-key, plus the salted path on
skewed draws) — and demands
row-for-row equality with DuckDB's answer. Seeds are fixed: failures
reproduce exactly.
"""

import duckdb
import numpy as np
import pandas as pd
import pytest

SEEDS = [11, 23, 37, 58, 71, 94]


def _canon(df: pd.DataFrame, cols) -> pd.DataFrame:
    df = df.copy()
    out = {}
    for c in cols:
        s = df[c]
        if pd.api.types.is_datetime64_any_dtype(s):
            out[c] = s.astype("datetime64[us]")
        elif pd.api.types.is_numeric_dtype(s) or s.isna().any():
            out[c] = s.astype("float64")  # exact for int64 magnitudes used here
        else:
            out[c] = s
    cdf = pd.DataFrame(out)[list(cols)]
    return cdf.sort_values(list(cols)).reset_index(drop=True)


def _assert_same(got: pd.DataFrame, want: pd.DataFrame, cols, ctx: str):
    g, w = _canon(got, cols), _canon(want, cols)
    assert len(g) == len(w), f"{ctx}: {len(g)} rows vs duckdb {len(w)}"
    pd.testing.assert_frame_equal(g, w, check_dtype=False, obj=ctx)


def _rows(df: pd.DataFrame, cols) -> list:
    """Sorted row tuples with bools and numbers compared as floats: a
    block holding a NULL key reads an integer key back as float64 and a
    bool key as object."""
    def norm(v):
        if v is None or pd.isna(v):
            return None
        return float(v) if isinstance(v, (bool, int, float, np.number, np.bool_)) else v

    return sorted((tuple(norm(v) for v in r) for r in df[cols].itertuples(index=False)),
                  key=repr)


def _null_split_blocks():
    import pyarrow as pa

    i64 = pa.int64()
    return {
        "int64": ({"k": pa.array([5, 6, 7], i64)}, {"k": pa.array([5, None, 7], i64)}),
        "bool": ({"k": pa.array([True, False, True])},
                 {"k": pa.array([True, None, False])}),
        "int64+string": (
            {"k": pa.array([5, 6, 7], i64), "k2": pa.array(["x", "y", "x"])},
            {"k": pa.array([5, None, 7], i64), "k2": pa.array(["x", "y", "x"])},
        ),
    }


NULL_SPLIT_KEYS = _null_split_blocks()


def _keys(rng, n, card):
    k = rng.integers(0, card, n).astype(np.int64)
    if rng.random() < 0.5 and card > 1:  # skewed draw: 70% of rows on one key
        k[rng.random(n) < 0.7] = int(rng.integers(0, card))
    return k


@pytest.mark.usefixtures("ray_session")
class TestHashJoinDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_inner_and_left_match_duckdb(self, seed, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import bucketed_hash_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        monkeypatch.setattr(joins, "HOT_SALT", 4)
        rng = np.random.default_rng(seed)
        nl, nr = int(rng.integers(5, 400)), int(rng.integers(5, 400))
        card = int(rng.integers(1, 40))
        left = pd.DataFrame({"k": _keys(rng, nl, card),
                             "lv": rng.integers(-10**6, 10**6, nl).astype(np.int64)})
        right = pd.DataFrame({"k": _keys(rng, nr, card),
                              "rv": rng.integers(-10**6, 10**6, nr).astype(np.int64)})
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        for how, sql in (
            ("inner", "SELECT l.k, l.lv, r.rv FROM l JOIN r USING (k)"),
            ("left", "SELECT l.k, l.lv, r.rv FROM l LEFT JOIN r USING (k)"),
        ):
            want = con.execute(sql).df()
            # hot_key_threshold on every other draw: the salted regime must
            # be answer-invariant whether or not any key actually is hot
            kw = {"hot_key_threshold": 50} if seed % 2 else {}
            got = bucketed_hash_join(
                rd.from_pandas(left).repartition(3),
                rd.from_pandas(right).repartition(2),
                on="k", join_type=how, **kw,
            ).to_pandas()
            _assert_same(got, want, ["k", "lv", "rv"], f"hash_join/{how}/seed{seed}")


@pytest.mark.usefixtures("ray_session")
class TestAsofJoinDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_backward_asof_matches_duckdb(self, seed, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import asof_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        rng = np.random.default_rng(seed)
        nl, nr = int(rng.integers(5, 300)), int(rng.integers(5, 300))
        card = int(rng.integers(1, 20))
        base = pd.Timestamp("2024-01-01")
        left = pd.DataFrame({
            "k": _keys(rng, nl, card),
            "ts": base + pd.to_timedelta(rng.integers(0, 10**6, nl), unit="s"),
            "lv": np.arange(nl, dtype=np.int64),
        })
        # unique rts per key: merge_asof and DuckDB may break exact-tie
        # groups differently, and ties are not what this test is about
        rts = rng.choice(10**6, size=nr, replace=False)
        right = pd.DataFrame({
            "k": _keys(rng, nr, card),
            "rts": base + pd.to_timedelta(rts, unit="s"),
            "rv": np.arange(nr, dtype=np.int64),
        })
        right = right.drop_duplicates(["k", "rts"])
        tol = int(rng.integers(10**3, 10**6)) if seed % 2 else None
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        sql = ("SELECT l.k, l.ts, l.lv, r.rts, r.rv "
               "FROM l ASOF JOIN r ON l.k = r.k AND l.ts >= r.rts")
        want = con.execute(sql).df()
        if tol is not None:
            # DuckDB folds a WHERE on the ASOF output back into the join
            # ("Multiple ASOF JOIN inequalities"); apply the window filter
            # to the fetched frame instead — same semantics as the
            # operator's tolerance_sec (latest match, then window check)
            want = want[want["rts"] >= want["ts"] - pd.Timedelta(seconds=tol)]
        got = asof_join(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            key="k", left_ts="ts", right_ts="rts",
            tolerance_sec=tol,
        ).to_pandas()
        _assert_same(got, want, ["k", "ts", "lv", "rts", "rv"],
                     f"asof_join/seed{seed}/tol={tol}")

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_forward_asof_matches_duckdb(self, seed, monkeypatch):
        """direction='forward': earliest right row with rts >= ts."""
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import asof_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        rng = np.random.default_rng(seed)
        nl, nr = int(rng.integers(5, 300)), int(rng.integers(5, 300))
        card = int(rng.integers(1, 20))
        base = pd.Timestamp("2024-01-01")
        left = pd.DataFrame({
            "k": rng.integers(0, card, nl).astype(np.int64),
            "ts": base + pd.to_timedelta(rng.integers(0, 10**6, nl), unit="s"),
            "lv": np.arange(nl, dtype=np.int64),
        })
        rts = rng.choice(10**6, size=nr, replace=False)
        right = pd.DataFrame({
            "k": rng.integers(0, card, nr).astype(np.int64),
            "rts": base + pd.to_timedelta(rts, unit="s"),
            "rv": np.arange(nr, dtype=np.int64),
        }).drop_duplicates(["k", "rts"])
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        want = con.execute(
            "SELECT l.k, l.ts, l.lv, r.rts, r.rv "
            "FROM l ASOF JOIN r ON l.k = r.k AND l.ts <= r.rts").df()
        got = asof_join(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            key="k", left_ts="ts", right_ts="rts",
            direction="forward",
        ).to_pandas()
        _assert_same(got, want, ["k", "ts", "lv", "rts", "rv"],
                     f"forward_asof/seed{seed}")


@pytest.mark.usefixtures("ray_session")
class TestRangeJoinDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_between_join_matches_duckdb(self, seed, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import range_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        rng = np.random.default_rng(seed)
        npts, nint = int(rng.integers(5, 400)), int(rng.integers(2, 60))
        points = pd.DataFrame({
            "p": rng.integers(0, 10**4, npts).astype(np.int64),
            "pid": np.arange(npts, dtype=np.int64),
        })
        lo = rng.integers(0, 10**4, nint).astype(np.int64)
        width = rng.integers(0, int(rng.choice([50, 500, 5000])), nint)
        intervals = pd.DataFrame({
            "lo": lo, "hi": (lo + width).astype(np.int64),
            "iid": np.arange(nint, dtype=np.int64),
        })
        # the same draw as timestamps, with NULL points and NULL bounds:
        # SQL BETWEEN with a NULL operand matches nothing
        base = pd.Timestamp("2024-01-01")
        ts_points = points.assign(p=base + pd.to_timedelta(points["p"], unit="s"))
        ts_points.loc[ts_points.index % 11 == 0, "p"] = pd.NaT
        ts_intervals = intervals.assign(
            lo=base + pd.to_timedelta(intervals["lo"], unit="s"),
            hi=base + pd.to_timedelta(intervals["hi"], unit="s"),
        )
        ts_intervals.loc[ts_intervals.index % 5 == 0, "lo"] = pd.NaT
        ts_intervals.loc[ts_intervals.index % 7 == 3, "hi"] = pd.NaT
        for kind, pts, ivs in (("int64", points, intervals),
                               ("timestamp", ts_points, ts_intervals)):
            con = duckdb.connect()
            con.register("p", pts)
            con.register("i", ivs)
            want = con.execute(
                "SELECT i.iid, i.lo, i.hi, p.pid, p.p FROM i JOIN p "
                "ON p.p BETWEEN i.lo AND i.hi"
            ).df()
            got = range_join(
                rd.from_pandas(pts).repartition(3),
                rd.from_pandas(ivs).repartition(2),
                point_col="p", lo_col="lo", hi_col="hi",
            ).to_pandas()
            cols = ["iid", "lo", "hi", "pid", "p"]
            _assert_same(got.reindex(columns=cols), want, cols,
                         f"range_join/{kind}/seed{seed}")


@pytest.mark.usefixtures("ray_session")
class TestBucketedAggregateDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_groupby_matches_duckdb(self, seed, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import bucketed_aggregate

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)

        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 2000))
        card = int(rng.integers(1, max(2, n)))  # up to groups≈rows
        df = pd.DataFrame({
            "k": _keys(rng, n, card),
            "v": rng.integers(-10**6, 10**6, n).astype(np.int64),
        })
        con = duckdb.connect()
        con.register("t", df)
        want = con.execute(
            "SELECT k, sum(v) AS s, min(v) AS mn, max(v) AS mx, "
            "count(*) AS n FROM t GROUP BY k"
        ).df()
        got = bucketed_aggregate(
            rd.from_pandas(df).repartition(3), "k",
            {"s": ("v", "sum"), "mn": ("v", "min"), "mx": ("v", "max"),
             "n": ("v", "count")},
        ).to_pandas()
        _assert_same(got, want, ["k", "s", "mn", "mx", "n"],
                     f"bucketed_aggregate/seed{seed}")

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_multikey_groupby_matches_duckdb(self, seed, monkeypatch):
        """Composite (int, string) grouping keys — one row-key hash of both
        columns."""
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import bucketed_aggregate

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)

        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 3000))
        df = pd.DataFrame({
            "k1": rng.integers(0, int(rng.integers(1, 40)), n).astype(np.int64),
            "k2": rng.choice(["a", "b", "c", "d"], n),
            "v": rng.integers(-10**6, 10**6, n).astype(np.int64),
        })
        con = duckdb.connect()
        con.register("t", df)
        want = con.execute(
            "SELECT k1, k2, sum(v) AS s, min(v) AS mn, count(*) AS n "
            "FROM t GROUP BY 1, 2").df()
        got = bucketed_aggregate(
            rd.from_pandas(df).repartition(3), ["k1", "k2"],
            {"s": ("v", "sum"), "mn": ("v", "min"), "n": ("v", "count")},
        ).to_pandas()
        _assert_same(got, want, ["k1", "k2", "s", "mn", "n"],
                     f"multikey_aggregate/seed{seed}")


    @pytest.mark.parametrize("kind", list(NULL_SPLIT_KEYS))
    def test_null_in_a_batch_does_not_split_a_key(self, kind):
        """Two blocks, the second holding a NULL key: every non-NULL key
        comes back once, as pandas ``groupby`` (default ``dropna``) says.
        Hashing through pandas without filling NULLs turned the second
        block's int64 key into float64 (bool into object), so keys 5 and
        7 landed in other buckets than in the first block and came back
        twice."""
        import pyarrow as pa
        import ray.data as rd

        from schema_guru_ray.stages.joins import bucketed_aggregate

        blocks = [
            pa.table({**cols, "v": pa.array([1, 2, 3], pa.int64())})
            for cols in NULL_SPLIT_KEYS[kind]
        ]
        keys = [c for c in blocks[0].column_names if c != "v"]
        got = bucketed_aggregate(
            rd.from_arrow(blocks), keys, {"s": ("v", "sum"), "n": ("v", "size")}
        ).to_pandas()
        want = pa.concat_tables(blocks).to_pandas().groupby(
            keys, as_index=False).agg(s=("v", "sum"), n=("v", "size"))
        cols = keys + ["s", "n"]
        assert _rows(got, cols) == _rows(want, cols), f"null_split/{kind}"


@pytest.mark.usefixtures("ray_session")
class TestFullOuterJoinDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_outer_matches_duckdb(self, seed, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import bucketed_hash_join

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        rng = np.random.default_rng(seed)
        nl, nr = int(rng.integers(5, 300)), int(rng.integers(5, 300))
        # disjoint-ish cardinality windows so both null-extension
        # directions (left-only and right-only keys) actually occur
        left = pd.DataFrame({"k": _keys(rng, nl, int(rng.integers(2, 30))),
                             "lv": rng.integers(-10**6, 10**6, nl).astype(np.int64)})
        right = pd.DataFrame({"k": _keys(rng, nr, int(rng.integers(2, 30))) + 10,
                              "rv": rng.integers(-10**6, 10**6, nr).astype(np.int64)})
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        want = con.execute(
            "SELECT k, l.lv, r.rv FROM l FULL JOIN r USING (k)").df()
        got = bucketed_hash_join(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            on="k", join_type="outer",
        ).to_pandas()
        _assert_same(got, want, ["k", "lv", "rv"], f"full_outer/seed{seed}")

    @pytest.mark.parametrize("how", ["outer", "right"])
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_salted_outer_flavors_match_duckdb(self, how, seed, monkeypatch):
        """Regression (round-5 fuzz find): the salted skew regime used to
        null-extend a REPLICATED right row once per sub-bucket whose
        spread slice was empty — full outer returned 1778 rows where the
        oracle says 515. Hot keys on both sides, including keys present
        ONLY on the right (the left-absent branch must null-extend the
        replicas exactly once)."""
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import bucketed_hash_join, last_regime

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        monkeypatch.setattr(joins, "HOT_SALT", 4)
        rng = np.random.default_rng(seed)
        nl, nr = 300, 400
        lk = rng.integers(0, 6, nl).astype(np.int64)
        lk[rng.random(nl) < 0.6] = 2          # hot on left
        rk = rng.integers(0, 6, nr).astype(np.int64)
        rk[rng.random(nr) < 0.5] = 100        # hot key ABSENT on left
        left = pd.DataFrame({"k": lk, "lv": rng.integers(0, 10**6, nl).astype(np.int64)})
        right = pd.DataFrame({"k": rk, "rv": rng.integers(0, 10**6, nr).astype(np.int64)})
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        sql = ("SELECT k, l.lv, r.rv FROM l FULL JOIN r USING (k)" if how == "outer"
               else "SELECT k, l.lv, r.rv FROM l RIGHT JOIN r USING (k)")
        want = con.execute(sql).df()
        got = bucketed_hash_join(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            on="k", join_type=how,
            hot_key_threshold=50,
        ).to_pandas()
        assert last_regime.get("hot_keys"), "salted regime must engage"
        _assert_same(got, want, ["k", "lv", "rv"], f"salted_{how}/seed{seed}")

    def test_salted_outer_probes_only_right_only_hot_keys(self, monkeypatch):
        """A hot key the left Misra-Gries probe counted occurred on the
        left, so the salted outer join's exact left-presence pass runs only
        for keys hot on the right alone — and not at all when there are
        none."""
        import ray.data as rd

        from schema_guru_ray.stages import joins

        probed = []
        real = joins._keys_present

        def spy(ds, key, hot_sorted):
            probed.append(list(hot_sorted))
            return real(ds, key, hot_sorted)

        monkeypatch.setattr(joins, "_keys_present", spy)
        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        monkeypatch.setattr(joins, "HOT_SALT", 4)
        rng = np.random.default_rng(5)
        lk = rng.integers(0, 6, 300).astype(np.int64)
        lk[rng.random(300) < 0.6] = 2
        left = pd.DataFrame({"k": lk, "lv": np.arange(300, dtype=np.int64)})
        for right_hot, want_probed in ((2, []), (100, [[100]])):
            rk = rng.integers(0, 6, 400).astype(np.int64)
            rk[rng.random(400) < 0.5] = right_hot
            right = pd.DataFrame({"k": rk, "rv": np.arange(400, dtype=np.int64)})
            probed.clear()
            got = joins.bucketed_hash_join(
                rd.from_pandas(left).repartition(3),
                rd.from_pandas(right).repartition(2),
                on="k", join_type="outer",
                hot_key_threshold=50,
            ).to_pandas()
            assert probed == want_probed
            con = duckdb.connect()
            con.register("l", left)
            con.register("r", right)
            want = con.execute(
                "SELECT k, l.lv, r.rv FROM l FULL JOIN r USING (k)").df()
            _assert_same(got, want, ["k", "lv", "rv"], f"probe/{right_hot}")


@pytest.mark.usefixtures("ray_session")
class TestNullStringKeyDifferential:
    """String keys with NULLs on both sides, plain and salted: a NULL key
    matches nothing and is never hot. The salted regime used to look the
    NULL up among the sorted hot keys, where NumPy cannot order ``None``
    against a string (``TypeError``), and the pandas merge paired a NULL
    left key with a NULL right key."""

    SQL = {
        "inner": "SELECT l.k, l.lv, r.rv FROM l JOIN r USING (k)",
        "outer": "SELECT k, l.lv, r.rv FROM l FULL JOIN r USING (k)",
        "asof": "SELECT l.k, l.ts, l.lv, r.rts, r.rv "
                "FROM l ASOF JOIN r ON l.k = r.k AND l.ts >= r.rts",
    }

    @pytest.mark.parametrize("threshold", [None, 100])
    @pytest.mark.parametrize("how", list(SQL))
    def test_null_string_keys_match_duckdb(self, how, threshold, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)
        monkeypatch.setattr(joins, "HOT_SALT", 4)
        rng = np.random.default_rng(7)
        lk = np.array(["hot"] * 300 + [None] * 5 + ["a", "b"], dtype=object)
        rk = np.array(["hot", "a", None, "c"], dtype=object)
        base = pd.Timestamp("2024-01-01")
        left = pd.DataFrame({
            "k": lk, "lv": np.arange(len(lk), dtype=np.int64),
            "ts": base + pd.to_timedelta(rng.integers(0, 1000, len(lk)), unit="s"),
        })
        right = pd.DataFrame({
            "k": rk, "rv": np.arange(len(rk), dtype=np.int64) * 10,
            "rts": base + pd.to_timedelta([100, 0, 0, 0], unit="s"),
        })
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        want = con.execute(self.SQL[how]).df()
        lds = rd.from_pandas(left).repartition(3)
        rds = rd.from_pandas(right)
        if how == "asof":
            got = joins.asof_join(lds, rds, key="k", left_ts="ts", right_ts="rts",
                                  hot_key_threshold=threshold).to_pandas()
            cols = ["k", "ts", "lv", "rts", "rv"]
        else:
            got = joins.bucketed_hash_join(
                lds, rds.drop_columns(["rts"]), on="k", join_type=how,
                hot_key_threshold=threshold).to_pandas()
            cols = ["k", "lv", "rv"]
        if threshold is not None:
            assert joins.last_regime["hot_keys"] == ["hot"]
        assert len(got) == len(want), f"{how}/{threshold}: {len(got)} vs {len(want)}"
        assert _rows(got, cols) == _rows(want, cols)


# BROADCAST_BYTES per join_keyed regime; -1 sends even an empty (0-byte)
# small side through the shuffle
REGIMES = {"broadcast": None, "shuffle": -1}


def _join_keyed(monkeypatch, regime, big, small, on, how):
    """join_keyed under a forced regime, executed to pandas."""
    from schema_guru_ray.stages import joins

    if REGIMES[regime] is not None:
        monkeypatch.setattr(joins, "BROADCAST_BYTES", REGIMES[regime])
    out = joins.join_keyed(big, small, on=on, how=how).to_pandas()
    assert joins.last_regime["regime"] == regime
    return out


@pytest.mark.usefixtures("ray_session")
class TestAntiJoinDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_anti_join_matches_duckdb(self, seed, monkeypatch):
        import ray.data as rd

        rng = np.random.default_rng(seed)
        nl = int(rng.integers(5, 500))
        # every other seed: key side empty (nothing may drop); otherwise a
        # key list with duplicates and partial overlap
        nk = 0 if seed % 2 == 0 else int(rng.integers(1, 200))
        left = pd.DataFrame({"k": _keys(rng, nl, int(rng.integers(1, 50))),
                             "lv": rng.integers(-10**6, 10**6, nl).astype(np.int64)})
        keys = pd.DataFrame({"k": _keys(rng, max(nk, 1), 60)[:nk]})
        con = duckdb.connect()
        con.register("l", left)
        con.register("ks", keys)
        want = con.execute(
            "SELECT l.k, l.lv FROM l WHERE l.k NOT IN "
            "(SELECT k FROM ks WHERE k IS NOT NULL)").df()
        keys_ds = (rd.from_pandas(keys) if nk
                   else rd.from_pandas(keys).filter(lambda r: False))
        for regime in REGIMES:
            got = _join_keyed(monkeypatch, regime,
                              rd.from_pandas(left).repartition(3), keys_ds,
                              on="k", how="anti")
            _assert_same(got, want, ["k", "lv"], f"anti_join/{regime}/seed{seed}")


JOIN_KEYED_SQL = {
    "inner": "SELECT b.k, b.bv, b.payload, s.sv FROM b JOIN s ON b.k = s.sk",
    "left": "SELECT b.k, b.bv, b.payload, s.sv FROM b LEFT JOIN s ON b.k = s.sk",
    "semi": "SELECT b.k, b.bv, b.payload FROM b "
            "WHERE EXISTS (SELECT 1 FROM s WHERE s.sk = b.k)",
    "anti": "SELECT b.k, b.bv, b.payload FROM b "
            "WHERE NOT EXISTS (SELECT 1 FROM s WHERE s.sk = b.k)",
}


def _keyed_sides(seed):
    """A big side with repeated and NULL keys and a binary payload, and a
    small side with unique keys, one NULL key and a value column. Seeds
    ending in 1 or 3 empty one side."""
    rng = np.random.default_rng(seed)
    card = int(rng.integers(2, 40))
    nb = 0 if seed % 10 == 1 else int(rng.integers(5, 300))
    ns = 0 if seed % 10 == 3 else int(rng.integers(1, card))
    bk = pd.array(_keys(rng, nb, card), dtype="Int64")
    bk[rng.random(nb) < 0.1] = pd.NA
    sk = pd.array(rng.choice(card + 5, size=ns, replace=False), dtype="Int64")
    if ns:
        sk = pd.array(np.r_[sk.to_numpy(), [None]], dtype="Int64")
    big = pd.DataFrame({
        "k": bk,
        "bv": np.arange(nb, dtype=np.int64),
        "payload": [rng.bytes(int(rng.integers(0, 9))) + b"\x00\xff" for _ in range(nb)],
    })
    small = pd.DataFrame({
        "sk": sk, "sv": pd.array(rng.integers(-10**6, 10**6, len(sk)), dtype="Int64"),
    })
    return big, small


def _arrow(df: pd.DataFrame, binary=()):
    import pyarrow as pa

    return pa.table({
        c: pa.array(list(df[c]), pa.binary()) if c in binary
        else pa.array(df[c], pa.int64(), from_pandas=True)
        for c in df.columns
    })


@pytest.mark.usefixtures("ray_session")
class TestJoinKeyedDifferential:
    """``join_keyed`` against DuckDB over how × regime: NULL keys on both
    sides never match, big keys repeat, one side may be empty, and the
    binary payload round-trips byte-exact through every flavor."""

    @pytest.mark.parametrize("how", list(JOIN_KEYED_SQL))
    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("seed", SEEDS + [21, 43])
    def test_join_keyed_matches_duckdb(self, how, regime, seed, monkeypatch):
        import ray.data as rd

        big, small = _keyed_sides(seed)
        con = duckdb.connect()
        con.register("b", big)
        con.register("s", small)
        want = con.execute(JOIN_KEYED_SQL[how]).df()
        small_side = _arrow(small)
        if seed % 2:  # the Dataset form of the small side
            small_side = rd.from_arrow(small_side).repartition(2)
        got = _join_keyed(
            monkeypatch, regime,
            rd.from_arrow(_arrow(big, binary=("payload",))).repartition(3),
            small_side, on=("k", "sk"), how=how,
        )
        cols = ["k", "bv", "payload"] + (["sv"] if how in ("inner", "left") else [])
        for df in (got, want):
            if len(df):  # DuckDB returns BLOBs as bytearray
                df["payload"] = df["payload"].map(bytes)
        _assert_same(got.reindex(columns=cols), want, cols,
                     f"join_keyed/{how}/{regime}/seed{seed}")

    def test_bool_key_with_null_in_one_batch_shuffle(self, monkeypatch):
        """A bool lookup key whose second big batch holds a NULL: in the
        shuffle regime both batches' True/False rows must still meet the
        small side's keys in one bucket."""
        import pyarrow as pa
        import ray.data as rd

        big = [
            pa.table({"k": pa.array([True, False, True]),
                      "bv": pa.array([0, 1, 2], pa.int64())}),
            pa.table({"k": pa.array([True, None, False]),
                      "bv": pa.array([3, 4, 5], pa.int64())}),
        ]
        small = pa.table({"sk": pa.array([True, False]),
                          "sv": pa.array([10, 20], pa.int64())})
        got = _join_keyed(monkeypatch, "shuffle", rd.from_arrow(big), small,
                          on=("k", "sk"), how="inner")
        want = pd.DataFrame({"k": [True, False, True, True, False],
                             "bv": [0, 1, 2, 3, 5], "sv": [10, 20, 10, 10, 20]})
        cols = ["k", "bv", "sv"]
        assert _rows(got, cols) == _rows(want, cols)

    @pytest.mark.parametrize("how", ["inner", "left"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_repeated_small_key_raises(self, how, regime, monkeypatch):
        """A lookup with a repeated small key has no single answer, so
        inner/left refuse it in both regimes instead of letting the
        broadcast regime pick one row and the shuffle return both."""
        import ray.data as rd

        big = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "bv": [1, 2, 3]}))
        small = pd.DataFrame({"k": [1, 2, 2], "sv": [10, 20, 21]})
        with pytest.raises(ValueError):
            _join_keyed(monkeypatch, regime, big, rd.from_pandas(small),
                        on="k", how=how)
