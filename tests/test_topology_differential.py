"""Randomized differential testing of the custom window/top-k topologies
against DuckDB — same fuzz-the-operator pattern as
test_join_differential.py, for the stages whose distributed shape is a
hand-built composition (local top-k + coarse-bucket merge; vectorized
window expansion + partial agg) rather than a join."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SEEDS = [13, 29, 47, 61, 83, 97]


def _canon(df: pd.DataFrame, cols) -> pd.DataFrame:
    df = df.copy()
    out = {}
    for c in cols:
        s = df[c]
        if pd.api.types.is_datetime64_any_dtype(s):
            out[c] = s.astype("datetime64[us]")
        elif pd.api.types.is_numeric_dtype(s):
            out[c] = s.astype("float64")
        else:
            out[c] = s
    cdf = pd.DataFrame(out)[list(cols)]
    return cdf.sort_values(list(cols)).reset_index(drop=True)


def _assert_same(got, want, cols, ctx):
    g, w = _canon(got, cols), _canon(want, cols)
    assert len(g) == len(w), f"{ctx}: {len(g)} rows vs duckdb {len(w)}"
    pd.testing.assert_frame_equal(g, w, check_dtype=False, obj=ctx)


@pytest.mark.usefixtures("ray_session")
class TestGroupedTopkDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_topk_matches_row_number_oracle(self, seed, monkeypatch):
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import grouped_topk

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)

        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 1500))
        card = int(rng.integers(1, 60))
        k = int(rng.integers(1, 8))
        df = pd.DataFrame({
            "g": rng.integers(0, card, n).astype(np.int64),
            # heavy duplicate values so ties are COMMON: the tie_col total
            # order is what makes distributed top-k reproducible at all
            "v": rng.integers(0, 20, n).astype(np.int64),
            "tie": rng.permutation(n).astype(np.int64),
        })
        con = duckdb.connect()
        con.register("t", df)
        want = con.execute(
            "SELECT g, v, tie, rn FROM (SELECT *, CAST(row_number() OVER "
            "(PARTITION BY g ORDER BY v DESC, tie) AS BIGINT) AS rn FROM t) "
            f"WHERE rn <= {k}"
        ).df()
        got = grouped_topk(
            rd.from_pandas(df).repartition(4), "g", "v", k,
            descending=True, tie_col="tie", rank_alias="rn",
        ).to_pandas()
        _assert_same(got, want, ["g", "v", "tie", "rn"], f"grouped_topk/seed{seed}")


@pytest.mark.usefixtures("ray_session")
class TestWindowAggDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tumbling_matches_duckdb(self, seed):
        import ray.data as rd

        from schema_guru_ray.stages.joins import tumbling_window_agg

        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 1500))
        w = int(rng.choice([60, 3600, 86400]))
        df = pd.DataFrame({
            "k1": rng.integers(0, 5, n).astype(np.int64),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 30 * 86400, n), unit="s"),
            "v": rng.integers(0, 10**6, n).astype(np.float64) / 1000.0,
        })
        con = duckdb.connect()
        con.register("t", df)
        want = con.execute(
            "SELECT k1, to_timestamp((CAST(epoch(ts) AS BIGINT) // {w}) * {w})"
            "::TIMESTAMP AS window_start, CAST(count(*) AS BIGINT) AS n, "
            "sum(CAST(floor(v * 1000 + 0.5) AS BIGINT)) AS sum_value_milli "
            "FROM t GROUP BY 1, 2".format(w=w)
        ).df()
        got = tumbling_window_agg(
            rd.from_pandas(df).repartition(4), "ts", w, ["k1"], "v"
        ).to_pandas()
        _assert_same(got, want, ["k1", "window_start", "n", "sum_value_milli"],
                     f"tumbling/seed{seed}/w={w}")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hopping_matches_duckdb(self, seed):
        import ray.data as rd

        from schema_guru_ray.stages.joins import hopping_window_agg

        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 1000))
        hop = int(rng.choice([60, 900, 3600]))
        mult = int(rng.integers(2, 5))
        w = hop * mult
        df = pd.DataFrame({
            "k1": rng.integers(0, 4, n).astype(np.int64),
            "ts": pd.Timestamp("2024-03-01")
            + pd.to_timedelta(rng.integers(0, 7 * 86400, n), unit="s"),
            "v": rng.integers(0, 10**6, n).astype(np.float64) / 1000.0,
        })
        con = duckdb.connect()
        con.register("t", df)
        # each event belongs to window/hop hopping windows: starts
        # floor(epoch/hop)*hop - i*hop, i in [0, window/hop)
        want = con.execute(
            "SELECT k1, to_timestamp((CAST(epoch(ts) AS BIGINT) // {h}) * {h}"
            " - CAST(r.i AS BIGINT) * {h})::TIMESTAMP AS window_start, "
            "CAST(count(*) AS BIGINT) AS n, "
            "sum(CAST(floor(v * 1000 + 0.5) AS BIGINT)) AS sum_value_milli "
            "FROM t, range({m}) r(i) GROUP BY 1, 2".format(h=hop, m=mult)
        ).df()
        got = hopping_window_agg(
            rd.from_pandas(df).repartition(4), "ts", w, hop, ["k1"], "v"
        ).to_pandas()
        _assert_same(got, want, ["k1", "window_start", "n", "sum_value_milli"],
                     f"hopping/seed{seed}/w={w}/hop={hop}")


@pytest.mark.usefixtures("ray_session")
class TestPartitionedWindowDifferential:
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_window_functions_match_duckdb(self, seed, monkeypatch):
        """row_number / running sum / lag through the bucketed window
        operator vs DuckDB OVER (PARTITION BY ... ORDER BY ...) on random
        skew-free tables (unique order column; tie semantics are covered
        by grouped_topk's tie_col tests)."""
        import ray.data as rd

        from schema_guru_ray.stages import joins
        from schema_guru_ray.stages.joins import partitioned_window

        monkeypatch.setattr(joins, "MIN_BUCKETS", 4)

        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 2500))
        card = int(rng.integers(1, 40))
        df = pd.DataFrame({
            "k": rng.integers(0, card, n).astype(np.int64),
            "o": rng.permutation(n).astype(np.int64),
            "v": rng.integers(-10**6, 10**6, n).astype(np.int64),
        })
        con = duckdb.connect()
        con.register("t", df)
        want = con.execute(
            "SELECT k, o, v, row_number() OVER w AS rn, "
            "sum(v) OVER (PARTITION BY k ORDER BY o ROWS UNBOUNDED "
            "PRECEDING) AS rsum, lag(v) OVER w AS prev "
            "FROM t WINDOW w AS (PARTITION BY k ORDER BY o)").df()

        def apply_fn(g):
            gb = g.groupby("k", sort=False)
            return g.assign(rn=gb.cumcount() + 1,
                            rsum=gb["v"].cumsum(),
                            prev=gb["v"].shift())

        got = partitioned_window(
            rd.from_pandas(df).repartition(3), "k", ["o"], apply_fn,
        ).to_pandas()
        cols = ["k", "o", "v", "rn", "rsum", "prev"]
        g = got[cols].astype("float64").sort_values(cols).reset_index(drop=True)
        w = want[cols].astype("float64").sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(g, w, check_dtype=False)
