"""Relational scan/aggregate/quantile queries — part of the catalog backing __ray_entry__.queries().

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
    _pandas_cols,
    _read,
)



# --- relational aggregates (partial-agg over Arrow batches) -----------------


def q1_lineitem_agg(sf_dir: str):
    """TPC-H Q1 shape: per-batch partial aggregation inside map_batches
    (integer-cents arithmetic → order-independent), then a tiny groupby
    merge. The wide shuffle moves one row per (batch × group)."""
    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        # pure-Arrow kernels end-to-end (zero-copy in, C++ group_by):
        # measured 2.0x over the pandas-groupby version of this partial
        def units(arr, scale):
            return pc.cast(pc.floor(pc.add(pc.multiply(arr, scale), 0.5)), pa.int64())

        tt = pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty": units(t["l_quantity"], 1.0),
                "price_c": units(t["l_extendedprice"], 100.0),
                "disc_price_c": units(
                    pc.multiply(
                        t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"]),
                    ),
                    100.0,
                ),
            }
        )
        g = tt.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("qty", "sum"),
                ("price_c", "sum"),
                ("disc_price_c", "sum"),
                ("qty", "count", pc.CountOptions(mode="all")),
            ]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty", "sum_price_cents",
             "sum_disc_price_cents", "n"]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    from ray.data.aggregate import Sum

    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_price_cents", alias_name="sum_price_cents"),
        Sum("sum_disc_price_cents", alias_name="sum_disc_price_cents"),
        Sum("n", alias_name="n"),
    )
    return out


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT) AS sum_disc_price_cents,
       count(*) AS n
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


def rollup_revenue_lineitem(sf_dir: str):
    """Multi-level aggregate (SQL ``GROUP BY ROLLUP``): revenue and row
    counts at (ship year, returnflag), (ship year), and grand-total
    levels. ONE pass + ONE shuffle: the per-batch Arrow partial and the
    groupby run only at the finest level; the coarser levels are derived
    from the finest AGGREGATE (tens of rows — cube composition is
    driver-cheap by construction, never a second scan). Rollup rows use
    year = -1 / l_returnflag = 'ALL' sentinels so the integer/string
    columns stay non-nullable."""
    ds = _read(sf_dir, "lineitem", ["l_shipdate", "l_returnflag", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        def units(arr, scale):
            return pc.cast(pc.floor(pc.add(pc.multiply(arr, scale), 0.5)), pa.int64())

        tt = pa.table(
            {
                # coalesce(year, -1): mirrors the oracle — a null shipdate
                # row lands in the -1 year bucket instead of poisoning the
                # int64 cast downstream
                "year": pc.fill_null(
                    pc.cast(pc.year(t["l_shipdate"]), pa.int64()), -1
                ),
                "l_returnflag": t["l_returnflag"],
                "rev_c": units(
                    pc.multiply(
                        t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"]),
                    ),
                    100.0,
                ),
            }
        )
        g = tt.group_by(["year", "l_returnflag"]).aggregate(
            [("rev_c", "sum"), ("rev_c", "count", pc.CountOptions(mode="all"))]
        )
        return g.rename_columns(["year", "l_returnflag", "rev_cents", "n"])

    from ray.data.aggregate import Sum

    fine = _pandas_cols(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["year", "l_returnflag"])
        .aggregate(Sum("rev_cents", alias_name="rev_cents"), Sum("n", alias_name="n")),
        ["year", "l_returnflag", "rev_cents", "n"],
        {"year": "int64", "rev_cents": "int64", "n": "int64"},
    )
    by_year = (
        fine.groupby("year", as_index=False)[["rev_cents", "n"]].sum()
        .assign(l_returnflag="ALL")
    )
    total = pd.DataFrame(
        {"year": [-1], "l_returnflag": ["ALL"],
         "rev_cents": [fine["rev_cents"].sum()], "n": [fine["n"].sum()]}
    )
    out = pd.concat([fine, by_year, total], ignore_index=True)
    return pd.DataFrame(
        {
            "year": out["year"].astype("int64"),
            "l_returnflag": out["l_returnflag"],
            # a group whose every revenue input was NULL sums to NULL
            # (SQL) — reported as 0 so the column stays non-nullable
            "rev_cents": out["rev_cents"].fillna(0).astype("int64"),
            "n": out["n"].astype("int64"),
        }
    )


ROLLUP_REVENUE_LINEITEM_SQL = """
SELECT coalesce(CAST(year(l_shipdate) AS BIGINT), -1) AS year,
       coalesce(l_returnflag, 'ALL') AS l_returnflag,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT)
           AS rev_cents,
       count(*) AS n
FROM lineitem
GROUP BY ROLLUP (year(l_shipdate), l_returnflag)
"""


def melt_lineitem_measures(sf_dir: str):
    """Unpivot (wide → long): lineitem's measure columns become
    (l_orderkey, l_linenumber, measure, value_units) rows — quantity in
    whole units, extendedprice in cents, discount in basis points, all
    integers for hash-exact parity. Stateless vectorized map_batches,
    ZERO shuffle: each batch emits its own melted rows and streams on."""
    ds = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount"],
    )
    MEASURES = (("quantity", "l_quantity", 1.0),
                ("extendedprice_cents", "l_extendedprice", 100.0),
                ("discount_bp", "l_discount", 10000.0))

    def melt(t: pa.Table) -> pa.Table:
        parts = []
        for name, col, scale in MEASURES:
            parts.append(pa.table({
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": pc.cast(t["l_linenumber"], pa.int64()),
                "measure": pa.array([name] * t.num_rows, pa.string()),
                "value_units": pc.cast(
                    pc.floor(pc.add(pc.multiply(t[col], scale), 0.5)), pa.int64()
                ),
            }))
        return pa.concat_tables(parts)

    return ds.map_batches(melt, batch_format="pyarrow", batch_size=65536)


MELT_LINEITEM_MEASURES_SQL = """
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
       'quantity' AS measure,
       CAST(round(l_quantity) AS BIGINT) AS value_units
FROM lineitem
UNION ALL
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
       'extendedprice_cents' AS measure,
       CAST(round(l_extendedprice * 100) AS BIGINT) AS value_units
FROM lineitem
UNION ALL
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
       'discount_bp' AS measure,
       CAST(round(l_discount * 10000) AS BIGINT) AS value_units
FROM lineitem
"""


def column_stats_lineitem(sf_dir: str):
    """Per-column profile rows (the reference's min/max/null derive as exact
    stats; SURVEY.md §2.5 A11) via mergeable ColumnProfile states."""
    from schema_guru_ray.stages.profile import TableProfiler, fold_profiles

    cols = ["l_orderkey", "l_quantity", "l_returnflag", "l_shipdate"]
    ds = _read(sf_dir, "lineitem", cols)
    prof_ds = ds.map_batches(
        TableProfiler(cols, with_sketches=False), batch_format="pyarrow", batch_size=65536
    )
    # fold_keyed: the driver never merges one state per batch at scale
    # (.get: zero state rows on an empty shard → identity profiles, the
    # same rows SQL's count()/min() UNION ALL emits on an empty table)
    from schema_guru_ray.stages.profile import ColumnProfile

    profs = fold_profiles(prof_ds).get("", {})
    rows = []
    for c in cols:
        p = profs.get(c, ColumnProfile())
        rows.append(
            {
                "column": c,
                "non_null": p.non_null,
                "nulls": p.nulls,
                "minimum": str(p.minimum),
                "maximum": str(p.maximum),
            }
        )
    return pd.DataFrame(rows)


COLUMN_STATS_LINEITEM_SQL = """
SELECT 'l_orderkey' AS column, count(l_orderkey) AS non_null,
       count(*) - count(l_orderkey) AS nulls,
       CAST(min(l_orderkey) AS VARCHAR) AS minimum, CAST(max(l_orderkey) AS VARCHAR) AS maximum
FROM lineitem
UNION ALL
SELECT 'l_quantity', count(l_quantity), count(*) - count(l_quantity),
       CAST(min(l_quantity) AS VARCHAR), CAST(max(l_quantity) AS VARCHAR) FROM lineitem
UNION ALL
SELECT 'l_returnflag', count(l_returnflag), count(*) - count(l_returnflag),
       min(l_returnflag), max(l_returnflag) FROM lineitem
UNION ALL
SELECT 'l_shipdate', count(l_shipdate), count(*) - count(l_shipdate),
       CAST(min(l_shipdate) AS VARCHAR), CAST(max(l_shipdate) AS VARCHAR) FROM lineitem
"""


def distinct_counts(sf_dir: str, n_shards: int = 64):
    """Exact distincts, distributed end-to-end and shard-parallel:
    per-batch ``pc.unique`` pre-reduction → shuffle into ``n_shards``
    COARSE hash shards (a value's duplicates all land in one shard) →
    vectorized per-shard ``nunique`` → sum of ≤ n_shards partial counts.
    Only scalar counts reach the driver — no distinct-value list ever
    materializes there, and no per-distinct-key reducer group exists
    (a ``groupby(col).count()`` over 10^9 keys is itself the bottleneck —
    measured 18.7 s vs 3 s for this shape at sf0.1)."""
    from schema_guru_ray.stages.profile import stable_hash64

    rows = []
    for table, col in (("lineitem", "l_orderkey"), ("orders", "o_custkey"),
                       ("events", "user_id")):
        ds = _read(sf_dir, table, [col])

        def partial(t: pa.Table, c=col) -> pd.DataFrame:
            u = pc.unique(t[c]).to_pandas()
            return pd.DataFrame(
                {
                    "shard": (stable_hash64(u) % np.uint64(n_shards)).astype(np.int32),
                    "value": u,
                }
            )

        def shard_nunique(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"n": [int(g["value"].nunique())]})

        shards = (
            ds.map_batches(partial, batch_format="pyarrow", batch_size=131072)
            .groupby("shard")
            .map_groups(shard_nunique, batch_format="pandas")
        )
        n = int(_pandas_cols(shards, ["n"], {"n": "int64"})["n"].sum())  # ≤ n_shards scalar rows
        rows.append({"table_col": f"{table}.{col}", "n_distinct": n})
    return pd.DataFrame(rows)


DISTINCT_COUNTS_SQL = """
SELECT 'lineitem.l_orderkey' AS table_col, count(DISTINCT l_orderkey) AS n_distinct FROM lineitem
UNION ALL
SELECT 'orders.o_custkey', count(DISTINCT o_custkey) FROM orders
UNION ALL
SELECT 'events.user_id', count(DISTINCT user_id) FROM events
"""


def exact_quantiles_quantity(sf_dir: str):
    """EXACT quantiles for a low-cardinality numeric column via a value
    histogram: per-batch value_counts pre-agg → tiny groupby sum → driver
    cumsum over the (few) distinct values. Complements the KLL sketch path
    with an exact answer where cardinality allows."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        # pure-Arrow histogram partial: C++ value_counts, zero-copy in.
        # value_counts emits a NULL entry for null rows — dropped
        # (quantile_disc ignores NULLs); the null sits in the struct's
        # "values" FIELD, so filter on that, not drop_null on the struct
        vc = pc.value_counts(t["l_quantity"])
        vc = vc.filter(pc.is_valid(vc.field("values")))
        return pa.table(
            {
                "value": pc.cast(vc.field("values"), pa.float64()),
                "cnt": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    hist = _pandas_cols(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=131072)
        .groupby("value")
        .aggregate(Sum("cnt", alias_name="cnt")),
        ["value", "cnt"],
        {"value": "float64", "cnt": "int64"},
    ).sort_values("value")
    if hist.empty:  # empty shard: no quantiles (SQL rows would be NULL)
        return pd.DataFrame({"q": pd.Series(dtype="float64"),
                             "value": pd.Series(dtype="float64")})
    cum = hist["cnt"].cumsum()
    total = int(cum.iloc[-1])
    rows = []
    for q in (0.25, 0.5, 0.75):
        # quantile_disc semantics: smallest value with cum >= q * total
        target = q * total
        v = float(hist["value"][(cum >= target)].iloc[0])
        rows.append({"q": q, "value": v})
    return pd.DataFrame(rows)


EXACT_QUANTILES_QUANTITY_SQL = """
SELECT 0.25 AS q, quantile_disc(l_quantity, 0.25) AS value FROM lineitem
UNION ALL
SELECT 0.5, quantile_disc(l_quantity, 0.5) FROM lineitem
UNION ALL
SELECT 0.75, quantile_disc(l_quantity, 0.75) FROM lineitem
"""


def approx_quantiles_extendedprice(sf_dir: str):
    """KLL approximate quantiles over a HIGH-cardinality numeric column
    (l_extendedprice) — the regime where ``exact_quantiles_quantity``'s
    value-histogram would shuffle a histogram nearly as large as the
    column itself, i.e. the 100-TB quantile path (north star: "KLL
    quantile sketches for dur_ms/sr_hz"). Topology: per-batch KLL
    partials (tiny states) → tree fold → driver reads three quantiles.

    Rows-only BUT self-certifying (the minhash/ivf checked-invariant
    pattern): each approximate value carries its MEASURED rank error —
    one vectorized count-≤-v pass over the column computes the true rank
    of the sketch's answer in the same run, so the result row states
    exactly how wrong the sketch is, and pytest bounds it against the
    KLL k=800 design error."""
    from schema_guru_ray.stages.profile import TableProfiler, fold_profiles

    col = "l_extendedprice"
    ds = _read(sf_dir, "lineitem", [col]).materialize()  # reused by both passes
    prof_ds = ds.map_batches(
        TableProfiler([col], kll_k=800), batch_format="pyarrow", batch_size=65536
    )
    prof = fold_profiles(prof_ds).get("", {}).get(col)
    qs = (0.25, 0.5, 0.75, 0.95)
    if prof is None or prof.kll is None or prof.non_null == 0:
        # empty shard: no sketch, no quantiles
        return pd.DataFrame({
            "q": pd.Series(dtype="float64"),
            "approx_value": pd.Series(dtype="float64"),
            "rank_error": pd.Series(dtype="float64"),
            "n": pd.Series(dtype="int64"),
        })
    kll = prof.kll
    vals = np.array([kll.quantile(q) for q in qs], dtype=np.float64)

    def rank_partial(t: pa.Table) -> pa.Table:
        x = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        le = np.array([(x <= v).sum() for v in vals], dtype=np.int64)
        return pa.table(
            {
                "i": np.arange(len(vals), dtype=np.int64),
                "le": le,
                "n": np.full(len(vals), len(x), dtype=np.int64),
            }
        )

    ranks = (
        ds.map_batches(rank_partial, batch_format="pyarrow", batch_size=131072)
        .to_pandas()
        .groupby("i")
        .sum()
    )
    total = int(ranks["n"].iloc[0])  # per-i sum of batch sizes = row count
    return pd.DataFrame(
        {
            "q": list(qs),
            "approx_value": vals,
            "rank_error": (ranks["le"] / total - np.array(qs)).abs().to_numpy(),
            "n": total,
        }
    )


def top_customers_revenue(sf_dir: str, k: int = 10):
    """Top-k by grouped sum; broadcast join of the (small) customer side for
    names — no row shuffle of the fact table beyond the pre-agged partials."""
    import ray

    cust = _pandas_cols(
        _read(sf_dir, "customer", ["c_custkey", "c_name"]),
        ["c_custkey", "c_name"],
    )
    name_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_name"])))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        # pure-Arrow: high-cardinality group key is C++ hash-agg's best case
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(t["o_totalprice"], 100.0), 0.5)),
            pa.int64(),
        )
        tt = pa.table({"o_custkey": t["o_custkey"], "cents": cents})
        g = tt.group_by("o_custkey").aggregate([("cents", "sum")])
        return g.rename_columns(["o_custkey", "revenue_cents"])

    # o_custkey is groups≈rows: the bucketed vectorized reduce beats the
    # native per-group aggregate (BASELINE.md round-5 table)
    from schema_guru_ray.stages.joins import bucketed_aggregate

    agg = bucketed_aggregate(
        orders.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "o_custkey", {"revenue_cents": ("revenue_cents", "sum")},
    )
    top = _pandas_cols(
        agg.sort("revenue_cents", descending=True).limit(k),
        ["o_custkey", "revenue_cents"],
        {"o_custkey": "int64", "revenue_cents": "int64"},
    )
    names = ray.get(name_ref)
    top["c_name"] = top["o_custkey"].map(names)
    return top[["o_custkey", "c_name", "revenue_cents"]]


TOP_CUSTOMERS_REVENUE_SQL = """
SELECT o_custkey, c_name,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders JOIN customer ON c_custkey = o_custkey
GROUP BY o_custkey, c_name
ORDER BY revenue_cents DESC LIMIT 10
"""


def quantile_buckets_extendedprice(sf_dir: str):
    """Quantile discretization of a HIGH-cardinality continuous column:
    exact quartile boundaries via the 3-pass bin-refinement operator
    (stages/profile.py exact_quantiles_continuous — shuffle bounded by
    n_bins, not by distinct values), then a streaming bucket-assignment +
    partial aggregate. Boundaries are actual data values, so the ``v <=
    boundary`` comparisons replay float-exactly in the percentile_disc
    oracle."""
    from ray.data.aggregate import Sum

    from schema_guru_ray.stages.profile import exact_quantiles_continuous

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    qv = exact_quantiles_continuous(ds, "l_extendedprice")
    bounds = np.array([qv[0.25], qv[0.5], qv[0.75]])

    def partial(t: pa.Table) -> pd.DataFrame:
        v = t["l_extendedprice"].to_numpy(zero_copy_only=False).astype(np.float64)
        bucket = np.searchsorted(bounds, v, side="left")
        cents = np.floor(v * 100 + 0.5).astype(np.int64)
        df = pd.DataFrame({"bucket": bucket.astype("int64"), "n": 1, "cents": cents})
        return df.groupby("bucket", as_index=False).agg(
            n=("n", "sum"), cents=("cents", "sum")
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"), Sum("cents", alias_name="sum_cents"))
    )


QUANTILE_BUCKETS_EXTENDEDPRICE_SQL = """
WITH b AS (
    SELECT percentile_disc(0.25) WITHIN GROUP (ORDER BY l_extendedprice) AS q1,
           percentile_disc(0.50) WITHIN GROUP (ORDER BY l_extendedprice) AS q2,
           percentile_disc(0.75) WITHIN GROUP (ORDER BY l_extendedprice) AS q3
    FROM lineitem
)
SELECT CAST(CASE WHEN l_extendedprice <= q1 THEN 0
                 WHEN l_extendedprice <= q2 THEN 1
                 WHEN l_extendedprice <= q3 THEN 2
                 ELSE 3 END AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM lineitem, b
GROUP BY 1
"""


def corr_stats_lineitem(sf_dir: str):
    """Distributed correlation/covariance via INTEGER sufficient statistics
    (n, Σx, Σy, Σxy, Σx², Σy² with x = quantity units, y = price cents):
    one streaming pass of per-batch partial sums, one tiny groupby — the
    associative-monoid shape of A11 applied to second moments. Pearson r /
    covariance derive client-side from the exact integers, so the oracle
    compares bit-exact sums instead of float-rounded r."""
    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])

    # Σy² overflows int64 once ~10^5 rows of 10^7-cent prices are summed
    # (caught by the round-4 full-catalog bench at sf0.1: 6×10^19 > 2^63),
    # and DuckDB silently survives only because sum(BIGINT) promotes to
    # HUGEINT. Mirror that: int64 per-batch partials sized UNDER the bound
    # (32768 rows × (1.04e7)² ≈ 3.6e18 < 2^63 with 2.5x margin), then an
    # exact Python-int tree merge whose outputs ride as decimal strings —
    # overflow-free at any row count; the oracle casts its HUGEINTs to
    # VARCHAR so the surfaces hash identically.
    _SUMS = ["sum_x", "sum_y", "sum_xy", "sum_x2", "sum_y2"]

    def partial(t: pa.Table) -> pd.DataFrame:
        x = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "n": [np.int64(len(x))],
                "sum_x": [str(x.sum())],
                "sum_y": [str(y.sum())],
                "sum_xy": [str((x * y).sum())],
                "sum_x2": [str((x * x).sum())],
                "sum_y2": [str((y * y).sum())],
            }
        )

    def merge_exact(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        out = {"n": [np.int64(df["n"].sum())], "k": [np.int64(0)]}
        for c in _SUMS:
            out[c] = [str(sum(int(v) for v in df[c]))]
        return pd.DataFrame(out)

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=32768)
        # tree level: fold 4096 per-batch partial rows per task (exact
        # Python ints), so the single final group sees few rows
        .map_batches(merge_exact, batch_format="pandas", batch_size=4096)
        .groupby("k")
        .map_groups(merge_exact, batch_format="pandas")
        .map_batches(
            lambda t: t.drop_columns(["k"]), batch_format="pyarrow"
        )
    )


CORR_STATS_LINEITEM_SQL = """
SELECT CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(l_quantity AS BIGINT)) AS VARCHAR) AS sum_x,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS VARCHAR)
           AS sum_y,
       CAST(sum(CAST(l_quantity AS BIGINT)
                * CAST(round(l_extendedprice * 100) AS BIGINT)) AS VARCHAR)
           AS sum_xy,
       CAST(sum(CAST(l_quantity AS BIGINT) * CAST(l_quantity AS BIGINT))
            AS VARCHAR) AS sum_x2,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                * CAST(round(l_extendedprice * 100) AS BIGINT)) AS VARCHAR)
           AS sum_y2
FROM lineitem
"""


def grouped_median_quantity(sf_dir: str):
    """Per-group EXACT discrete percentiles (SQL ``percentile_disc``) of
    l_quantity by return flag. 100-TB shape: the raw column never shuffles —
    each batch emits (group, value) → count partials via Arrow C++
    group_by, the groupby merges ≤ |groups|×|distinct| count rows, and the
    percentile selection runs per group inside map_groups over sorted
    cumulative counts with INTEGER threshold comparisons
    (``cum*b ≥ n*a`` for q=a/b — no float cumulative-distribution
    edge cases). Only works this cheaply because l_quantity is
    low-cardinality; high-cardinality columns route to the KLL sketch
    (approx_quantiles) or the 3-pass bin refinement
    (quantile_buckets)."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["l_quantity"]))  # percentile ignores NULLs
        qty = pc.cast(pc.floor(pc.add(t["l_quantity"], 0.5)), pa.int64())
        g = (
            pa.table({"l_returnflag": t["l_returnflag"], "qty": qty})
            .group_by(["l_returnflag", "qty"])
            .aggregate([("qty", "count", pc.CountOptions(mode="all"))])
        )
        return g.rename_columns(["l_returnflag", "qty", "cnt"])

    from ray.data.aggregate import Sum

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "qty"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("qty")
        cum = g["cnt"].to_numpy().cumsum()
        n = int(cum[-1])
        vals = g["qty"].to_numpy()

        def disc(a: int, b: int) -> int:
            # percentile_disc(a/b): first value with cum_dist >= a/b
            return int(vals[np.searchsorted(cum * b, n * a, side="left")])

        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "q25": [disc(1, 4)],
                "median": [disc(1, 2)],
                "q75": [disc(3, 4)],
            }
        )

    return counts.groupby("l_returnflag").map_groups(pick, batch_format="pandas")


GROUPED_MEDIAN_QUANTITY_SQL = """
SELECT l_returnflag,
       CAST(percentile_disc(0.25) WITHIN GROUP
            (ORDER BY CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS q25,
       CAST(percentile_disc(0.5) WITHIN GROUP
            (ORDER BY CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS median,
       CAST(percentile_disc(0.75) WITHIN GROUP
            (ORDER BY CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS q75
FROM lineitem
GROUP BY l_returnflag
"""


def rolling_revenue_customer(sf_dir: str, window_days: int = 7):
    """Per-customer trailing 7-day revenue at every order (SQL ``RANGE
    BETWEEN INTERVAL 7 DAY PRECEDING AND CURRENT ROW`` — peer rows with the
    SAME date are all included, unlike a ROWS window). One
    partitioned_window pass: hash-bucket by customer, sort
    (custkey, date) inside the bucket, then a FUSED-KEY searchsorted over
    the whole bucket — ``custkey * 2^21 + day`` packs (customer, day) into
    one sortable int64 (valid while day-since-epoch < 2^21 ≈ year 7700 and
    custkey < 2^42), so the per-row window bounds come from two vectorized
    searchsorted calls over the bucket, not a per-customer Python loop.
    o_orderdate is date-granular (midnight timestamps), so day encoding is
    exact."""
    from schema_guru_ray.stages.joins import partitioned_window

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    )

    def trailing(g: pd.DataFrame) -> pd.DataFrame:
        # g sorted by (o_custkey, o_orderdate); searchsorted needs the fused
        # key monotone within the frame, which (custkey, day) sort gives.
        # A null date has no window position and a null price no
        # contribution — such rows are excluded (never occurs in the
        # tested corpora; at scale one broken shard-day must not assert)
        g = g.dropna(subset=["o_orderdate", "o_totalprice"])
        if g.empty:
            return pd.DataFrame({
                "o_orderkey": pd.Series(dtype="int64"),
                "trailing_cents": pd.Series(dtype="int64"),
                "n_in_window": pd.Series(dtype="int64"),
            })
        days = (
            g["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        )
        cust = g["o_custkey"].to_numpy().astype(np.int64)
        # days must be non-negative too: a pre-1970 date would make the
        # fused key non-monotone and silently corrupt the trailing windows
        assert (days >= 0).all() and (days < (1 << 21)).all() and (cust < (1 << 42)).all()
        fused = cust * (1 << 21) + days
        cents = _int_units(g["o_totalprice"].to_numpy(), 100).to_numpy(np.int64)
        prefix = np.concatenate([[0], cents.cumsum()])
        lo = np.searchsorted(fused, cust * (1 << 21) + (days - window_days), "left")
        hi = np.searchsorted(fused, fused, "right")
        return pd.DataFrame(
            {
                "o_orderkey": g["o_orderkey"].astype("int64"),
                "trailing_cents": (prefix[hi] - prefix[lo]).astype("int64"),
                "n_in_window": (hi - lo).astype("int64"),
            }
        )

    return partitioned_window(
        orders, "o_custkey", ["o_orderdate"], trailing,
        n_rows=_meta_rows(sf_dir, "orders"),
    )


ROLLING_REVENUE_CUSTOMER_SQL = """
SELECT o_orderkey,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) OVER w AS BIGINT)
           AS trailing_cents,
       CAST(count(*) OVER w AS BIGINT) AS n_in_window
FROM orders
WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate
             RANGE BETWEEN INTERVAL 7 DAYS PRECEDING AND CURRENT ROW)
"""
