"""TPC-H-shaped join/semi-join queries (each keyed join is one
:func:`stages.joins.join_keyed`) — part of the catalog backing __ray_entry__.queries().

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
from schema_guru_ray.stages.joins import bucketed, join_keyed
from schema_guru_ray.pipelines.queries._common import (
    _meta_rows,
    _pq_schema,
    _read,
    _scalar_or,
)



def customers_without_orders(sf_dir: str):
    """Left anti join under oracle: customers with NO high-value order
    (o_totalprice > 450000, ~35% of customers in this corpus), counted per
    market segment. One :func:`stages.joins.join_keyed` anti join against
    the qualifying o_custkeys — the predicate is applied in the read's
    batch map and the keys deduplicated per batch, so only distinct
    qualifying keys form the small side — then the usual tiny
    groupby-count."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    okeys = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: pa.table({"o_custkey": pc.unique(
            t.filter(pc.greater(t["o_totalprice"], 450000.0))["o_custkey"]
            .combine_chunks())}),
        batch_format="pyarrow",
    )
    inactive = join_keyed(cust, okeys, on=("c_custkey", "o_custkey"), how="anti")

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["c_mktsegment"]).aggregate(
            [("c_custkey", "count", pc.CountOptions(mode="all"))]
        )
        return g.rename_columns(["c_mktsegment", "n"])

    return (
        inactive.map_batches(partial, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(Sum("n", alias_name="n"))
    )


CUSTOMERS_WITHOUT_ORDERS_SQL = """
SELECT c_mktsegment, count(*) AS n
FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_totalprice > 450000)
GROUP BY c_mktsegment
"""


def referential_orphans(sf_dir: str):
    """Anti-join (SURVEY.md §2.4 J3 referential checks): orders whose
    o_custkey has no customer row, as one :func:`stages.joins.join_keyed`
    anti join. The customer key column is the small side, read with plain
    pyarrow on the driver (a Ray read of a dimension costs ~2 s of task
    overhead); its measured size picks the broadcast lookup or the
    Bloom-split exact shuffle."""
    import pyarrow.parquet as pq

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])
    n = join_keyed(orders, cust, on=("o_custkey", "c_custkey"), how="anti").count()
    return pd.DataFrame({"n_orphans": [n]})


REFERENTIAL_ORPHANS_SQL = """
SELECT count(*) AS n_orphans
FROM orders o WHERE NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey)
"""


def revenue_by_region(sf_dir: str):
    """TPC-H Q5-style multi-way join chain: region ⨝ nation ⨝ customer ⨝
    orders ⨝ lineitem → revenue per region for one order year.

    The two tiny dimensions (region×nation) fold into a customer → region
    name table on the driver (plain pyarrow reads: a Ray read of a small
    dimension is ~2 s of task overhead). Two :func:`stages.joins.join_keyed`
    inner joins follow — orders against that table, then lineitem against
    the (o_orderkey, r_name) result — so at this corpus size lineitem
    streams through one lookup map and a partial aggregate with no
    shuffle of fact data. The date filter is pushed into the orders read
    (row-group pruning) and the final aggregate is partial-per-batch
    (integer cents) before a ≤|regions|-row groupby."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data as rd

    from ray.data.aggregate import Sum

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    ).to_pandas()
    region = pq.read_table(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    ).to_pandas()
    nk_to_region = dict(
        zip(
            nation["n_nationkey"].astype("int64"),
            region.set_index("r_regionkey")["r_name"].reindex(
                nation["n_regionkey"]
            ).to_numpy(),
        )
    )
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    )
    # a nationkey with no nation (or region) row maps to NULL and drops,
    # as in the oracle's inner join chain
    r_name = pa.array(cust["c_nationkey"].to_pandas().map(nk_to_region),
                      pa.string(), from_pandas=True)
    cust_region = pa.table(
        {"c_custkey": cust["c_custkey"], "r_name": r_name}
    ).filter(pc.is_valid(r_name))

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(
            (pads.field("o_orderdate") >= pa.scalar(pd.Timestamp("1996-01-01")))
            & (pads.field("o_orderdate") < pa.scalar(pd.Timestamp("1997-01-01")))
        ),
    ).select_columns(["o_orderkey", "o_custkey"])
    orders_region = join_keyed(
        orders, cust_region, on=("o_custkey", "c_custkey")
    ).select_columns(["o_orderkey", "r_name"])
    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )
    joined = join_keyed(li, orders_region, on=("l_orderkey", "o_orderkey"))

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.cast(
            pc.floor(
                pc.add(
                    pc.multiply(
                        pc.multiply(
                            t["l_extendedprice"],
                            pc.subtract(pa.scalar(1.0), t["l_discount"]),
                        ),
                        100.0,
                    ),
                    0.5,
                )
            ),
            pa.int64(),
        )
        g = (
            pa.table({"r_name": t["r_name"], "revenue_cents": rev})
            .group_by("r_name")
            .aggregate(
                [("revenue_cents", "sum"),
                 ("revenue_cents", "count", pc.CountOptions(mode="all"))]
            )
        )
        return g.rename_columns(["r_name", "revenue_cents", "n"])

    partials = joined.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("r_name").aggregate(
        Sum("revenue_cents", alias_name="revenue_cents"),
        Sum("n", alias_name="n"),
    )


REVENUE_BY_REGION_SQL = """
SELECT r_name,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT))
            AS BIGINT) AS revenue_cents,
       count(*) AS n
FROM region
JOIN nation   ON n_regionkey = r_regionkey
JOIN customer ON c_nationkey = n_nationkey
JOIN orders   ON o_custkey   = c_custkey
JOIN lineitem ON l_orderkey  = o_orderkey
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY r_name
"""


def nation_balance_full_outer(sf_dir: str):
    """FULL OUTER join of two independently-aggregated sides: per-nation
    high-balance customer totals vs per-nation high-balance supplier
    totals. The thresholds are chosen so BOTH sides have nations the other
    lacks at every test scale — the join must synthesize rows from each
    unmatched side (COALESCE key + zero-fill). 100-TB shape: both sides
    pre-aggregate to ≤ |nations| rows via batch partials before the join;
    the outer join itself is the bucketed tagged-union pattern with pandas
    ``how='outer'`` inside the bucket."""
    from ray.data.aggregate import Sum

    from schema_guru_ray.stages.joins import bucketed_hash_join

    def agg_side(table: str, key: str, bal: str, thresh: float, prefix: str):
        ds = _read(sf_dir, table, [key, bal])

        def partial(t: pa.Table) -> pa.Table:
            keep = pc.greater(t[bal], pa.scalar(thresh))
            t = t.filter(keep)
            cents = pc.cast(
                pc.floor(pc.add(pc.multiply(t[bal], 100.0), 0.5)), pa.int64()
            )
            g = (
                pa.table({"nationkey": pc.cast(t[key], pa.int64()), "c": cents})
                .group_by("nationkey")
                .aggregate(
                    [("c", "sum"), ("c", "count", pc.CountOptions(mode="all"))]
                )
            )
            return g.rename_columns(
                ["nationkey", f"{prefix}_cents", f"n_{prefix}"]
            )

        return ds.map_batches(partial, batch_format="pyarrow").groupby(
            "nationkey"
        ).aggregate(
            Sum(f"{prefix}_cents", alias_name=f"{prefix}_cents"),
            Sum(f"n_{prefix}", alias_name=f"n_{prefix}"),
        )

    cust = agg_side("customer", "c_nationkey", "c_acctbal", 9900.0, "cust")
    supp = agg_side("supplier", "s_nationkey", "s_acctbal", 5000.0, "supp")
    # both sides are ≤|nations|-row aggregates: the nation footer and the
    # schema hints stand in for .count()/.schema(), which would execute
    # each aggregate once extra (their plans end in an all-to-all)
    joined = bucketed_hash_join(
        cust, supp, on="nationkey", join_type="outer",
        n_rows=_meta_rows(sf_dir, "nation"),
        left_schema=pa.schema(
            [("nationkey", pa.int64()), ("cust_cents", pa.int64()),
             ("n_cust", pa.int64())]
        ),
        right_schema=pa.schema(
            [("nationkey", pa.int64()), ("supp_cents", pa.int64()),
             ("n_supp", pa.int64())]
        ),
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"nationkey": b["nationkey"].astype("int64")})
        for c in ("n_cust", "cust_cents", "n_supp", "supp_cents"):
            out[c] = b[c].fillna(0).astype("int64")
        return out

    return joined.map_batches(finish, batch_format="pandas")


NATION_BALANCE_FULL_OUTER_SQL = """
WITH c AS (
    SELECT CAST(c_nationkey AS BIGINT) AS nationkey,
           count(*) AS n_cust,
           sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS cust_cents
    FROM customer WHERE c_acctbal > 9900 GROUP BY 1
), s AS (
    SELECT CAST(s_nationkey AS BIGINT) AS nationkey,
           count(*) AS n_supp,
           sum(CAST(round(s_acctbal * 100) AS BIGINT)) AS supp_cents
    FROM supplier WHERE s_acctbal > 5000 GROUP BY 1
)
SELECT COALESCE(c.nationkey, s.nationkey) AS nationkey,
       CAST(COALESCE(c.n_cust, 0) AS BIGINT) AS n_cust,
       CAST(COALESCE(c.cust_cents, 0) AS BIGINT) AS cust_cents,
       CAST(COALESCE(s.n_supp, 0) AS BIGINT) AS n_supp,
       CAST(COALESCE(s.supp_cents, 0) AS BIGINT) AS supp_cents
FROM c FULL OUTER JOIN s USING (nationkey)
"""


def order_priority_exists(sf_dir: str):
    """TPC-H Q4 shape: count orders per priority where EXISTS a returned
    lineitem (l_returnflag = 'R'). The returnflag filter is pushed into
    the parquet read; per-batch ``pc.unique`` keys form the small side of
    one :func:`stages.joins.join_keyed` semi join (repeated keys across
    batches are fine for a semi join), and the surviving orders count
    partial-per-batch."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ray.data.aggregate import Sum

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey"],
        filter=(pads.field("l_returnflag") == "R"),
    )
    keys = li.map_batches(
        lambda t: pa.table({"l_orderkey": pc.unique(t["l_orderkey"])}),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        g = (
            t.select(["o_orderpriority"])
            .group_by("o_orderpriority")
            .aggregate([("o_orderpriority", "count", pc.CountOptions(mode="all"))])
        )
        return g.rename_columns(["o_orderpriority", "n_orders"])

    return (
        join_keyed(orders, keys, on=("o_orderkey", "l_orderkey"), how="semi")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
    )


ORDER_PRIORITY_EXISTS_SQL = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
"""


def customer_order_distribution(sf_dir: str):
    """TPC-H Q13 shape: the distribution-of-a-distribution — how many
    customers placed exactly k orders, INCLUDING k = 0. Orders pre-aggregate
    to one (custkey, count) row per customer (the exchange moves one row per
    customer, never per order); a :func:`stages.joins.join_keyed` LEFT join
    of the customers against that count side zero-fills the customers with
    no orders. The outer distribution is another partial-per-batch count
    whose final groupby has ≤ max-orders-per-customer rows."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def per_cust(t: pa.Table) -> pa.Table:
        g = (
            t.group_by("o_custkey")
            .aggregate([("o_custkey", "count", pc.CountOptions(mode="all"))])
        )
        return g.rename_columns(["c_custkey", "c_count"])

    # bucketed merge of the per-batch partials (one vectorized pandas sum
    # per bucket) instead of a 1-group-per-customer sort aggregate
    def sum_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("c_custkey", as_index=False)["c_count"].sum()
        return s.astype({"c_custkey": "int64", "c_count": "int64"})

    counts = bucketed(
        orders.map_batches(per_cust, batch_format="pyarrow"), "c_custkey",
        sum_bucket, n_rows=_meta_rows(sf_dir, "customer"),
    ).materialize()
    if counts.schema() is None:  # no orders at all: an empty, typed count side
        counts = pa.schema(
            [("c_custkey", pa.int64()), ("c_count", pa.int64())]
        ).empty_table()

    def dist_partial(t: pa.Table) -> pa.Table:
        k = pc.fill_null(t["c_count"], 0).cast(pa.int64())
        vc = pc.value_counts(k)
        return pa.table({"c_count": vc.field("values"),
                         "n_cust": vc.field("counts").cast(pa.int64())})

    return (
        join_keyed(cust, counts, on="c_custkey", how="left")
        .map_batches(dist_partial, batch_format="pyarrow")
        .groupby("c_count")
        .aggregate(Sum("n_cust", alias_name="n_cust"))
    )


CUSTOMER_ORDER_DISTRIBUTION_SQL = """
WITH per_cust AS (
    SELECT c_custkey, count(o_orderkey) AS c_count
    FROM customer LEFT JOIN orders ON o_custkey = c_custkey
    GROUP BY c_custkey
)
SELECT CAST(c_count AS BIGINT) AS c_count, count(*) AS n_cust
FROM per_cust GROUP BY c_count
"""


def promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: conditional aggregation across a join — the share of
    revenue from PROMO parts, as one global row. The part side reduces to a
    slim (p_partkey, is_promo) table read on the driver (9 bytes per part)
    and lineitem joins it through one :func:`stages.joins.join_keyed` inner
    join.

    Revenue is integer cents with the CASE folded into the per-batch
    partial, so the final exchange is one 2-int row per batch; the ratio is
    integer basis points (floor division) for bit-exact oracle
    comparison."""
    import pyarrow.parquet as pq

    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])
    part_t = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )
    # NULL p_type: LIKE 'PROMO%' is NULL in SQL, falsy in the CASE
    part = pa.table({
        "p_partkey": part_t["p_partkey"],
        "is_promo": pc.fill_null(pc.starts_with(part_t["p_type"], "PROMO"), False),
    })

    def partial(t: pa.Table) -> pa.Table:
        # SQL: a NULL price/discount product is NULL and sum skips it
        cents = pc.cast(pc.floor(pc.add(pc.multiply(pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])),
            100.0), 0.5)), pa.int64())
        promo = pc.if_else(t["is_promo"], cents, pa.scalar(0, pa.int64()))
        return pa.table({
            "promo_cents": pa.array([pc.sum(promo).as_py() or 0], pa.int64()),
            "total_cents": pa.array([pc.sum(cents).as_py() or 0], pa.int64()),
        })

    sums = (
        join_keyed(li, part, on=("l_partkey", "p_partkey"))
        .map_batches(partial, batch_format="pyarrow")
        .aggregate(
            Sum("promo_cents", alias_name="promo_cents"),
            Sum("total_cents", alias_name="total_cents"),
        )
    )
    promo_c = int(_scalar_or(sums and sums["promo_cents"], 0))
    total_c = int(_scalar_or(sums and sums["total_cents"], 0))
    return pd.DataFrame(
        {
            "promo_cents": [promo_c],
            "total_cents": [total_c],
            # 0 lineitems → 0 bp (the oracle CTE emits NULL; neither
            # side is ever compared on an empty shard, 0 keeps typing)
            "promo_bp": [promo_c * 10000 // total_c if total_c else 0],
        }
    )


PROMO_REVENUE_SQL = """
WITH s AS (
    SELECT
      sum(CASE WHEN p_type LIKE 'PROMO%'
               THEN CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)
               ELSE 0 END) AS promo_cents,
      sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS total_cents
    FROM lineitem JOIN part ON p_partkey = l_partkey
)
SELECT CAST(promo_cents AS BIGINT) AS promo_cents,
       CAST(total_cents AS BIGINT) AS total_cents,
       CAST(promo_cents * 10000 // total_cents AS BIGINT) AS promo_bp
FROM s
"""


def large_orders_having(sf_dir: str, min_qty: int = 200):
    """TPC-H Q18 shape: GROUP BY + HAVING over the fact table, joined back
    to the dimension for context. The quantity sum is partial-per-batch
    (integer units) so the groupby exchanges one row per (batch × order),
    and the HAVING filter runs BEFORE the join back, which is one
    :func:`stages.joins.join_keyed` inner join of orders against the
    survivor set (a tiny fraction of orders by construction)."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        qty = pc.cast(pc.floor(pc.add(t["l_quantity"], 0.5)), pa.int64())
        g = (
            pa.table({"o_orderkey": t["l_orderkey"], "sum_qty": qty})
            .group_by("o_orderkey")
            .aggregate([("sum_qty", "sum")])
        )
        return g.rename_columns(["o_orderkey", "sum_qty"])

    # bucketed aggregate instead of a 1-group-per-order sort: each bucket
    # is summed + HAVING-filtered by one vectorized pandas groupby
    # (measured 5.9s → 2.4s at sf0.1 over groupby(o_orderkey).aggregate)
    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("o_orderkey", as_index=False)["sum_qty"].sum()
        s = s[s["sum_qty"] > int(min_qty)]
        return s.astype({"o_orderkey": "int64", "sum_qty": "int64"})

    survivors = bucketed(
        li.map_batches(partial, batch_format="pyarrow"), "o_orderkey",
        reduce_bucket, n_rows=_meta_rows(sf_dir, "orders"),
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return join_keyed(orders, survivors, on="o_orderkey")


LARGE_ORDERS_HAVING_SQL = """
SELECT o_orderkey, o_custkey, sum_qty
FROM orders
JOIN (SELECT l_orderkey,
             CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty
      FROM lineitem GROUP BY l_orderkey
      HAVING sum(CAST(round(l_quantity) AS BIGINT)) > 200) q
  ON q.l_orderkey = o_orderkey
"""


def brand_supplier_distinct(sf_dir: str):
    """TPC-H Q16 shape: COUNT(DISTINCT supplier) per part brand across a
    join. The part side reduces to a (p_partkey, brand code) table read on
    the driver (sorted int64 keys + int16 codes); lineitem joins it through
    one :func:`stages.joins.join_keyed` inner join, then distinct (brand,
    suppkey) pairs are taken per batch — the only shuffle is the distinct
    groupby over per-batch-deduped pairs (≤ |brands| × |suppliers| rows).
    The per-brand count is partial-per-batch over the distinct pair set —
    the sets themselves never assemble on one node."""
    import pyarrow.parquet as pq

    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    part_t = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_brand"]
    )
    cats = pd.Categorical(part_t["p_brand"].to_pandas())
    brand_names = list(cats.categories)
    codes = pa.array(cats.codes.astype(np.int16))
    # null-brand parts carry Categorical code -1 and never count
    part = pa.table({"p_partkey": part_t["p_partkey"], "bc": codes}).filter(
        pc.greater_equal(codes, 0))

    def pack(t: pa.Table) -> pa.Table:
        # null supp keys never count (COUNT DISTINCT skips NULL)
        t = t.filter(pc.is_valid(t["l_suppkey"]))
        sup = t["l_suppkey"].to_numpy()
        bc = t["bc"].to_numpy().astype(np.int64)
        # per-batch distinct via ONE composite int64 (suppkey is bounded
        # far below 2e9 in any TPC-H-shaped corpus; guarded) — and the
        # composite itself is what shuffles: a single-int64 groupby
        # sorts ~3x faster than a (string, int64) pair
        if len(sup) and sup.max() >= 2_000_000_000:
            raise ValueError("brand_supplier_distinct: l_suppkey ≥ 2e9")
        comp = np.unique(bc * 2_000_000_000 + sup)
        return pa.table({"comp": pa.array(comp, pa.int64())})

    # bucketed distinct over the composite (brand, supplier) keys, sized at
    # 32 keys per supplier, deduped + counted by one vectorized np.unique
    # per bucket — not a 1-group-per-pair sort aggregate
    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        u = np.unique(g["comp"].to_numpy())
        bc, n = np.unique(u // 2_000_000_000, return_counts=True)
        return pd.DataFrame(
            {"bc": bc.astype("int64"), "n_supp": n.astype("int64")}
        )

    agg = (
        bucketed(
            join_keyed(li, part, on=("l_partkey", "p_partkey"))
            .map_batches(pack, batch_format="pyarrow"),
            "comp", reduce_bucket, n_rows=32 * _meta_rows(sf_dir, "supplier"),
        )
        .groupby("bc")
        .aggregate(Sum("n_supp", alias_name="n_supp"))
    )

    def to_names(t: pa.Table) -> pa.Table:
        bc = t["bc"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_brand": pa.array(
                    [brand_names[int(c)] for c in bc], pa.string()
                ),
                "n_supp": t["n_supp"],
            }
        )

    return agg.map_batches(to_names, batch_format="pyarrow")


BRAND_SUPPLIER_DISTINCT_SQL = """
SELECT p_brand, CAST(count(DISTINCT l_suppkey) AS BIGINT) AS n_supp
FROM part JOIN lineitem ON l_partkey = p_partkey
GROUP BY p_brand
"""
