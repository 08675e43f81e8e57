"""Join-family (equi/asof/range joins, window functions) queries — part of the catalog backing __ray_entry__.queries().

Split from the former single-file ``pipelines/queries.py`` (round 4); see
the package ``__init__`` for the full QUERIES/ORACLES catalog contract.
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.pipelines.queries._common import (
    _int_units,
    _meta_rows,
    _pq_schema,
    _read,
    _renamed_schema,
)



# --- joins / windows --------------------------------------------------------


def join_orders_customers(sf_dir: str):
    """Orders joined to their customer through :func:`join_keyed` (the
    customer key is unique, so it is a keyed lookup in either regime)."""
    import pyarrow.parquet as pq

    from schema_guru_ray.stages.joins import join_keyed

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        c = _int_units(t["o_totalprice"].to_numpy(zero_copy_only=False), 100)
        return t.drop_columns(["o_totalprice"]).append_column(
            "price_cents", pa.Array.from_pandas(c)
        )

    orders = orders.map_batches(cents, batch_format="pyarrow")
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_name", "c_mktsegment"])
    out = join_keyed(orders, cust, on=("o_custkey", "c_custkey"), how="inner")
    return out.select_columns(["o_orderkey", "o_custkey", "c_name", "c_mktsegment", "price_cents"])


JOIN_ORDERS_CUSTOMERS_SQL = """
SELECT o_orderkey, o_custkey, c_name, c_mktsegment,
       CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents
FROM orders JOIN customer ON c_custkey = o_custkey
"""


_TYPE_WEIGHTS = {"view": 1, "click": 2, "signup": 3, "purchase": 4, "error": 5}


def skew_salted_type_join(sf_dir: str):
    """Hot-key SKEW regime end-to-end: events joined to a 5-row weight dim
    on ``event_type`` — every key holds ~20% of the table, the textbook
    case where a plain bucketed hash join materializes 1/5th of the corpus
    in one pandas group. ``hot_key_threshold=100`` engages the
    Misra-Gries probe + per-key salting (spread events, replicate the
    dim row) at EVERY test scale (sf0.001's ~200 rows/type upward), so
    both the pytest parity gate and the driver's oracle comparison run
    through the salted path. Oracle: plain SQL join against VALUES."""
    import ray.data as rd

    from schema_guru_ray.stages.joins import bucketed_hash_join

    events = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def milli(t: pa.Table) -> pa.Table:
        v = _int_units(t["value"].to_numpy(zero_copy_only=False), 1000)
        return t.drop_columns(["value"]).append_column(
            "value_milli", pa.Array.from_pandas(v)
        )

    events = events.map_batches(milli, batch_format="pyarrow")
    dim = rd.from_pandas(
        pd.DataFrame(
            {"event_type": list(_TYPE_WEIGHTS), "type_weight": list(_TYPE_WEIGHTS.values())}
        ).astype({"type_weight": "int64"})
    )
    out = bucketed_hash_join(
        events, dim, on="event_type", hot_key_threshold=100,
        left_schema=pa.schema(
            [("event_id", pa.int64()), ("event_type", pa.string()),
             ("value_milli", pa.int64())]
        ),
    )
    return out.select_columns(["event_id", "event_type", "value_milli", "type_weight"])


SKEW_SALTED_TYPE_JOIN_SQL = """
SELECT event_id, event_type,
       CAST(round(value * 1000) AS BIGINT) AS value_milli, type_weight
FROM events
JOIN (VALUES ('view', CAST(1 AS BIGINT)), ('click', 2), ('signup', 3),
             ('purchase', 4), ('error', 5)) AS w(event_type, type_weight)
USING (event_type)
"""


def asof_latest_order_before_event(sf_dir: str):
    """As-of join: for each event, the latest order of the same key placed
    at or before the event time (bucketed pd.merge_asof; DuckDB ASOF JOIN
    oracle with a max-orderkey dedupe CTE; the Ray side achieves the same
    tie semantics via the in-bucket secondary sort — no extra shuffle)."""
    from schema_guru_ray.stages.joins import asof_join

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    # row counts BEFORE the rename: count() on a bare parquet read is a
    # metadata lookup; after a Project it would execute the read
    n_rows = events.count() + _read(sf_dir, "orders", ["o_orderkey"]).count()
    # no dedupe shuffle needed: asof_join's in-bucket secondary sort makes
    # merge_asof pick the max o_orderkey among equal (key, date) rows,
    # matching the oracle's max() dedupe CTE
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).rename_columns(
        {"o_custkey": "user_id"}
    )
    out = asof_join(
        events, orders, key="user_id", left_ts="ts", right_ts="o_orderdate",
        right_columns=["o_orderkey"], n_rows=n_rows,
        left_schema=_pq_schema(sf_dir, "events", ["event_id", "user_id", "ts"]),
        right_schema=_renamed_schema(
            _pq_schema(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
            {"o_custkey": "user_id"},
        ),
    )
    # lazy projection — select_columns would fetch the schema and execute
    # the whole bucketed shuffle an extra time
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "o_orderkey"]),
        batch_format="pyarrow",
    )


ASOF_LATEST_ORDER_SQL = """
WITH orders_d AS (
  SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
  FROM orders GROUP BY o_custkey, o_orderdate
)
SELECT e.event_id, e.user_id, o.o_orderkey
FROM events e ASOF JOIN orders_d o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
"""


def asof_orders_bounded(sf_dir: str):
    """Bounded as-of (interval) join: the latest order of the same user no
    more than 8,500 days before the event — merge_asof tolerance, the
    range-join primitive. (The synthetic events sit ~8,200-9,800 days
    after the TPC-H order dates, so this bound meaningfully splits the
    matches.) Same bucketed topology as the unbounded as-of."""
    from schema_guru_ray.stages.joins import asof_join

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    n_rows = events.count() + _read(sf_dir, "orders", ["o_orderkey"]).count()
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).rename_columns(
        {"o_custkey": "user_id"}
    )
    out = asof_join(
        events, orders, key="user_id", left_ts="ts", right_ts="o_orderdate",
        right_columns=["o_orderkey"], n_rows=n_rows,
        tolerance_sec=8500 * 86400,
        left_schema=_pq_schema(sf_dir, "events", ["event_id", "user_id", "ts"]),
        right_schema=_renamed_schema(
            _pq_schema(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
            {"o_custkey": "user_id"},
        ),
    )
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "o_orderkey"]),
        batch_format="pyarrow",
    )


ASOF_ORDERS_BOUNDED_SQL = """
WITH orders_d AS (
  SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
  FROM orders GROUP BY o_custkey, o_orderdate
)
SELECT e.event_id, e.user_id, o.o_orderkey
FROM events e ASOF JOIN orders_d o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
WHERE e.ts - o.o_orderdate <= INTERVAL 8500 DAY
"""


def range_join_clicks_after_signup(sf_dir: str):
    """General interval/range join (stages/joins.range_join): for every
    signup event, the number of click events inside the hour that follows
    it ([ts, ts + 1h], inclusive BETWEEN). Range-partitioned by the click
    timestamp domain — each click lands in one bucket, each 1-hour signup
    window replicates to the 1-2 buckets it overlaps — then a vectorized
    searchsorted sweep per bucket. Signups with zero clicks are kept
    (count 0) by a :func:`stages.joins.join_keyed` LEFT join of the signup
    ids against the per-signup count side, zero-filled on a miss."""
    from schema_guru_ray.stages.joins import (
        bucketed, join_keyed, range_join,
    )

    events = _read(sf_dir, "events", ["event_id", "ts", "event_type"])

    def _only(kind):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["event_type"], kind)).select(
                ["event_id", "ts"]
            )

        return fn

    clicks = events.map_batches(_only("click"), batch_format="pyarrow")
    signups = events.map_batches(_only("signup"), batch_format="pyarrow")

    def to_interval(t: pa.Table) -> pa.Table:
        ts = t["ts"].combine_chunks().cast(pa.timestamp("us"))
        hi = pc.add(ts, pa.scalar(3_600_000_000, pa.duration("us")))
        return pa.table({"event_id": t["event_id"], "lo": ts, "hi": hi})

    intervals = signups.map_batches(to_interval, batch_format="pyarrow")
    # schema hints: both sides are filter-derived, so an empty shard-day
    # (zero clicks or zero signups) reports schema() = None — the hints
    # keep the join typed instead of crashing
    ts_t = pa.timestamp("us")
    pairs = range_join(
        clicks, intervals, point_col="ts", lo_col="lo", hi_col="hi",
        point_columns=["event_id", "ts"],
        interval_columns=["event_id", "lo", "hi"],
        points_schema=pa.schema([("event_id", pa.int64()), ("ts", ts_t)]),
        intervals_schema=pa.schema(
            [("event_id", pa.int64()), ("lo", ts_t), ("hi", ts_t)]
        ),
        # clicks + signups ≤ all events: footer row count sizes the buckets
        # without executing either filtered side's count()
        n_rows=_meta_rows(sf_dir, "events"),
    )
    # per-signup click counts: per-batch Arrow partials, then one vectorized
    # pandas sum per bucket — never one sort-aggregate group per signup id
    def per_signup(t: pa.Table) -> pa.Table:
        g = t.select(["event_id"]).group_by("event_id").aggregate(
            [("event_id", "count", pc.CountOptions(mode="all"))]
        )
        return g.rename_columns(["event_id", "n_clicks"])

    def sum_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("event_id", as_index=False)["n_clicks"].sum()
        return s.astype({"event_id": "int64", "n_clicks": "int64"})

    counts = bucketed(
        pairs.map_batches(per_signup, batch_format="pyarrow"), "event_id",
        sum_bucket, n_rows=_meta_rows(sf_dir, "events"),
    ).materialize()  # ≤ one row per signup that saw a click
    if counts.schema() is None:  # no clicks at all: an empty, typed count side
        counts = pa.schema(
            [("event_id", pa.int64()), ("n_clicks", pa.int64())]
        ).empty_table()
    out = join_keyed(signups.select_columns(["event_id"]), counts,
                     on="event_id", how="left")

    def zfill(t: pa.Table) -> pa.Table:
        n = pc.fill_null(t["n_clicks"], 0).cast(pa.int64())
        return pa.table({"event_id": t["event_id"], "n_clicks": n})

    return out.map_batches(zfill, batch_format="pyarrow")


RANGE_JOIN_CLICKS_SQL = """
SELECT s.event_id AS event_id, count(c.event_id) AS n_clicks
FROM events s LEFT JOIN events c
  ON c.event_type = 'click' AND c.ts >= s.ts AND c.ts <= s.ts + INTERVAL 1 HOUR
WHERE s.event_type = 'signup'
GROUP BY s.event_id
ORDER BY event_id
"""


def top_orders_per_customer(sf_dir: str, k: int = 3):
    """Per-group top-k without a global sort: each customer's 3 highest
    orders by price (ties by orderkey). Distributed as per-batch local
    top-k + a groupby merge over the tiny survivors."""
    from schema_guru_ray.stages.joins import grouped_topk

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    out = grouped_topk(
        orders, "o_custkey", "o_totalprice", k,
        descending=True, tie_col="o_orderkey", rank_alias="rk",
    )

    def cents(b: pd.DataFrame) -> pd.DataFrame:
        # a null price cannot be ranked by value — excluded (SQL ORDER BY
        # would sort it NULLS LAST past any k anyway; none in the corpora)
        b = b.dropna(subset=["o_totalprice"])
        return pd.DataFrame(
            {
                "o_custkey": b["o_custkey"].astype("int64"),
                "o_orderkey": b["o_orderkey"].astype("int64"),
                "price_cents": _int_units(
                    b["o_totalprice"].to_numpy(), 100
                ).astype("int64").to_numpy(),
                "rk": b["rk"].astype("int64"),
            }
        )

    return out.map_batches(cents, batch_format="pandas")


TOP_ORDERS_PER_CUSTOMER_SQL = """
SELECT o_custkey, o_orderkey,
       CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
       CAST(row_number() OVER (
           PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey
       ) AS BIGINT) AS rk
FROM orders
QUALIFY rk <= 3
"""


def window_functions_orders(sf_dir: str):
    """Analytic window functions over orders — running revenue, row number,
    and days-since-previous-order per customer, ordered by
    (o_orderdate, o_orderkey). One ``partitioned_window`` pass covers the
    SQL ``SUM() OVER``, ``row_number()`` and ``lag()`` family: hash-bucket
    by customer, one vectorized sort + groupby-transform per coarse bucket
    (no global sort, no per-key dispatch). ``gap_days`` uses -1 for the
    first order (instead of NULL) so the integer column stays non-nullable
    end-to-end."""
    from schema_guru_ray.stages.joins import partitioned_window

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    )

    def analytics(g: pd.DataFrame) -> pd.DataFrame:
        # g arrives sorted by (o_custkey, o_orderdate, o_orderkey), stable.
        # A NULL price contributes nothing to the running sum (SQL sum OVER
        # skips NULLs — identical to adding 0); the row itself stays ranked.
        cents = _int_units(g["o_totalprice"].to_numpy(), 100).fillna(0).astype("int64")
        grp_key = g["o_custkey"].to_numpy()
        grp = pd.Series(cents.to_numpy(), index=g.index).groupby(grp_key, sort=False)
        by_cust = g.groupby("o_custkey", sort=False)
        prev_date = by_cust["o_orderdate"].shift(1)
        gap = (g["o_orderdate"] - prev_date).dt.days
        return pd.DataFrame(
            {
                "o_custkey": g["o_custkey"].astype("int64"),
                "o_orderkey": g["o_orderkey"].astype("int64"),
                "run_cents": grp.cumsum().astype("int64"),
                "rn": (by_cust.cumcount() + 1).astype("int64"),
                "gap_days": gap.fillna(-1).astype("int64"),
            }
        )

    return partitioned_window(
        orders, "o_custkey", ["o_orderdate", "o_orderkey"], analytics
    )


WINDOW_FUNCTIONS_ORDERS_SQL = """
SELECT o_custkey, o_orderkey,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) OVER w AS BIGINT)
           AS run_cents,
       CAST(row_number() OVER w AS BIGINT) AS rn,
       CAST(coalesce(
           date_diff('day', lag(o_orderdate) OVER w, o_orderdate), -1
       ) AS BIGINT) AS gap_days
FROM orders
WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
"""


def left_join_customer_orders(sf_dir: str):
    """LEFT OUTER join through the bucketed hash join: every customer with
    their order count + revenue, customers WITHOUT orders kept with zero
    fill. The right side is pre-aggregated (per-batch partials → groupby
    Sum) before the join, so the exchange moves one row per customer, not
    per order; the null-fill happens post-join in a vectorized map, keeping
    the output non-nullable int64 end-to-end."""
    from schema_guru_ray.stages.joins import bucketed_aggregate, bucketed_hash_join

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        # pure Arrow, and the blocks STAY Arrow into the groupby: Ray's
        # sort shuffle handles pandas blocks via a slow path — the same
        # aggregate measured 19.3 s on pandas partials vs 3.3 s on Arrow
        # partials at sf0.1 (round-4 full-catalog bench root cause).
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(t["o_totalprice"], 100.0), 0.5)),
            pa.int64(),
        )
        tt = pa.table({"c_custkey": t["o_custkey"], "cents": cents})
        g = tt.group_by("c_custkey").aggregate(
            [("cents", "sum"), ("cents", "count", pc.CountOptions(mode="all"))]
        )
        return g.rename_columns(["c_custkey", "cents", "n"])

    # c_custkey is a groups≈rows key (one group per customer): the native
    # groupby-aggregate pays per-group reduce overhead (interleaved A/B at
    # sf0.1/32cpus: 6.35 s native vs 2.50 s bucketed, identical sums) —
    # route through the coarse-bucket vectorized fold instead.
    per_cust = bucketed_aggregate(
        orders.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "c_custkey", {"n": ("n", "sum"), "cents": ("cents", "sum")},
        n_rows=_meta_rows(sf_dir, "orders"),
    ).materialize()  # small aggregate; the join's bucket-count derivation
    # calls .count() on both sides — without this the whole aggregate
    # pipeline would execute twice (measured 10.6s → 3.5s at sf0.01)
    joined = bucketed_hash_join(
        cust, per_cust, on="c_custkey", join_type="left",
        # per_cust is groupby-derived: on an empty shard its schema() is
        # None — the hint keeps the left join typed (all customers, zero
        # fill) instead of crashing
        right_schema=pa.schema(
            [("c_custkey", pa.int64()), ("n", pa.int64()), ("cents", pa.int64())]
        ),
    )

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_custkey": b["c_custkey"].astype("int64"),
                "n_orders": b["n"].fillna(0).astype("int64"),
                "revenue_cents": b["cents"].fillna(0).astype("int64"),
            }
        )

    return joined.map_batches(fill, batch_format="pandas")


LEFT_JOIN_CUSTOMER_ORDERS_SQL = """
SELECT c.c_custkey,
       CAST(coalesce(o.n, 0) AS BIGINT) AS n_orders,
       CAST(coalesce(o.cents, 0) AS BIGINT) AS revenue_cents
FROM customer c
LEFT JOIN (
    SELECT o_custkey, count(*) AS n,
           sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
    FROM orders GROUP BY 1
) o ON c.c_custkey = o.o_custkey
"""
