"""Events-table (sessionize, windows, funnel, cohort, splits) queries — part of the catalog backing __ray_entry__.queries().

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
from schema_guru_ray.pipelines.queries._common import (
    _int_units,
    _meta_rows,
    _pa,
    _pandas_cols,
    _read,
)



def value_drift_events(sf_dir: str):
    """EXACT distribution-drift scores, oracle-checkable: split ``events``
    at the midpoint of its time range (baseline = first half, current =
    second half) and score how the ``value`` distribution shifted —
    PSI over 10 equal-width bins spanning the BASELINE's [min, max]
    (clamped, epsilon 1e-6) and a binned two-sample KS statistic over 256
    bins. Companion to the sketch-based ``sketches/drift.py`` path the
    clips pipeline uses (reference semantics: schema-guru derives
    per-column range annotations, `SchemaGuru.scala:50-63`; drift scoring
    is our 100-TB extension): this variant trades the mergeable-sketch
    flexibility for bit-exact reproducibility, so DuckDB can replay it.

    Scale shape: three pruned 2-column passes — (1) global ts min/max,
    (2) baseline value min/max, (3) per-batch integer histograms — each
    reducing through a partial aggregate; only O(bins) integer counts ever
    reach the driver, and all float math happens on ≤266 bin counts with a
    fixed operation order mirrored in the SQL (micro-unit rounding absorbs
    the last-ulp summation noise).
    """
    from ray.data.aggregate import Sum

    PSI_BINS, KS_BINS = 10, 256

    def ts_range(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        return pa.table({"lo": [pc.min(us).as_py()], "hi": [pc.max(us).as_py()]})

    rng = _pandas_cols(
        _read(sf_dir, "events", ["ts"]).map_batches(
            ts_range, batch_format="pyarrow"
        ),
        ["lo", "hi"], {"lo": "int64", "hi": "int64"},
    )  # two int64s per batch
    if rng.empty:  # empty shard: no time range, zero drift by definition
        return pd.DataFrame({
            "n_base": pd.Series([0], dtype="int64"),
            "n_cur": pd.Series([0], dtype="int64"),
            "psi_micro": pd.Series([0], dtype="int64"),
            "ks_micro": pd.Series([0], dtype="int64"),
        })
    lo, hi = int(rng["lo"].min()), int(rng["hi"].max())
    mid = lo + (hi - lo) // 2

    def base_vrange(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        v = pc.filter(t["value"], pc.and_(pc.less(us, mid), pc.is_valid(t["value"])))
        if len(v) == 0:
            return pa.table({"vlo": pa.array([], pa.float64()),
                             "vhi": pa.array([], pa.float64())})
        return pa.table({"vlo": [pc.min(v).as_py()], "vhi": [pc.max(v).as_py()]})

    vr = _pandas_cols(
        _read(sf_dir, "events", ["ts", "value"]).map_batches(
            base_vrange, batch_format="pyarrow"
        ),
        ["vlo", "vhi"], {"vlo": "float64", "vhi": "float64"},
    )
    vlo, vhi = float(vr["vlo"].min()), float(vr["vhi"].max())
    if not np.isfinite(vlo):  # no non-null baseline values: degenerate span
        vlo, vhi = 0.0, 0.0
    span = vhi - vlo

    def hist(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        v = t["value"].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(v)
        us, v = us[ok], v[ok]
        pop = (us >= mid).astype(np.int64)
        kinds, pops, bins, ns = [], [], [], []
        for nb, kind in ((PSI_BINS, "psi"), (KS_BINS, "ks")):
            if span > 0:
                # same op order as the SQL: (v - vlo) * nb, then / span
                b = np.clip(np.floor((v - vlo) * float(nb) / span), 0, nb - 1)
                b = b.astype(np.int64)
            else:
                b = np.zeros(len(v), dtype=np.int64)
            for p in (0, 1):
                cnt = np.bincount(b[pop == p], minlength=nb)
                kinds.extend([kind] * nb)
                pops.extend([p] * nb)
                bins.extend(range(nb))
                ns.extend(cnt.tolist())
        return pa.table({"kind": pa.array(kinds, pa.string()),
                         "pop": pa.array(pops, pa.int64()),
                         "bin": pa.array(bins, pa.int64()),
                         "n": pa.array(ns, pa.int64())})

    counts = (
        _read(sf_dir, "events", ["ts", "value"])
        .map_batches(hist, batch_format="pyarrow", batch_size=65536)
        .groupby(["kind", "pop", "bin"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # <= 2*(10+256) integer rows
    )

    def vec(kind: str, p: int, nb: int) -> np.ndarray:
        sub = counts[(counts["kind"] == kind) & (counts["pop"] == p)]
        out = np.zeros(nb, dtype=np.int64)
        out[sub["bin"].to_numpy()] = sub["n"].to_numpy()
        return out

    cb10, cc10 = vec("psi", 0, PSI_BINS), vec("psi", 1, PSI_BINS)
    n_base, n_cur = int(cb10.sum()), int(cc10.sum())
    if n_base == 0 or n_cur == 0:
        # one half of the split has no valid values — drift is undefined;
        # report 0 rather than dividing by an empty population
        return pd.DataFrame({
            "n_base": pd.Series([n_base], dtype="int64"),
            "n_cur": pd.Series([n_cur], dtype="int64"),
            "psi_micro": pd.Series([0], dtype="int64"),
            "ks_micro": pd.Series([0], dtype="int64"),
        })
    psi = 0.0
    for i in range(PSI_BINS):  # fixed ascending order, 10 terms
        p = max(float(cb10[i]) / n_base, 1e-6)
        q = max(float(cc10[i]) / n_cur, 1e-6)
        psi += (p - q) * float(np.log(p / q))
    cb = np.cumsum(vec("ks", 0, KS_BINS))  # exact int cumsums
    cc = np.cumsum(vec("ks", 1, KS_BINS))
    ks = float(np.max(np.abs(cb.astype(np.float64) / n_base
                             - cc.astype(np.float64) / n_cur)))
    return pd.DataFrame({
        "n_base": pd.Series([n_base], dtype="int64"),
        "n_cur": pd.Series([n_cur], dtype="int64"),
        "psi_micro": pd.Series([int(round(psi * 1e6))], dtype="int64"),
        "ks_micro": pd.Series([int(round(ks * 1e6))], dtype="int64"),
    })


VALUE_DRIFT_EVENTS_SQL = """
WITH tr AS (SELECT min(epoch_us(ts)) AS lo, max(epoch_us(ts)) AS hi FROM events),
mid AS (SELECT lo + (hi - lo) // 2 AS m FROM tr),
pts AS (
  SELECT value, CASE WHEN epoch_us(ts) < (SELECT m FROM mid) THEN 0 ELSE 1 END AS pop
  FROM events WHERE value IS NOT NULL AND NOT isnan(value)
),
vr AS (SELECT min(value) AS vlo, max(value) AS vhi FROM pts WHERE pop = 0),
tot AS (
  SELECT sum(CASE WHEN pop = 0 THEN 1 ELSE 0 END) AS n_base,
         sum(CASE WHEN pop = 1 THEN 1 ELSE 0 END) AS n_cur
  FROM pts
),
b10 AS (
  SELECT pop,
         CAST(least(greatest(floor((value - vlo) * 10.0 / (vhi - vlo)), 0), 9) AS BIGINT) AS bin,
         count(*) AS n
  FROM pts, vr GROUP BY 1, 2
),
g10 AS (
  SELECT s.bin,
         coalesce(b.n0, 0) AS nb, coalesce(b.n1, 0) AS nc
  FROM (SELECT range AS bin FROM range(10)) s
  LEFT JOIN (SELECT bin,
                    sum(CASE WHEN pop = 0 THEN n ELSE 0 END) AS n0,
                    sum(CASE WHEN pop = 1 THEN n ELSE 0 END) AS n1
             FROM b10 GROUP BY bin) b USING (bin)
),
psi AS (
  SELECT sum((p - q) * ln(p / q)) AS v FROM (
    SELECT greatest(CAST(nb AS DOUBLE) / (SELECT n_base FROM tot), 1e-6) AS p,
           greatest(CAST(nc AS DOUBLE) / (SELECT n_cur FROM tot), 1e-6) AS q
    FROM g10)
),
b256 AS (
  SELECT pop,
         CAST(least(greatest(floor((value - vlo) * 256.0 / (vhi - vlo)), 0), 255) AS BIGINT) AS bin,
         count(*) AS n
  FROM pts, vr GROUP BY 1, 2
),
g256 AS (
  SELECT s.bin,
         coalesce(b.n0, 0) AS nb, coalesce(b.n1, 0) AS nc
  FROM (SELECT range AS bin FROM range(256)) s
  LEFT JOIN (SELECT bin,
                    sum(CASE WHEN pop = 0 THEN n ELSE 0 END) AS n0,
                    sum(CASE WHEN pop = 1 THEN n ELSE 0 END) AS n1
             FROM b256 GROUP BY bin) b USING (bin)
),
ks AS (
  SELECT max(abs(CAST(cb AS DOUBLE) / (SELECT n_base FROM tot)
               - CAST(cc AS DOUBLE) / (SELECT n_cur FROM tot))) AS v
  FROM (SELECT sum(nb) OVER (ORDER BY bin) AS cb,
               sum(nc) OVER (ORDER BY bin) AS cc
        FROM g256)
)
SELECT CAST((SELECT n_base FROM tot) AS BIGINT) AS n_base,
       CAST((SELECT n_cur FROM tot) AS BIGINT) AS n_cur,
       CAST(round((SELECT v FROM psi) * 1e6) AS BIGINT) AS psi_micro,
       CAST(round((SELECT v FROM ks) * 1e6) AS BIGINT) AS ks_micro
"""


def approx_distinct_users_events(sf_dir: str):
    """Per-group HLL distinct VERIFIED in-run against the exact distinct
    computed in the same job (north-star: HLL sketches for clip_id
    uniqueness; this is the oracle-checkable table twin). Output carries
    the exact per-event-type user count plus ``hll_within_5pct`` — the SQL
    oracle emits literal TRUE, so a hash match PROVES the measured HLL
    error bound held, the same in-run-measurement discipline as the IVF
    recall check.

    Scale shape: the HLL side ships one p=12 sketch (4 KB) per
    (batch × group) into a 5-group merge; the exact side is the
    bucketed nunique pattern from :func:`distinct_counts` — a user's
    duplicates co-locate in one bucket, per-bucket vectorized per-type
    nunique, only scalar rows reach the driver."""
    from schema_guru_ray.sketches.hll import HLL
    from schema_guru_ray.stages.joins import bucketed
    from schema_guru_ray.stages.profile import stable_hash64
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def sketch_partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = [
            (et, HLL(12).add_hashes(stable_hash64(g["user_id"])).to_bytes())
            for et, g in df.groupby("event_type", sort=False)
        ]
        return pd.DataFrame({"event_type": [r[0] for r in rows],
                             "sketch": [r[1] for r in rows]})

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        h = HLL.from_bytes(g["sketch"].iloc[0])
        for buf in g["sketch"].iloc[1:]:
            h = h.merge(HLL.from_bytes(buf))
        return pd.DataFrame({"event_type": [g["event_type"].iloc[0]],
                             "n_hll": [float(h.estimate())]})

    hll_df = _pandas_cols(
        ds.map_batches(sketch_partial, batch_format="pandas", batch_size=65536)
        .groupby("event_type")
        .map_groups(merge_group, batch_format="pandas"),
        ["event_type", "n_hll"], {"n_hll": "float64"},
    )  # one row per event type

    def exact_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    def shard_counts(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("event_type", sort=False)["user_id"].nunique()
        return pd.DataFrame({"event_type": c.index, "n": c.to_numpy(dtype=np.int64)})

    exact_df = _pandas_cols(
        bucketed(
            ds.map_batches(exact_partial, batch_format="pandas", batch_size=131072),
            "user_id", shard_counts, n_rows=_meta_rows(sf_dir, "events"),
        )
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n_users")),
        ["event_type", "n_users"], {"n_users": "int64"},
    )

    out = exact_df.merge(hll_df, on="event_type")
    within = (np.abs(out["n_hll"] - out["n_users"]) <= 0.05 * out["n_users"])
    return pd.DataFrame({
        "event_type": out["event_type"],
        "n_users": out["n_users"].astype("int64"),
        "hll_within_5pct": within.astype(bool),
    })


APPROX_DISTINCT_USERS_EVENTS_SQL = """
SELECT event_type,
       count(DISTINCT user_id) AS n_users,
       true AS hll_within_5pct
FROM events
GROUP BY event_type
"""


def pivot_events_daily(sf_dir: str):
    """Pivot (long → wide): daily event counts with one column per event
    type. The category set is DISCOVERED from the data (a tiny distinct
    pass over the pre-aggregated partials), so the operator generalizes
    beyond a hard-coded column list; the count matrix itself moves as
    per-batch (day × type) partial rows through one groupby shuffle, and
    only the final O(days × types) aggregate is laid out wide."""
    from ray.data.aggregate import Sum

    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "day": pc.divide(pc.cast(t["ts"], pa.int64()), DAY_US),
            "event_type": t["event_type"],
        })
        g = tt.group_by(["day", "event_type"]).aggregate(
            [("event_type", "count", pc.CountOptions(mode="all"))]
        )
        return g.rename_columns(["day", "event_type", "n"])

    agg = _pandas_cols(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["day", "event_type"])
        .aggregate(Sum("n", alias_name="n")),
        ["day", "event_type", "n"], {"day": "int64", "n": "int64"},
    )  # O(days x types)
    if agg.empty:  # empty shard: no days, no discovered type columns
        return pd.DataFrame({"day": pd.Series(dtype="int64")})
    wide = agg.pivot_table(index="day", columns="event_type", values="n",
                           fill_value=0, aggfunc="sum")
    wide = wide[sorted(wide.columns)].astype("int64")
    wide.columns = [f"n_{c}" for c in wide.columns]
    return wide.reset_index().astype({"day": "int64"})


PIVOT_EVENTS_DAILY_SQL = """
SELECT epoch_us(ts) // 86400000000 AS day,
       CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
       CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
       CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
       CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view
FROM events
GROUP BY 1
"""


def grouped_stats_events(sf_dir: str):
    """Grouped stats with the two-level pattern on a skewed-ish key."""
    ds = _read(sf_dir, "events", ["event_type", "value", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        # pure-Arrow partial (C++ group_by; arrow sum skips nulls like SQL,
        # count mode="all" matches count(*))
        milli = pc.cast(
            pc.floor(pc.add(pc.multiply(t["value"], 1000.0), 0.5)), pa.int64()
        )
        tt = pa.table(
            {"event_type": t["event_type"], "value_milli": milli, "ts": t["ts"]}
        )
        g = tt.group_by("event_type").aggregate(
            [
                ("value_milli", "count", pc.CountOptions(mode="all")),
                ("value_milli", "sum"),
                ("ts", "min"),
                ("ts", "max"),
            ]
        )
        return g.rename_columns(
            ["event_type", "n", "sum_value_milli", "min_ts", "max_ts"]
        )

    from ray.data.aggregate import Max, Min, Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_value_milli", alias_name="sum_value_milli"),
            Min("min_ts", alias_name="min_ts"),
            Max("max_ts", alias_name="max_ts"),
        )
    )


GROUPED_STATS_EVENTS_SQL = """
SELECT event_type,
       count(*) AS n,
       CAST(sum(CAST(round(value * 1000) AS BIGINT)) AS BIGINT) AS sum_value_milli,
       min(ts) AS min_ts,
       max(ts) AS max_ts
FROM events
GROUP BY event_type
"""


def sessionize_events(sf_dir: str, gap_sec: int = 1800):
    """Stream-shaped op: per-user session count with a 30-min gap rule.

    Users go through one :func:`stages.joins.bucketed` shuffle instead of
    one Python map_groups call per user; inside a bucket the whole
    computation is a vectorized pandas sort + shift — session starts are
    rows where the user changes or the in-user gap exceeds the
    threshold."""
    from schema_guru_ray.stages.joins import bucketed

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def sessions_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="stable")
        # a bucket holding a NULL user_id has it as a nullable Int64,
        # whose first shift() compares as NA, not True
        new_user = g["user_id"].ne(g["user_id"].shift()).fillna(True)
        gap = g["ts"].diff().dt.total_seconds() > gap_sec
        starts = new_user | (gap & ~new_user)
        out = starts.groupby(g["user_id"], sort=False).sum()
        return pd.DataFrame(
            {"user_id": out.index.to_numpy(), "n_sessions": out.to_numpy().astype("int64")}
        )

    return bucketed(ds, "user_id", sessions_bucket,
                    n_rows=_meta_rows(sf_dir, "events"))


SESSIONIZE_EVENTS_SQL = """
WITH d AS (
  SELECT user_id, ts, lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev_ts
  FROM events
)
SELECT user_id,
       CAST(sum(CASE WHEN prev_ts IS NULL OR epoch(ts - prev_ts) > 1800 THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
FROM d GROUP BY user_id
"""


def groupwise_dev_events(sf_dir: str):
    """Group-wise normalization with INTEGER-exact arithmetic: per event
    row, its deviation from the group mean scaled by the group size —
    ``dev_n_milli = n_g * value_milli - sum_g_milli`` (the z-score
    numerator times n, exact in int64, so no float mean ever enters the
    comparison). Two-phase broadcast pattern: the per-group (n, sum) table
    is a tiny aggregate shipped once via ``ray.put``; the normalization
    pass is a shuffle-free map — the standard alternative to a window
    shuffle when the group-stat side is small."""
    import ray
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def partial(t: pa.Table) -> pd.DataFrame:
        t = t.filter(pc.is_valid(t["value"]))  # SQL: sum/avg ignore NULLs
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_pylist(),
                "v": np.floor(
                    t["value"].to_numpy(zero_copy_only=False) * 1000 + 0.5
                ).astype(np.int64),
                "n": 1,
            }
        )
        return df.groupby("event_type", as_index=False).agg(
            n=("n", "sum"), s=("v", "sum")
        )

    stats = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
        .to_pandas()
    )
    ref = ray.put(
        {r["event_type"]: (int(r["n"]), int(r["s"])) for _, r in stats.iterrows()}
    )

    def dev(t: pa.Table) -> pd.DataFrame:
        table = ray.get(ref)
        # a null value has a NULL deviation in SQL — excluded (every
        # surviving row's type therefore has a stats entry)
        t = t.filter(pc.is_valid(t["value"]))
        et = t["event_type"].to_pylist()
        v = np.floor(t["value"].to_numpy(zero_copy_only=False) * 1000 + 0.5).astype(
            np.int64
        )
        n = np.array([table.get(e, (0, 0))[0] for e in et], dtype=np.int64)
        s = np.array([table.get(e, (0, 0))[1] for e in et], dtype=np.int64)
        return pd.DataFrame(
            {
                "event_id": t["event_id"].to_numpy(),
                "dev_n_milli": n * v - s,
            }
        )

    return ds.map_batches(dev, batch_format="pyarrow")


GROUPWISE_DEV_EVENTS_SQL = """
SELECT event_id,
       CAST(count(*) OVER w * CAST(round(value * 1000) AS BIGINT)
            - sum(CAST(round(value * 1000) AS BIGINT)) OVER w AS BIGINT)
           AS dev_n_milli
FROM events
WINDOW w AS (PARTITION BY event_type)
"""


def stratified_cap_events(sf_dir: str, cap: int = 50):
    """Per-event-type cap: keep at most 50 events per type, chosen by
    ascending (md5(event_id), event_id) — the 'max N docs per domain'
    curation rule, exactly SQL-replayable. Distributed per-group top-k:
    per-batch local caps, then a stratum groupby over the survivors."""
    from schema_guru_ray.stages.sample import stratified_cap

    ds = _read(sf_dir, "events", ["event_id", "event_type"])
    out = stratified_cap(ds, "event_type", "event_id", cap, rank_alias="rk")
    return out.map_batches(
        lambda b: b.astype({"event_id": "int64", "rk": "int64"}),
        batch_format="pandas",
    )


STRATIFIED_CAP_EVENTS_SQL = """
SELECT event_id, event_type,
       CAST(row_number() OVER (
           PARTITION BY event_type
           ORDER BY md5(CAST(event_id AS VARCHAR)), event_id
       ) AS BIGINT) AS rk
FROM events
QUALIFY rk <= 50
"""


def windowed_events_daily(sf_dir: str):
    """Tumbling 1-day event-time windows per event_type (count + integer
    milli sum) — batch semantics over the ordered log."""
    from schema_guru_ray.stages.joins import tumbling_window_agg

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    return tumbling_window_agg(ds, "ts", 86400, ["event_type"], "value")


WINDOWED_EVENTS_DAILY_SQL = """
SELECT event_type,
       to_timestamp(CAST(floor(epoch(ts) / 86400) * 86400 AS BIGINT))::TIMESTAMP AS window_start,
       count(*) AS n,
       CAST(sum(CAST(round(value * 1000) AS BIGINT)) AS BIGINT) AS sum_value_milli
FROM events
GROUP BY 1, 2
"""


def hopping_events_daily_6h(sf_dir: str):
    """Hopping windows: 1-day windows advancing every 6 h (each event in
    exactly 4 windows) per event_type — count + integer-milli sum. The
    expansion is a vectorized repeat; only per-(batch,key,window) partials
    shuffle."""
    from schema_guru_ray.stages.joins import hopping_window_agg

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    return hopping_window_agg(ds, "ts", 86400, 21600, ["event_type"], "value")


HOPPING_EVENTS_DAILY_6H_SQL = """
SELECT event_type,
       to_timestamp(w)::TIMESTAMP AS window_start,
       count(*) AS n,
       CAST(sum(CAST(round(value * 1000) AS BIGINT)) AS BIGINT) AS sum_value_milli
FROM events,
     unnest(generate_series(
         CAST(floor(epoch(ts) / 21600) * 21600 AS BIGINT) - 3 * 21600,
         CAST(floor(epoch(ts) / 21600) * 21600 AS BIGINT),
         21600)) AS t(w)
GROUP BY 1, 2
"""


def users_active_both_halves(sf_dir: str):
    """Set intersection as a distributed flag-aggregate: users with events
    in BOTH halves of the corpus time range. One tiny Min/Max pass fixes
    the integer-microsecond midpoint, then a per-batch pre-aggregate emits
    ≤2 bool flags per (batch, user) and a groupby Max merges them — the
    shuffle moves flag rows, never events, and no distinct-list ever
    forms. Oracle: SQL INTERSECT over the same integer midpoint."""
    from ray.data.aggregate import Max, Min

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    agg = ds.aggregate(Min("ts"), Max("ts"))
    mn = pd.Timestamp(agg["min(ts)"]).value // 1000
    mx = pd.Timestamp(agg["max(ts)"]).value // 1000
    mid = (mn + mx) // 2

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy()
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(),
                "f": (us < mid).astype("int64"),
                "s": (us >= mid).astype("int64"),
            }
        )
        return _pa(
            df.groupby("user_id", as_index=False).agg(f=("f", "max"), s=("s", "max"))
        )

    # user_id is groups≈rows after the per-batch fold — the bucketed
    # vectorized reduce beats the native per-group aggregate (same trap as
    # left_join_customer_orders; BASELINE.md round-5 table)
    from schema_guru_ray.stages.joins import bucketed_aggregate

    both = bucketed_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        "user_id", {"f": ("f", "max"), "s": ("s", "max")},
        n_rows=_meta_rows(sf_dir, "events"),
    )

    def final(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.equal(t["f"], 1), pc.equal(t["s"], 1))
        return pa.table({"user_id": t.filter(keep)["user_id"]})

    return both.map_batches(final, batch_format="pyarrow")


USERS_ACTIVE_BOTH_HALVES_SQL = """
WITH bounds AS (
    SELECT (min(epoch_us(ts)) + max(epoch_us(ts))) // 2 AS mid FROM events
)
SELECT user_id FROM events, bounds WHERE epoch_us(ts) < mid
INTERSECT
SELECT user_id FROM events, bounds WHERE epoch_us(ts) >= mid
"""


def modal_event_type_user(sf_dir: str):
    """Grouped MODE (argmax-by-count) with deterministic tie-breaking: each
    user's most frequent event type; ties go to the lexicographically
    smallest type, matching the oracle's ``row_number() OVER (ORDER BY cnt
    DESC, event_type ASC)``. 100-TB shape: counts are partial-per-batch so
    the ONE shuffle moves (user, type, n) partials — ≤ |event types| rows
    per user per batch — through one :func:`stages.joins.bucketed`
    shuffle on the user (not one pandas dispatch per user: millions of
    users would mean millions of per-group Python calls); inside a bucket
    one vectorized sort + drop_duplicates merges partials and takes every
    user's argmax at once."""
    from schema_guru_ray.stages.joins import bucketed

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        g = (
            t.group_by(["user_id", "event_type"])
            .aggregate([("event_type", "count", pc.CountOptions(mode="all"))])
        )
        return g.rename_columns(["user_id", "event_type", "cnt"])

    def bucket_pick(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["user_id", "event_type"], as_index=False)["cnt"].sum()
        m = m.sort_values(
            ["user_id", "cnt", "event_type"], ascending=[True, False, True]
        )
        top = m.drop_duplicates("user_id", keep="first")
        return pd.DataFrame(
            {
                "user_id": top["user_id"].astype("int64"),
                "modal_type": top["event_type"],
                "cnt": top["cnt"].astype("int64"),
            }
        )

    return bucketed(ds.map_batches(partial, batch_format="pyarrow"), "user_id",
                    bucket_pick, n_rows=_meta_rows(sf_dir, "events"))


MODAL_EVENT_TYPE_USER_SQL = """
WITH counts AS (
    SELECT user_id, event_type, count(*) AS cnt
    FROM events GROUP BY user_id, event_type
), ranked AS (
    SELECT user_id, event_type, cnt,
           row_number() OVER (PARTITION BY user_id
                              ORDER BY cnt DESC, event_type ASC) AS rn
    FROM counts
)
SELECT user_id, event_type AS modal_type, CAST(cnt AS BIGINT) AS cnt
FROM ranked WHERE rn = 1
"""


def group_split_events(sf_dir: str):
    """GROUP-preserving train/val/test split — the leakage-safe variant of
    split_assign_documents: membership is a function of md5(user_id), so
    ALL of a user's events land in the same split (no user straddles
    train and test). Pure streaming map, md5 computed once per distinct
    user per batch; the oracle replays the identical hex thresholds."""
    from schema_guru_ray.stages.sample import md5_split_assign

    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        u = b["user_id"].astype("int64")
        uniq = u.unique()
        lab = pd.Series(md5_split_assign(uniq), index=uniq)
        split = u.map(lab).to_numpy()
        return pd.DataFrame(
            {
                "event_id": b["event_id"].astype("int64"),
                "user_id": u,
                "split": split,
            }
        )

    return ds.map_batches(assign, batch_format="pandas")


GROUP_SPLIT_EVENTS_SQL = """
SELECT event_id, user_id,
       CASE WHEN md5(CAST(user_id AS VARCHAR)) < 'c{c31}'
            THEN 'train'
            WHEN md5(CAST(user_id AS VARCHAR)) < 'e{six31}'
            THEN 'val'
            ELSE 'test' END AS split
FROM events
""".replace("{c31}", "c" * 31).replace("{six31}", "6" * 31)


def funnel_conversions_events(sf_dir: str, window_sec: int = 3600):
    """Funnel conversion (the standard product-analytics shape): per user,
    how many 'view' events were followed by at least one 'purchase'
    STRICTLY after the view and within the window. 100-TB shape: the type
    filter is pushed into the parquet read; slim (user, ts, type) rows
    go through ONE :func:`stages.joins.bucketed` shuffle on the user (a
    user's events co-locate); inside
    a bucket one ``pd.merge_asof(direction='forward', by=user,
    tolerance=window, allow_exact_matches=False)`` finds every view's next
    purchase vectorized, then a bucket-local pandas groupby emits the
    per-user counts."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from schema_guru_ray.stages.joins import bucketed

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
        filter=pads.field("event_type").isin(["view", "purchase"]),
    )
    tol = pd.Timedelta(seconds=window_sec)

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        v = g[g["event_type"] == "view"][["user_id", "ts"]].sort_values("ts")
        p = g[g["event_type"] == "purchase"][["user_id", "ts"]].sort_values("ts")
        if v.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "n_views": pd.Series(dtype="int64"),
                    "n_converted": pd.Series(dtype="int64"),
                }
            )
        m = pd.merge_asof(
            v, p.rename(columns={"ts": "p_ts"}), left_on="ts",
            right_on="p_ts", by="user_id", direction="forward",
            tolerance=tol, allow_exact_matches=False,
        )
        out = m.groupby("user_id", as_index=False).agg(
            n_views=("ts", "size"), n_converted=("p_ts", "count")
        )
        return out.astype(
            {"user_id": "int64", "n_views": "int64", "n_converted": "int64"}
        )

    return bucketed(ds, "user_id", funnel_bucket,
                    n_rows=_meta_rows(sf_dir, "events"))


def cohort_retention_events(sf_dir: str):
    """Cohort retention (the other standard product-analytics shape): users
    bucketed by signup DAY (their first 'signup' event), counted as
    retained in each subsequent day offset where they have ANY event.
    Output: (cohort_day, day_offset, n_users).

    Per-batch signup minima fold per user (:func:`stages.joins.
    bucketed_aggregate`) into the user → signup-time side of one
    :func:`stages.joins.join_keyed` inner join that annotates every event;
    distinct (cohort, offset, user) triplets pre-dedupe per batch, and one
    :func:`stages.joins.bucketed` shuffle on the user finishes the exact
    dedup and counts the matrix."""
    from ray.data.aggregate import Sum

    from schema_guru_ray.stages.joins import bucketed, bucketed_aggregate, join_keyed

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def signup_partial(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["event_type"], "signup")
        t = t.filter(mask)
        g = (
            pa.table({"user_id": t["user_id"], "ts": t["ts"]})
            .group_by("user_id")
            .aggregate([("ts", "min")])
        )
        return g.rename_columns(["user_id", "signup_ts"])

    n_events = _meta_rows(sf_dir, "events")
    signups = bucketed_aggregate(
        ds.map_batches(signup_partial, batch_format="pyarrow"), "user_id",
        {"signup_ts": ("signup_ts", "min")}, n_rows=n_events,
    )

    def offsets(t: pa.Table) -> pd.DataFrame:
        u = t["user_id"].to_numpy()
        ev_day = t["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        cohort = (t["signup_ts"].to_numpy().astype("datetime64[D]")
                  .astype(np.int64))
        off = ev_day - cohort
        keep = off >= 0
        # distinct (cohort, offset, user) per batch, then count partial
        trip = np.unique(
            np.stack([cohort[keep], off[keep], u[keep]], axis=1), axis=0
        )
        return pd.DataFrame(
            {"cohort_day": trip[:, 0], "day_offset": trip[:, 1],
             "user_id": trip[:, 2]}
        ).astype("int64")

    def bucket_count(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["cohort_day", "day_offset", "user_id"])
        out = d.groupby(["cohort_day", "day_offset"], as_index=False).agg(
            n_users=("user_id", "size")
        )
        return out.astype("int64")

    # a user's triplets co-locate, so the in-bucket dedup is globally
    # exact — a (cohort, offset, user) sort aggregate would be one reducer
    # group per triplet
    return (
        bucketed(
            join_keyed(ds, signups, on="user_id")
            .map_batches(offsets, batch_format="pyarrow"),
            "user_id", bucket_count, n_rows=n_events,
        )
        .groupby(["cohort_day", "day_offset"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


COHORT_RETENTION_EVENTS_SQL = """
WITH su AS (
    SELECT user_id, CAST(min(ts) AS DATE) AS cohort_date
    FROM events WHERE event_type = 'signup' GROUP BY user_id
),
act AS (
    SELECT DISTINCT
        CAST(datediff('day', DATE '1970-01-01', cohort_date) AS BIGINT)
            AS cohort_day,
        CAST(datediff('day', cohort_date, CAST(e.ts AS DATE)) AS BIGINT)
            AS day_offset,
        e.user_id
    FROM events e JOIN su USING (user_id)
    WHERE CAST(e.ts AS DATE) >= cohort_date
)
SELECT cohort_day, day_offset, count(*) AS n_users
FROM act GROUP BY cohort_day, day_offset
"""


FUNNEL_CONVERSIONS_EVENTS_SQL = """
WITH v AS (SELECT user_id, ts FROM events WHERE event_type = 'view'),
p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase')
SELECT v.user_id,
       count(*) AS n_views,
       CAST(sum(CASE WHEN EXISTS (
           SELECT 1 FROM p
           WHERE p.user_id = v.user_id
             AND p.ts > v.ts
             AND p.ts <= v.ts + INTERVAL 1 HOUR)
         THEN 1 ELSE 0 END) AS BIGINT) AS n_converted
FROM v GROUP BY v.user_id
"""
