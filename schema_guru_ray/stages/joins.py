"""Join + window operators.

* :func:`join_keyed` — the one keyed lookup of a big Dataset against a
  small side (inner / left / semi / anti). Its single policy,
  :data:`BROADCAST_BYTES`, reads the small side's measured bytes: a side
  that fits is sorted once and shipped via ``ray.put`` (a
  :func:`sorted_lookup` per big batch, no shuffle); a bigger one shuffles
  (:func:`bucketed_hash_join` for inner/left; a Bloom split plus one
  Arrow-native bucketed membership check for semi/anti). Every
  broadcast-or-shuffle decision in the package is this one.
* :func:`bucketed` — the one hash-bucket shuffle: tag each row with
  ``_key_hash(key) % derive_num_buckets(n_rows)``, group by the tag and
  run a vectorized ``fn`` once per bucket. :func:`bucketed_aggregate`,
  :func:`grouped_topk`, :func:`partitioned_window` and every per-key
  reduce in the package that co-locates a key's rows call it.
* :func:`asof_join` — per-key ordered as-of join: hash-bucket by key, sort
  inside the bucket, ``pd.merge_asof`` per bucket (the guide's as-of
  pattern). Assumes each key's rows fit a bucket worker — bucket count is
  data-scaled (see :func:`derive_num_buckets`), but a single hot KEY still
  lands in one bucket by construction.
* :func:`tumbling_window_agg` — event-time tumbling windows as a computed
  window key + vectorized per-batch partial aggregation + small groupby (no
  watermark machinery: batch semantics over an ordered log).

Dtype discipline: the bucketed paths union the two tagged sides, and a
union null-fills each side's missing columns — which, through a pandas
round-trip, silently degrades numpy int64/bool columns to float64/object
inside the buckets (the round-1 asof oracle mismatch: ``77`` became
``77.0``). Both paths therefore keep blocks ARROW across the tag → union →
shuffle (zero-copy, null-fill representable, hashable schemas) and convert
to pandas only inside the bucket via ``types_mapper=_nullable_types_mapper``
(int/bool → pandas nullable dtypes); outputs convert back with an explicit
Arrow schema so the source types round-trip exactly, even for empty
buckets.
"""

from __future__ import annotations

import logging
import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from schema_guru_ray.stages.profile import stable_hash64

logger = logging.getLogger(__name__)

# last regime decision per operator, for tests/telemetry: {"op": ...,
# "hot_keys": [...], "salt": S} — written whenever a skew probe runs — or
# {"op": "join_keyed", "regime": "broadcast"|"shuffle", "small_bytes": n}.
last_regime: Dict[str, object] = {}

# join_keyed's one policy: a small side whose measured bytes are at most
# this is sorted and broadcast; a bigger one shuffles. 80 MB is the 5M-row
# limit most call sites carried before, at 16 B per int64 key plus int64
# value. Every catalog and test corpus up to sf0.1 stays in the broadcast
# regime under it: the largest small side there is sf0.1 orders, 150k rows.
BROADCAST_BYTES = 80_000_000

# rows per pandas bucket group that a worker comfortably materializes; the
# bucketed fallbacks derive their bucket count from this so per-group memory
# stays bounded as the input grows (round-1 verdict: fixed 16/64 buckets
# materialize 1/16 of the table per group at any scale).
DEFAULT_ROWS_PER_BUCKET = 250_000

# the fewest buckets a bucketed shuffle uses, so small inputs still spread
# over several reduce tasks. derive_num_buckets reads it on the driver at
# each call; the workers only ever see the derived count.
MIN_BUCKETS = 8


def derive_num_buckets(n_rows: int,
                       rows_per_bucket: int = DEFAULT_ROWS_PER_BUCKET) -> int:
    return max(MIN_BUCKETS, math.ceil(n_rows / max(1, rows_per_bucket)))


def _to_arrow_clean(df: pd.DataFrame, schema: Optional[pa.Schema] = None) -> pa.Table:
    """pandas → Arrow with the b'pandas' schema metadata stripped (nullable
    extension dtypes make that metadata unhashable, which trips Ray's
    schema-dedup hashing into a per-block warning) and an explicit target
    schema so empty buckets don't emit null-typed columns."""
    return pa.Table.from_pandas(
        df, schema=schema, preserve_index=False
    ).replace_schema_metadata(None)


def _as_arrow_type(t) -> Optional[pa.DataType]:
    if isinstance(t, pa.DataType):
        return t
    if t is object:
        # Ray surfaces pandas object columns as the literal `object` class;
        # best effort string (parquet-backed data is always Arrow-typed)
        return pa.string()
    kind = getattr(t, "kind", None)  # numpy dtype (pandas-block datasets)
    if kind == "O":
        return pa.string()  # best effort; parquet-backed data is always Arrow
    if kind == "M":
        return pa.timestamp("us")
    if kind is not None:
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return None
    return None


def _output_schema(out_cols, lschema, rschema,
                   rename_right: Optional[Dict[str, str]] = None) -> Optional[pa.Schema]:
    """Expected joined-output Arrow schema. ``rename_right`` maps right-side
    column names to their output names (shared non-key columns are
    suffixed); otherwise the left side's type wins for shared columns.
    None when any column's type cannot be determined."""
    rename_right = rename_right or {}
    types = {}
    for name, t in zip(rschema.names, rschema.types):
        at = _as_arrow_type(t)
        if at is not None:
            types[rename_right.get(name, name)] = at
    for name, t in zip(lschema.names, lschema.types):  # left overrides
        at = _as_arrow_type(t)
        if at is not None:
            types[name] = at
    if any(c not in types for c in out_cols):
        return None
    return pa.schema([(c, types[c]) for c in out_cols])


def _nullable_types_mapper(t: pa.DataType):
    """``Table.to_pandas(types_mapper=...)`` hook: int/bool columns land in
    pandas NULLABLE dtypes, so union null-fill (rows of the other side)
    cannot degrade int64 → float64 / bool → object inside a bucket."""
    if pa.types.is_integer(t):
        prefix = "UInt" if pa.types.is_unsigned_integer(t) else "Int"
        return getattr(pd, f"{prefix}{t.bit_width}Dtype")()
    if pa.types.is_boolean(t):
        return pd.BooleanDtype()
    return None


def _key_hash(cols) -> np.ndarray:
    """``stable_hash64`` of a key column, or of a list of key columns
    hashed as one row key, that does not depend on whether its batch
    holds a NULL: pandas turns a nullable integer column into float64 and
    a nullable bool column into object, either of which hashes every key
    of that batch differently from the same key in a NULL-free batch.
    NULL integers hash as 0 and NULL bools as False."""
    h = None
    for col in cols if isinstance(cols, (list, tuple)) else [cols]:
        if col.null_count and pa.types.is_boolean(col.type):
            col = pc.fill_null(col, False)
        elif col.null_count and pa.types.is_integer(col.type):
            col = pc.fill_null(col, 0)
        hk = stable_hash64(col.to_pandas())
        h = hk if h is None else (h * np.uint64(0x9E3779B97F4A7C15)) ^ hk
    return h


def bucketed(ds, key, fn, *, n_rows: int):
    """The package's one hash-bucket shuffle: rows of ``ds`` with equal
    ``key`` (a column name or a list of them) land in one bucket, and
    ``fn(frame) -> pd.DataFrame | pa.Table`` runs once per bucket on a
    pandas frame of that bucket's rows, the tag column dropped. There is
    one Ray dispatch per bucket, never one per key, so ``fn`` does its
    per-key work vectorized (a groupby, a sort + head, ``np.unique``).

    ``n_rows`` is the row count ``ds`` carries, or an estimate of it: it
    only sizes the buckets (:func:`derive_num_buckets`). Take it from
    something that does not execute ``ds``'s plan — a parquet footer, the
    ``count()`` of a materialized input, or a known multiple of one.

    The tag is :func:`_key_hash` in one Arrow ``map_batches`` (Ray fuses
    it with the caller's map), so a key lands in one bucket whether or not
    its batch holds a NULL. NULL-key rows reach ``fn``; a pandas groupby
    in ``fn`` drops them, as pandas does (:func:`bucketed_aggregate`
    returns one row per non-NULL key). A key column that holds a NULL
    in a bucket reaches ``fn`` in a pandas nullable dtype
    (:func:`_nullable_types_mapper`), not as the float64 (object for
    bool) pandas would make it, so that bucket emits its keys with the
    same type as the others; every other column converts as Ray's pandas
    batches do."""
    keys = [key] if isinstance(key, str) else list(key)
    nb = np.uint64(derive_num_buckets(n_rows))

    def tag(t: pa.Table) -> pa.Table:
        b = (_key_hash([t[k] for k in keys]) % nb).astype(np.int32)
        return t.append_column("__bucket", pa.array(b)).replace_schema_metadata(None)

    def run(t: pa.Table):
        from ray.data.block import BlockAccessor

        t = t.drop_columns(["__bucket"])
        g = BlockAccessor.for_block(t).to_pandas()
        for k in keys:
            if t[k].null_count:
                g[k] = t[k].to_pandas(types_mapper=_nullable_types_mapper)
        return fn(g)

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(run, batch_format="pyarrow")
    )


def _tag_fn(side: str, key: str, num_buckets: int):
    """Arrow-native tag stage: append ``__bucket``/``__side`` without
    touching (or copying) the data columns."""

    def fn(t: pa.Table) -> pa.Table:
        bucket = (_key_hash(t[key]) % np.uint64(num_buckets)).astype(np.int32)
        t = t.append_column("__bucket", pa.array(bucket, pa.int32()))
        t = t.append_column("__side", pa.array([side] * len(t), pa.string()))
        return t.replace_schema_metadata(None)

    return fn


def detect_hot_keys(ds, key: str, threshold: int,
                    capacity: int = 512) -> pd.DataFrame:
    """One bounded-memory pass over ``ds[key]`` → DataFrame ``(key, est)``
    of every key whose row count MAY exceed ``threshold`` (a guaranteed
    SUPERSET of the true hot set — Misra-Gries undercounts by at most the
    total decrement, so any key with ``true >= threshold`` survives the
    ``est >= threshold - total_dec`` cut; false positives merely salt a
    key that didn't need it). Per batch: value_counts → a capacity-bounded
    Misra-Gries sketch whose counters ship as rows; the driver's merge is
    one vectorized groupby-sum (summing MG counter sets without re-trimming
    is itself a valid MG state, per Agarwal et al. "Mergeable Summaries").
    Driver traffic is O(#blocks × capacity), never O(rows)."""
    from schema_guru_ray.sketches.heavy import MisraGries

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b[key].value_counts()
        mg = MisraGries(capacity).add_counts(zip(vc.index, vc.to_numpy()))
        ks = list(mg.counters)
        out = pd.DataFrame({
            key: pd.Series(ks, dtype=b[key].dtype),
            "__est": pd.Series([mg.counters[k] for k in ks], dtype="int64"),
            "__dec": pd.Series(
                [mg.decremented] + [0] * (len(ks) - 1) if ks else [], dtype="int64"
            ),
        })
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return parts.reindex(columns=[key, "est"])
    total_dec = int(parts["__dec"].sum())
    est = parts.groupby(key, as_index=False, sort=False)["__est"].sum()
    hot = est[est["__est"] >= max(threshold - total_dec, 1)]
    return hot.rename(columns={"__est": "est"}).reset_index(drop=True)


def _tag_fn_salted(side: str, key: str, num_buckets: int,
                   hot_sorted: np.ndarray, spread_here: np.ndarray, salt: int):
    """Skew-aware tag stage. Cold rows bucket by hash as usual. A hot key
    ``hot_sorted[i]`` owns ``salt`` private sub-buckets starting at
    ``num_buckets + i*salt``; the side with ``spread_here[i]`` SPREADS its
    rows round-robin across them (the salt value never affects the join
    output — only which worker computes each match), the other side
    REPLICATES its rows to all ``salt`` of them so every spread row still
    sees the full opposite set for its key."""

    def fn(t: pa.Table) -> pa.Table:
        kv = t[key].to_pandas()
        bucket = (_key_hash(t[key]) % np.uint64(num_buckets)).astype(np.int64)
        idx, hit = sorted_lookup(hot_sorted, np.asarray(kv))
        spread = hit & spread_here[idx]
        repl = hit & ~spread_here[idx]
        sub_base = np.int64(num_buckets) + idx.astype(np.int64) * salt
        rows = np.flatnonzero(spread)
        if len(rows):
            bucket[rows] = sub_base[rows] + np.arange(len(rows)) % salt
        rrows = np.flatnonzero(repl)
        if not len(rrows):
            t = t.append_column("__bucket", pa.array(bucket.astype(np.int32)))
            t = t.append_column("__side", pa.array([side] * len(t), pa.string()))
            return t.replace_schema_metadata(None)
        keep = np.flatnonzero(~repl)
        rep_idx = np.concatenate([keep, np.repeat(rrows, salt)])
        rep_bucket = np.concatenate([
            bucket[keep],
            np.repeat(sub_base[rrows], salt)
            + np.tile(np.arange(salt, dtype=np.int64), len(rrows)),
        ])
        out = t.take(pa.array(rep_idx))
        out = out.append_column("__bucket", pa.array(rep_bucket.astype(np.int32)))
        out = out.append_column("__side", pa.array([side] * len(out), pa.string()))
        return out.replace_schema_metadata(None)

    return fn


def _skew_plan(left, right, on: str, threshold: int, join_type: str,
               op_name: str):
    """Probe both sides for heavy hitters and decide the salting plan.
    Returns ``None`` (no hot keys — take the plain path) or
    ``(hot_sorted, spread_left, left_seen)``: for each hot key,
    ``spread_left[i]`` says the LEFT side spreads (right replicates), and
    ``left_seen[i]`` says the left probe counted it — a Misra-Gries
    counter exists only for a key that occurred, so such a key is present
    on the left. Left/outer-flavored
    joins must always spread the left side — replicating left rows would
    duplicate the null-extended output of unmatched replicas — so only
    ``inner`` picks per key by estimated count (spread the bigger side,
    replicate the smaller)."""
    lhot = detect_hot_keys(left, on, threshold)
    rhot = detect_hot_keys(right, on, threshold)
    if lhot.empty and rhot.empty:
        last_regime.update({"op": op_name, "hot_keys": [], "salt": 0})
        return None
    lmap = dict(zip(lhot[on], lhot["est"])) if not lhot.empty else {}
    rmap = dict(zip(rhot[on], rhot["est"])) if not rhot.empty else {}
    keys = sorted(set(lmap) | set(rmap))
    if join_type == "inner":
        spread_left = np.array(
            [lmap.get(k, 0) >= rmap.get(k, 0) for k in keys], dtype=bool
        )
    else:
        spread_left = np.ones(len(keys), dtype=bool)
    hot_sorted = np.asarray(keys)
    left_seen = np.array([k in lmap for k in keys], dtype=bool)
    logger.info(
        "%s: skew regime engaged — %d hot key(s) over threshold %d: %s",
        op_name, len(keys), threshold, keys[:8],
    )
    last_regime.update({"op": op_name, "hot_keys": list(keys),
                        "spread_left": spread_left.tolist()})
    return hot_sorted, spread_left, left_seen


def _keys_present(ds, key: str, hot_sorted: np.ndarray) -> np.ndarray:
    """Exact global membership of each ``hot_sorted`` key in ``ds[key]``
    (bool array aligned with hot_sorted). One vectorized pass; driver
    traffic is O(#blocks × #hot keys), hot keys are probe-bounded (≤
    capacity). Needed by the full-outer salted regime: a REPLICATED row
    may null-extend only when the spread side has zero rows of its key
    anywhere — per-sub-bucket emptiness proves nothing (the batch-local
    round-robin can leave any given sub-bucket empty)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        idx, hit = sorted_lookup(hot_sorted, np.asarray(b[key]))
        return pd.DataFrame({"idx": np.unique(idx[hit]).astype(np.int64)})

    seen = ds.map_batches(partial, batch_format="pandas").to_pandas()
    present = np.zeros(len(hot_sorted), dtype=bool)
    if not seen.empty:
        present[seen["idx"].to_numpy()] = True
    return present


def _empty_typed_frame(columns, schemas: Dict[str, str]) -> pd.DataFrame:
    """Empty frame with stable dtypes so empty buckets unify with full ones."""
    return pd.DataFrame(
        {c: pd.Series(dtype=schemas.get(c, "object")) for c in columns}
    )


def _floor_sentinel(out_schema: Optional[pa.Schema]):
    """One-row ``(__bucket=-1, __side='f')`` dataset to union into a join's
    TAGGED stream before the bucket groupby. Real buckets are ≥ 0, so the
    sentinel always forms its own group, and the bucket fn (seeing neither
    an 'l' nor an 'r' row) emits the join's TYPED empty block — the output
    schema survives a join that matched nothing (Ray reports ``schema() =
    None`` for zero-group groupbys, which cascades downstream exactly when
    one shard-day of a 100 TB run has no matching rows).

    Riding the EXISTING union matters: a separate post-groupby
    ``union(empty_typed_block)`` floor measured +46-84% on the join-family
    queries at sf0.1 — the extra plan node blocks fusion of the groupby
    output into downstream maps. The sentinel costs one row and one extra
    (trivial) group instead. Returns None (no floor) when the caller could
    not determine its output schema — an untyped sentinel block could then
    disagree with the real blocks' schema."""
    if out_schema is None:
        return None
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "__bucket": pa.array([-1], pa.int32()),
        "__side": pa.array(["f"], pa.string()),
    }))


def _dtype_spec(ds) -> Dict[str, str]:
    """column → pandas dtype string used for empty-bucket frames."""
    return _dtype_spec_from_schema(ds.schema())


def _dtype_spec_from_schema(sch) -> Dict[str, str]:
    """Like :func:`_dtype_spec` but from a schema object (``pa.Schema`` or
    Ray's ``Schema`` — both expose ``.names``/``.types``)."""
    spec: Dict[str, str] = {}
    for name, t in zip(sch.names, sch.types):
        if not isinstance(t, pa.DataType):
            spec[name] = "object"
        elif pa.types.is_integer(t):
            prefix = "UInt" if pa.types.is_unsigned_integer(t) else "Int"
            spec[name] = f"{prefix}{t.bit_width}"
        elif pa.types.is_boolean(t):
            spec[name] = "boolean"
        elif pa.types.is_floating(t):
            spec[name] = "float32" if t == pa.float32() else "float64"
        elif pa.types.is_timestamp(t):
            spec[name] = "datetime64[us]"
        else:
            spec[name] = "object"
    return spec


def sorted_lookup(keys: np.ndarray, probe: np.ndarray):
    """The broadcast-regime lookup kernel of :func:`join_keyed` (and of the
    skew probes): membership + value-index against a SORTED key array.
    Returns ``(idx, hit)`` with ``keys[idx[hit]] == probe[hit]``; safe on
    empty ``keys`` (all-miss). Pair with an aligned value array sorted by
    the same argsort to complete a broadcast hash-map without Python
    dicts."""
    idx = np.clip(np.searchsorted(keys, probe), 0, max(len(keys) - 1, 0))
    hit = (keys[idx] == probe) if len(keys) else np.zeros(len(probe), bool)
    return idx, hit


def bucketed_hash_join(left, right, on: str, num_buckets: Optional[int] = None,
                       join_type: str = "inner",
                       left_schema: Optional[pa.Schema] = None,
                       right_schema: Optional[pa.Schema] = None,
                       hot_key_threshold: Optional[int] = None,
                       hot_salt: int = 16, schema_floor: bool = False,
                       unique_right: bool = False):
    """Portable explicit hash join: tag both sides with ``bucket =
    hash(key) % B``, union, group by bucket, pandas-merge the two sides
    inside each bucket. ``num_buckets=None`` scales B to the input row
    count. ``unique_right=True`` raises ``ValueError`` from the bucket
    that holds a repeated right key (the lookup contract of
    :func:`join_keyed`).

    ``hot_key_threshold``: opt-in skew escape hatch. A single hot key
    lands in ONE bucket by construction, no matter how large B is — at a
    90%-one-key corpus the whole table materializes in one pandas group.
    When a threshold is given, a bounded Misra-Gries probe
    (:func:`detect_hot_keys`, one extra pass per side) finds every key
    that may exceed it; each hot key then gets ``hot_salt`` private
    sub-buckets — the heavier side's rows SPREAD round-robin across them,
    the lighter side's rows REPLICATE to all of them (left joins always
    spread the left side, since replicating left rows would duplicate
    null-extended output). Per-bucket memory for a hot key drops from
    O(hot_rows) to O(hot_rows/salt + other_side_rows). The decision is
    logged and recorded in :data:`last_regime`. Salted ``outer``/``right``
    joins also need global left presence of each hot key: keys the left
    probe counted are present by construction, and only keys hot on the
    right alone cost one more pass over the left side
    (:func:`_keys_present`) at plan-construction time.

    ``left_schema``/``right_schema``: pass the known output schema of a
    DERIVED side whose plan contains an all-to-all (groupby/sort/another
    join) — ``ds.schema()`` on such a plan executes the whole shuffle just
    to infer types, then the join executes it AGAIN. Map-only plans infer
    from one block and don't need the hint."""
    lschema = left_schema if left_schema is not None else left.schema()
    rschema = right_schema if right_schema is not None else right.schema()
    if lschema is None or rschema is None:
        raise ValueError(
            "bucketed_hash_join: input schema unavailable (empty derived "
            "dataset?) — pass left_schema/right_schema hints"
        )
    left_cols = list(lschema.names)
    right_cols = list(rschema.names)
    # shared non-key columns are KEPT, suffixed on the right ("_r") — a
    # plain reindex would silently drop pandas' _x/_y suffixed pair and
    # emit an all-null column. NB: both sides' values of a shared column
    # must unify to one Arrow type through the tagged union.
    rmap = {c: f"{c}_r" for c in right_cols if c in left_cols and c != on}
    spec = _dtype_spec_from_schema(lschema)
    spec.update({rmap.get(k, k): v for k, v in _dtype_spec_from_schema(rschema).items()})
    if num_buckets is None:
        num_buckets = derive_num_buckets(left.count() + right.count())

    plan = (
        _skew_plan(left, right, on, hot_key_threshold, join_type,
                   "bucketed_hash_join")
        if hot_key_threshold is not None
        else None
    )
    hot_left_present = None
    if plan is None:
        ltag = _tag_fn("l", on, num_buckets)
        rtag = _tag_fn("r", on, num_buckets)
    else:
        hot_sorted, spread_left, left_seen = plan
        last_regime["salt"] = hot_salt
        ltag = _tag_fn_salted("l", on, num_buckets, hot_sorted, spread_left,
                              hot_salt)
        rtag = _tag_fn_salted("r", on, num_buckets, hot_sorted, ~spread_left,
                              hot_salt)
        if join_type in ("outer", "right"):
            # outer/right under salting: a replicated right row null-extends
            # once per sub-bucket whose spread (left) slice happens to be
            # empty — a per-bucket artifact (measured: full outer returned
            # 1778 rows where the oracle says 515). The correct predicate
            # is GLOBAL left presence of the key; the left probe already
            # proves it for every key it counted, so only the keys hot on
            # the right alone need the exact left pass.
            hot_left_present = left_seen.copy()
            unseen = np.flatnonzero(~left_seen)
            if len(unseen):
                hot_left_present[unseen] = _keys_present(
                    left, on, hot_sorted[unseen])
    out_cols = left_cols + [rmap.get(c, c) for c in right_cols
                            if c != on and (c not in left_cols or c in rmap)]
    out_schema = _output_schema(out_cols, lschema, rschema, rename_right=rmap)

    lt = left.map_batches(ltag, batch_format="pyarrow")
    rt = right.map_batches(rtag, batch_format="pyarrow")
    floor = _floor_sentinel(out_schema) if schema_floor else None
    # arrow null-fill union: missing columns stay typed
    both = lt.union(rt, floor) if floor is not None else lt.union(rt)

    def join_bucket(t: pa.Table) -> pa.Table:
        g = t.to_pandas(types_mapper=_nullable_types_mapper)
        l = g[g["__side"] == "l"].reindex(columns=left_cols)
        r = g[g["__side"] == "r"].reindex(columns=right_cols).rename(columns=rmap)
        if unique_right and r[on].duplicated().any():
            raise ValueError(f"bucketed_hash_join: repeated right key in {on!r}")
        if l.empty or r.empty:
            if join_type == "inner":
                return _to_arrow_clean(_empty_typed_frame(out_cols, spec), out_schema)
            # outer flavors fall through to pandas' own semantics
        if len(l) and len(r) and r[on].dtype != l[on].dtype:
            r = r.astype({on: l[on].dtype})
        how = join_type
        if hot_left_present is not None and len(g):
            b0 = int(g["__bucket"].iloc[0])
            if b0 >= num_buckets:  # a hot key's private sub-bucket
                hid, j = divmod(b0 - num_buckets, hot_salt)
                # the flavor that keeps left null-extensions (if the join
                # wants them) but NEVER null-extends the replicated side
                no_repl_ext = "left" if join_type == "outer" else "inner"
                if hot_left_present[hid]:
                    # left has rows of this key somewhere → every replica
                    # is matched globally; spread left rows (unique) keep
                    # their own null-extensions
                    how = no_repl_ext
                else:
                    # left truly has no rows of this key: null-extend the
                    # replicas exactly once, in sub-bucket 0
                    how = join_type if j == 0 else no_repl_ext
        return _to_arrow_clean(
            l.merge(r, on=on, how=how).reindex(columns=out_cols), out_schema
        )

    return both.groupby("__bucket").map_groups(join_bucket, batch_format="pyarrow")


JOIN_HOWS = ("inner", "left", "semi", "anti")


def join_keyed(big, small, on, how: str = "inner"):
    """Keyed lookup of every ``big`` row in ``small`` — the package's one
    broadcast-or-shuffle join.

    ``how``: ``inner`` / ``left`` append ``small``'s non-key columns (nulls
    on a ``left`` miss); ``semi`` keeps the ``big`` rows that hit, ``anti``
    the rows that miss. ``on`` is a column name or a ``(big_col,
    small_col)`` pair; the output keeps ``big``'s key column only.
    ``small`` is a ``pa.Table`` (a dimension read on the driver) or a
    Dataset, which is materialized once here and reused by both regimes.

    NULL keys never match (SQL): NULL small keys are dropped, and a NULL
    big key is a miss. ``inner``/``left`` need unique small keys and raise
    ``ValueError`` on a repeat, in both regimes; ``semi``/``anti`` accept
    repeats. A small non-key column may not share a name with a ``big``
    column.

    The regime follows from the small side's measured bytes (``nbytes``,
    or the block metadata's ``size_bytes()``) against
    :data:`BROADCAST_BYTES`, recorded in :data:`last_regime`:

    * **broadcast** — the small side is sorted by key once and shipped via
      ``ray.put``; each big batch is one :func:`sorted_lookup` plus an
      Arrow ``take``/``filter``. No shuffle.
    * **shuffle** — ``inner``/``left`` run :func:`bucketed_hash_join`.
      ``semi``/``anti`` split ``big`` with a Bloom filter of the small keys:
      rows the filter rejects are definite misses and never shuffle; the
      rest meet the small keys in one Arrow-native bucketed membership
      check, so binary payload columns round-trip byte-exact."""
    import ray.data as rd

    if how not in JOIN_HOWS:
        raise ValueError(f"join_keyed: how={how!r} is not one of {JOIN_HOWS}")
    big_key, small_key = (on, on) if isinstance(on, str) else on
    if not isinstance(small, pa.Table):
        small = small.materialize()
    small_bytes = int(small.nbytes if isinstance(small, pa.Table)
                      else small.size_bytes())
    regime = "broadcast" if small_bytes <= BROADCAST_BYTES else "shuffle"
    last_regime.clear()
    last_regime.update(
        {"op": "join_keyed", "regime": regime, "small_bytes": small_bytes})
    if regime == "broadcast":
        return _broadcast_lookup(big, _small_table(small), big_key, small_key, how)

    if how in ("inner", "left"):
        # every big row shuffles: one execution feeds the schema, the row
        # count that sizes the buckets and the shuffle itself
        big = big.materialize()
    bschema = big.schema()
    if bschema is None:  # an empty derived big side: nothing to look up
        return big
    bschema = _output_schema(list(bschema.names), bschema, bschema)
    if isinstance(small, pa.Table):
        small = rd.from_arrow(small)
    key_type = bschema.field(big_key).type
    sschema = small.schema()
    if sschema is None:  # no rows: an empty key set, as in the broadcast regime
        sschema = pa.schema([(small_key, key_type)])
    keep = [] if how in ("semi", "anti") else [
        n for n in sschema.names if n != small_key]
    _check_names(bschema.names, keep)

    def keyed(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[small_key]))
        cols = {big_key: t[small_key].cast(key_type)}
        cols.update({n: t[n] for n in keep})
        return pa.table(cols)

    keys = small.map_batches(keyed, batch_format="pyarrow")
    if how in ("semi", "anti"):
        return _bloom_membership(big, keys, small.count(), big_key, bschema,
                                 semi=how == "semi")
    right_schema = pa.schema(
        [(big_key, key_type)]
        + [(n, _as_arrow_type(t)) for n, t in zip(sschema.names, sschema.types)
           if n in keep]
    )
    return bucketed_hash_join(big, keys, on=big_key, join_type=how,
                              left_schema=bschema, right_schema=right_schema,
                              unique_right=True)


def _small_table(small) -> Optional[pa.Table]:
    """A materialized small side as one driver-side table; None when it
    has no rows and no schema (an empty derived Dataset)."""
    if isinstance(small, pa.Table):
        return small
    import ray

    tables = [ray.get(r) for r in small.to_arrow_refs()]
    tables = [t for t in tables if t.num_columns]
    return pa.concat_tables(tables, promote_options="default") if tables else None


def _check_names(big_names, small_names) -> None:
    clash = sorted(set(big_names) & set(small_names))
    if clash:
        raise ValueError(f"join_keyed: small columns {clash} also exist on big")


def _broadcast_lookup(big, table: Optional[pa.Table], big_key: str,
                      small_key: str, how: str):
    """Broadcast regime of :func:`join_keyed`."""
    import ray

    if table is None or small_key not in table.column_names:
        keys, values = np.array([], dtype=np.int64), pa.table({})
    else:
        table = table.filter(pc.is_valid(table[small_key])).sort_by(small_key)
        keys = table[small_key].to_numpy()
        values = table.drop_columns([small_key])
    if how in ("semi", "anti"):
        keys, values = np.unique(keys), None
    elif len(keys) > 1 and bool((keys[1:] == keys[:-1]).any()):
        raise ValueError(
            f"join_keyed: repeated small key in {small_key!r} ({how} needs "
            "unique lookup keys)")
    ref = ray.put((keys, values))

    def lookup(t: pa.Table) -> pa.Table:
        keys, values = ray.get(ref)
        col = t[big_key]
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        idx = np.zeros(len(t), dtype=np.int64)
        hit = np.zeros(len(t), dtype=bool)
        idx[valid], hit[valid] = sorted_lookup(keys, col.drop_null().to_numpy())
        if how == "semi":
            return t.filter(pa.array(hit))
        if how == "anti":
            return t.filter(pa.array(~hit))
        _check_names(t.column_names, values.column_names)
        if how == "inner":
            t, rows = t.filter(pa.array(hit)), pa.array(idx[hit], pa.int64())
        else:
            rows = pa.array(idx, pa.int64(), mask=~hit)
        matched = values.take(rows)
        for name in matched.column_names:
            t = t.append_column(name, matched[name])
        return t

    return big.map_batches(lookup, batch_format="pyarrow")


def _bloom_membership(big, keys, n_keys: int, key: str, bschema: pa.Schema,
                      semi: bool):
    """Shuffle regime of :func:`join_keyed` for ``semi``/``anti``: ``keys``
    holds the non-null small keys in column ``key`` with ``big``'s key type.
    A Bloom filter of them splits ``big``; only the rows it cannot rule out
    shuffle, together with the keys, into hash buckets where ``pc.is_in``
    decides exactly. Blocks stay Arrow throughout."""
    import ray

    from schema_guru_ray.sketches.bloom import BloomFilter, build_bloom

    bloom_ref = ray.put(build_bloom(keys, key, n_items_hint=n_keys).to_bytes())

    def may_match(t: pa.Table) -> np.ndarray:
        col = t[key]
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        hit = np.zeros(len(t), dtype=bool)
        bloom = BloomFilter.from_bytes(ray.get(bloom_ref))
        hit[valid] = bloom.contains_many(col.drop_null().to_pandas())
        return hit

    maybe = big.map_batches(
        lambda t: t.filter(pa.array(may_match(t))), batch_format="pyarrow"
    ).materialize()  # counted for the bucket count, then shuffled once
    nb = derive_num_buckets(maybe.count() + n_keys)
    lt = maybe.map_batches(_tag_fn("l", key, nb), batch_format="pyarrow")
    kt = keys.map_batches(_tag_fn("r", key, nb), batch_format="pyarrow")

    def member_bucket(t: pa.Table) -> pa.Table:
        is_l = pc.equal(t["__side"], "l")
        rows = t.filter(is_l)
        if not len(rows):
            return bschema.empty_table()
        found = pc.is_in(rows[key], value_set=t.filter(pc.invert(is_l))[key]
                         .combine_chunks())
        return rows.filter(found if semi else pc.invert(found)).select(
            bschema.names)

    checked = lt.union(kt).groupby("__bucket").map_groups(
        member_bucket, batch_format="pyarrow")
    if semi:
        return checked
    definite = big.map_batches(
        lambda t: t.filter(pa.array(~may_match(t))), batch_format="pyarrow")
    return definite.union(checked)


def asof_join(left, right, key: str, left_ts: str, right_ts: str,
              num_buckets: Optional[int] = None, direction: str = "backward",
              right_columns: Optional[Sequence[str]] = None,
              tolerance_sec: Optional[int] = None,
              hot_key_threshold: Optional[int] = None, hot_salt: int = 16,
              left_schema: Optional[pa.Schema] = None,
              right_schema: Optional[pa.Schema] = None,
              schema_floor: bool = False):
    """As-of join: for each left row, the latest right row of the same key
    with right_ts <= left_ts (direction='backward'). Inner semantics (left
    rows without a match are dropped). ``num_buckets=None`` scales the
    bucket count to the input row count. ``tolerance_sec`` bounds the
    match window (interval-join semantics: right_ts within
    [left_ts - tolerance, left_ts]); matches outside it are dropped.

    ``hot_key_threshold``: same opt-in skew escape hatch as
    :func:`bucketed_hash_join`, with one fixed choice — the LEFT side
    always spreads and the right replicates, because every left row must
    see the FULL right history of its key for the as-of lookup (a spread
    right side would leave some buckets missing the true latest match).
    The merge_asof inside a salted bucket therefore stays exact.

    ``left_schema``/``right_schema``: same contract as
    :func:`bucketed_hash_join` — pass the known schema of a derived side
    to skip a shuffle-for-schema AND to keep the join working when that
    side is EMPTY (Ray reports ``schema() = None`` for empty derived
    datasets, e.g. a filter that matched nothing in one shard-day)."""
    lschema = left_schema if left_schema is not None else left.schema()
    rs = right_schema if right_schema is not None else right.schema()
    if lschema is None or rs is None:
        raise ValueError(
            "asof_join: input schema unavailable (empty derived dataset?) — "
            "pass left_schema/right_schema hints"
        )
    left_cols = list(lschema.names)
    right_cols = [key, right_ts] + [
        c for c in (right_columns or rs.names) if c not in (key, right_ts)
    ]
    right_sel = right.select_columns(right_cols)
    rschema = (
        pa.schema([(n, t) for n, t in zip(rs.names, rs.types) if n in right_cols])
        if right_schema is not None
        else right_sel.schema()
    )
    # shared non-key right columns (possibly incl. the right timestamp)
    # are kept under an "_r" suffix instead of being dropped by the
    # post-merge reindex
    rmap = {c: f"{c}_r" for c in right_cols if c in left_cols and c != key}
    r_out = [rmap.get(c, c) for c in right_cols]
    right_ts_out = rmap.get(right_ts, right_ts)
    spec = _dtype_spec_from_schema(lschema)
    spec.update(
        {rmap.get(k, k): v for k, v in _dtype_spec_from_schema(rschema).items()}
    )
    if num_buckets is None:
        num_buckets = derive_num_buckets(left.count() + right.count())

    plan = (
        _skew_plan(left, right_sel, key, hot_key_threshold, "left", "asof_join")
        if hot_key_threshold is not None
        else None
    )
    if plan is None:
        ltag = _tag_fn("l", key, num_buckets)
        rtag = _tag_fn("r", key, num_buckets)
    else:
        hot_sorted, spread_left, _ = plan  # all-True: asof spreads left only
        last_regime["salt"] = hot_salt
        ltag = _tag_fn_salted("l", key, num_buckets, hot_sorted, spread_left,
                              hot_salt)
        rtag = _tag_fn_salted("r", key, num_buckets, hot_sorted, ~spread_left,
                              hot_salt)
    out_cols = left_cols + [c for c in r_out if c not in left_cols]
    out_schema = _output_schema(out_cols, lschema, rschema, rename_right=rmap)

    lt = left.map_batches(ltag, batch_format="pyarrow")
    rt = right_sel.map_batches(rtag, batch_format="pyarrow")
    floor = _floor_sentinel(out_schema) if schema_floor else None
    # arrow null-fill union: missing columns stay typed
    both = lt.union(rt, floor) if floor is not None else lt.union(rt)

    def join_bucket(t: pa.Table) -> pa.Table:
        g = t.to_pandas(types_mapper=_nullable_types_mapper)
        # blocks that came wholly from one side may lack the other side's
        # columns entirely — reindex fills them before slicing.
        # Null key/timestamp rows are dropped on both sides (SQL ASOF
        # semantics: NULL never satisfies the equality or the <=; pandas
        # merge_asof REFUSES null keys outright), so a shard-day with a
        # broken column degrades to zero matches instead of crashing.
        l = (
            g[g["__side"] == "l"].reindex(columns=left_cols)
            .dropna(subset=[key, left_ts])
            .sort_values(left_ts, kind="stable")
        )
        # secondary sort keys make ties at equal right_ts deterministic:
        # merge_asof(backward) picks the LAST row ≤ ts, i.e. the max of the
        # remaining columns — no separate dedupe shuffle needed upstream
        r = (
            g[g["__side"] == "r"].reindex(columns=right_cols).rename(columns=rmap)
            .dropna(subset=[key, right_ts_out])
            .sort_values(
                [right_ts_out, *[c for c in r_out if c != right_ts_out]],
                kind="stable",
            )
        )
        if l.empty or r.empty:
            return _to_arrow_clean(_empty_typed_frame(out_cols, spec), out_schema)
        if key in l.columns and l[key].dtype != r[key].dtype:
            r = r.astype({key: l[key].dtype})
        # unify timestamp resolutions (parquet us vs pandas s after unions)
        for frame, col in ((l, left_ts), (r, right_ts_out)):
            if str(frame[col].dtype).startswith("datetime64"):
                frame[col] = frame[col].astype("datetime64[us]")
        out = pd.merge_asof(
            l, r, left_on=left_ts, right_on=right_ts_out, by=key,
            direction=direction,
            tolerance=(
                pd.Timedelta(seconds=tolerance_sec)
                if tolerance_sec is not None
                else None
            ),
        )
        return _to_arrow_clean(
            out.dropna(subset=[right_ts_out]).reindex(columns=out_cols), out_schema
        )

    return both.groupby("__bucket").map_groups(join_bucket, batch_format="pyarrow")


def bucketed_aggregate(ds, keys, aggs: Dict[str, Tuple[str, str]], *,
                       n_rows: Optional[int] = None):
    """Per-key aggregation for HIGH-CARDINALITY keys: one :func:`bucketed`
    shuffle + ONE vectorized pandas groupby inside each bucket.

    Ray's native ``groupby(key).aggregate(...)`` pays per-GROUP overhead in
    its reduce — measured round 5 on a 400k-row / 226k-group min: native
    aggregate 297 s on pandas blocks, 16.5 s on Arrow blocks, this
    operator 0.2 s. Use the native aggregate for low-cardinality keys
    (codec, event_type, bucket ids); use this whenever groups ≈ rows
    (per-node labels, per-pair maxes, per-document stats).

    ``aggs``: ``{out_col: (in_col, fn)}`` with pandas-groupby fn names
    ("min"/"max"/"sum"/"count"/"first"...). Keys may be one column or a
    list. A single hot KEY still lands in one bucket (keys here are
    near-unique by premise — if one key dominates, aggregate partials
    first). ``n_rows``: rows of ``ds`` (see :func:`bucketed`); None counts
    ``ds``, which is free on a parquet read or a materialized Dataset."""
    key_list = [keys] if isinstance(keys, str) else list(keys)

    def agg_bucket(g: pd.DataFrame) -> pa.Table:
        gb = g.groupby(key_list, as_index=False, sort=False).agg(
            **{out: (col, fn) for out, (col, fn) in aggs.items()}
        )
        return pa.Table.from_pandas(gb, preserve_index=False)

    return bucketed(ds, key_list, agg_bucket,
                    n_rows=ds.count() if n_rows is None else n_rows)


def grouped_topk(ds, group_col: str, order_col: str, k: int,
                 descending: bool = True, tie_col: Optional[str] = None,
                 rank_alias: Optional[str] = None):
    """Top-k rows per group WITHOUT a global sort: each batch pre-reduces
    to its local top-k per group (vectorized sort + groupby-head), then the
    survivors go through one :func:`bucketed` shuffle on ``group_col``
    where one vectorized sort + groupby-head per bucket finishes the job.
    Shuffle volume is O(#batches × #groups × k), never O(rows); the
    buckets are sized from ``ds.count()`` (free on a parquet read).
    ``tie_col`` (ascending) makes the result a total order — required for
    exact parity with a SQL ``row_number() OVER (... ORDER BY v DESC,
    tie)`` oracle."""
    sort_cols = [order_col] + ([tie_col] if tie_col else [])
    ascending = [not descending] + ([True] if tie_col else [])

    def local_topk(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(sort_cols, ascending=ascending, kind="stable")
        return b.groupby(group_col, sort=False).head(k)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, ascending=ascending, kind="stable")
        g = g.groupby(group_col, sort=False).head(k)
        if rank_alias:
            g = g.assign(
                **{rank_alias: g.groupby(group_col, sort=False).cumcount() + 1}
            )
        return g

    return bucketed(ds.map_batches(local_topk, batch_format="pandas"),
                    group_col, merge_bucket, n_rows=ds.count())


def hopping_window_agg(ds, ts_col: str, window_sec: int, hop_sec: int,
                       keys: Sequence[str], value_col: str):
    """Hopping (sliding) event-time windows: window length ``window_sec``,
    advancing every ``hop_sec`` (must divide window_sec). Each row belongs
    to exactly window/hop windows — the expansion is a vectorized
    repeat/tile inside ``map_batches`` (no per-row loop), followed by the
    same partial-agg + tiny groupby as the tumbling case. Shuffle volume:
    one partial row per (batch × key × window), never the expanded rows."""
    from ray.data.aggregate import Sum

    if window_sec % hop_sec != 0:
        raise ValueError("hop_sec must divide window_sec")
    n_windows = window_sec // hop_sec

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        epoch = b[ts_col].to_numpy().astype("datetime64[s]").astype(np.int64)
        base = (epoch // hop_sec) * hop_sec
        with np.errstate(invalid="ignore"):
            milli = pd.Series(
                np.floor(b[value_col].to_numpy() * 1000 + 0.5)
            ).astype("Int64")
        # every row falls in exactly n_windows windows (hop | window)
        starts = np.repeat(base, n_windows) - np.tile(
            np.arange(n_windows, dtype=np.int64) * hop_sec, len(b)
        )
        expanded = pd.DataFrame(
            {
                **{
                    kcol: np.repeat(b[kcol].to_numpy(), n_windows)
                    for kcol in keys
                },
                "window_start": pd.to_datetime(starts, unit="s").astype(
                    "datetime64[us]"
                ),
            }
        )
        # keep the nullable Int64 dtype through the expansion (NA-safe sum)
        expanded["value_milli"] = milli.iloc[
            np.repeat(np.arange(len(b)), n_windows)
        ].reset_index(drop=True)
        g = expanded.groupby([*keys, "window_start"], as_index=False).agg(
            n=("value_milli", "size"), sum_value_milli=("value_milli", "sum")
        )
        g["sum_value_milli"] = g["sum_value_milli"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)  # Arrow into the shuffle

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.groupby([*keys, "window_start"]).aggregate(
        Sum("n", alias_name="n"),
        Sum("sum_value_milli", alias_name="sum_value_milli"),
    )


def tumbling_window_agg(ds, ts_col: str, window_sec: int,
                        keys: Sequence[str], value_col: str):
    """Tumbling event-time windows: per (keys..., window_start) count + sum
    (integer-milli). Vectorized partial agg per batch → tiny groupby."""
    from ray.data.aggregate import Sum

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        # resolution-proof epoch seconds (parquet us vs pandas ns)
        epoch = b[ts_col].to_numpy().astype("datetime64[s]").astype(np.int64)
        b["window_start"] = pd.to_datetime(
            (epoch // window_sec) * window_sec, unit="s"
        ).astype("datetime64[us]")
        with np.errstate(invalid="ignore"):
            b["value_milli"] = pd.Series(
                np.floor(b[value_col].to_numpy() * 1000 + 0.5), index=b.index
            ).astype("Int64")  # NaN-safe: NULLs skipped by the sum, like SQL
        g = b.groupby([*keys, "window_start"], as_index=False).agg(
            n=("value_milli", "size"), sum_value_milli=("value_milli", "sum")
        )
        g["sum_value_milli"] = g["sum_value_milli"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)  # Arrow into the shuffle

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.groupby([*keys, "window_start"]).aggregate(
        Sum("n", alias_name="n"),
        Sum("sum_value_milli", alias_name="sum_value_milli"),
    )


def _range_values(arr: np.ndarray) -> np.ndarray:
    """Comparable numeric view of a value column: datetimes → int64
    microseconds (exact), numerics → float64."""
    if np.issubdtype(arr.dtype, np.datetime64):
        return arr.astype("datetime64[us]").astype(np.int64).astype(np.float64)
    return arr.astype(np.float64)


def range_join(points, intervals, *, point_col: str, lo_col: str, hi_col: str,
               num_buckets: Optional[int] = None,
               point_columns: Optional[Sequence[str]] = None,
               interval_columns: Optional[Sequence[str]] = None,
               points_schema: Optional[pa.Schema] = None,
               intervals_schema: Optional[pa.Schema] = None,
               schema_floor: bool = False):
    """Interval/range join: every (interval row × point row) pair with
    ``lo_col <= point_col <= hi_col`` (inclusive both ends, SQL BETWEEN).

    Topology — RANGE partitioning, not hash (the value, not a key, decides
    co-location): the observed point domain splits into ``num_buckets``
    equal-width ranges; each point lands in exactly ONE bucket, each
    interval replicates to every bucket it overlaps. Because a point
    belongs to one bucket only, the pair set is exact with no downstream
    dedupe. Inside a bucket the join is a vectorized sweep: points sorted
    once, ``np.searchsorted`` turns each interval into a contiguous span,
    pairs materialize via ``np.repeat`` + arange arithmetic — no Python
    row loop, no cross product.

    Partitioning assumption (documented per the operator contract): bucket
    width (domain / num_buckets) should be >> the typical interval length
    so replication stays O(1) per interval — true for "1-hour windows over
    a month" shapes. A single interval spanning the whole domain
    replicates to every bucket (same hot-key limit as a hash join's hot
    key); such workloads want a broadcast of the (few, huge) intervals
    instead.

    Output columns: ``interval_columns`` (default: all of ``intervals``)
    then ``point_columns`` (default: all of ``points``), point-side names
    suffixed ``_p`` on collision. Timestamps compare exactly (int64 us);
    other numerics as float64.
    """
    from ray.data.aggregate import Count, Max, Min

    psch = points_schema if points_schema is not None else points.schema()
    isch = intervals_schema if intervals_schema is not None else intervals.schema()
    if psch is None or isch is None:
        raise ValueError(
            "range_join: input schema unavailable (empty derived dataset?) "
            "— pass points_schema/intervals_schema hints"
        )
    p_cols = list(point_columns or psch.names)
    if point_col not in p_cols:
        p_cols = [point_col] + p_cols
    i_cols = list(interval_columns or isch.names)
    for c in (lo_col, hi_col):
        if c not in i_cols:
            i_cols = [c] + i_cols
    pts = points.select_columns(p_cols)
    ivs = intervals.select_columns(i_cols)

    def _subschema(sch, cols):
        have = {n: t for n, t in zip(sch.names, sch.types)}
        return pa.schema([(c, have[c]) for c in cols])

    psub, isub = _subschema(psch, p_cols), _subschema(isch, i_cols)
    pmap = {c: f"{c}_p" for c in p_cols if c in i_cols}
    p_out = [pmap.get(c, c) for c in p_cols]
    out_cols = i_cols + [c for c in p_out if c not in i_cols]
    spec = _dtype_spec_from_schema(isub)
    for k, v in _dtype_spec_from_schema(psub).items():
        spec.setdefault(pmap.get(k, k), v)
    out_schema = _output_schema(out_cols, isub, psub, rename_right=pmap)

    # domain bounds AND row count of the point side in ONE aggregate pass —
    # separate .count() calls would re-execute the (possibly filtered/
    # derived) input plan once per call just to size the buckets
    bounds = pts.aggregate(Min(point_col), Max(point_col), Count())
    if bounds is None or int(bounds["count()"]) == 0 \
            or bounds[f"min({point_col})"] is None:
        # no points → no pairs; return a TYPED empty result (downstream
        # code still sees the join's columns when one shard-day is empty)
        import ray.data as rd

        if out_schema is None:
            return rd.from_pandas(_empty_typed_frame(out_cols, spec))
        return rd.from_arrow(out_schema.empty_table())
    # pandas inference turns python datetimes back into datetime64
    dlo, dhi = _range_values(
        pd.Series([bounds[f"min({point_col})"], bounds[f"max({point_col})"]]).to_numpy()
    )
    if num_buckets is None:
        # per-bucket memory is bounded by BOTH sides, so size from both:
        # the point count rides the bounds aggregate for free; the interval
        # side costs one count() execution (callers with a known interval
        # count should pass num_buckets to skip it). Sizing from points
        # alone loses the bound when intervals >> points — the documented
        # width >> interval-length assumption bounds per-interval
        # REPLICATION, not the interval/point row ratio.
        num_buckets = derive_num_buckets(int(bounds["count()"]) + ivs.count())
    width = max((dhi - dlo) / num_buckets, 1e-9)

    def _bucket_of(v: np.ndarray) -> np.ndarray:
        return np.clip(((v - dlo) / width).astype(np.int64), 0, num_buckets - 1)

    def tag_points(t: pa.Table) -> pa.Table:
        v = _range_values(t[point_col].to_numpy(zero_copy_only=False))
        t = t.append_column("__bucket", pa.array(_bucket_of(v).astype(np.int32)))
        t = t.append_column("__side", pa.array(["p"] * len(t), pa.string()))
        return t.replace_schema_metadata(None)

    def tag_intervals(t: pa.Table) -> pa.Table:
        """Replicate each interval row to every bucket it overlaps
        (vectorized: np.repeat by per-row bucket-span counts)."""
        lo = _range_values(t[lo_col].to_numpy(zero_copy_only=False))
        hi = _range_values(t[hi_col].to_numpy(zero_copy_only=False))
        b0 = _bucket_of(lo)
        b1 = _bucket_of(hi)
        keep = hi >= lo  # degenerate intervals drop out early
        # intervals wholly outside the point domain still clip into an edge
        # bucket; the in-bucket sweep finds no points there — exact, just
        # one wasted row
        idx = np.arange(len(t))[keep]
        b0k, b1k = b0[keep], b1[keep]
        counts = (b1k - b0k + 1).astype(np.int64)
        rep_idx = np.repeat(idx, counts)
        # per-replica bucket: arange over the flattened spans
        offs = np.arange(counts.sum(), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        buckets = (np.repeat(b0k, counts) + offs).astype(np.int32)
        rep = t.take(pa.array(rep_idx))
        rep = rep.append_column("__bucket", pa.array(buckets))
        rep = rep.append_column("__side", pa.array(["i"] * len(rep), pa.string()))
        return rep.replace_schema_metadata(None)

    pt = pts.map_batches(tag_points, batch_format="pyarrow")
    it = ivs.map_batches(tag_intervals, batch_format="pyarrow")
    floor = _floor_sentinel(out_schema) if schema_floor else None
    both = pt.union(it, floor) if floor is not None else pt.union(it)

    def join_bucket(t: pa.Table) -> pa.Table:
        g = t.to_pandas(types_mapper=_nullable_types_mapper)
        p = g[g["__side"] == "p"].reindex(columns=p_cols)
        i = g[g["__side"] == "i"].reindex(columns=i_cols)
        if not len(p) or not len(i):
            return _to_arrow_clean(
                _empty_typed_frame(out_cols, spec), schema=out_schema
            )
        pv = _range_values(p[point_col].to_numpy())
        order = np.argsort(pv, kind="stable")
        pv = pv[order]
        p = p.iloc[order]
        lo = _range_values(i[lo_col].to_numpy())
        hi = _range_values(i[hi_col].to_numpy())
        starts = np.searchsorted(pv, lo, side="left")
        ends = np.searchsorted(pv, hi, side="right")
        counts = np.maximum(ends - starts, 0).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return _to_arrow_clean(
                _empty_typed_frame(out_cols, spec), schema=out_schema
            )
        i_idx = np.repeat(np.arange(len(i)), counts)
        p_idx = np.repeat(starts, counts) + (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        )
        out = pd.concat(
            [
                i.iloc[i_idx].reset_index(drop=True),
                p.iloc[p_idx].rename(columns=pmap).reset_index(drop=True)[
                    [c for c in p_out if c not in i_cols]
                ],
            ],
            axis=1,
        )
        return _to_arrow_clean(out[out_cols], schema=out_schema)

    return both.groupby("__bucket").map_groups(join_bucket, batch_format="pyarrow")


def partitioned_window(ds, key: str, order_cols: Sequence[str], apply_fn,
                       n_rows: Optional[int] = None):
    """Analytic (SQL ``OVER (PARTITION BY key ORDER BY ...)``) window
    functions: running sums, row_number/rank, lag/lead, moving averages.

    Ray Data has no window-function primitive, so this is the composition
    the semantics allow: one :func:`bucketed` shuffle on the PARTITION key
    (a key's rows all land in one bucket), stable-sort ``[key,
    *order_cols]`` inside the bucket, and run ``apply_fn`` — a VECTORIZED
    pandas transform over the sorted bucket frame (cumsum / cumcount /
    shift per group) — once per bucket. Shuffle volume is one pass over
    the input; no global sort. Partitioning assumption (same contract as
    :func:`asof_join` / sessionize): each key's rows fit a bucket worker;
    a single hot key still lands in one bucket by construction —
    pre-aggregate or split the frame definition if a key exceeds worker
    memory. ``n_rows``: rows of ``ds``; None counts ``ds``.

    ``apply_fn(g: pd.DataFrame) -> pd.DataFrame`` receives the bucket
    sorted by ``[key, *order_cols]`` (stable) and must emit the output
    columns; use ``g.groupby(key, sort=False)`` transforms inside.
    """
    sort_cols = [key, *order_cols]

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return apply_fn(g.sort_values(sort_cols, kind="stable"))

    return bucketed(ds, key, run_bucket,
                    n_rows=ds.count() if n_rows is None else n_rows)
