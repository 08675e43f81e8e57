"""The one fold of mergeable partial states, :func:`fold_keyed`, and its
item-level sibling, :func:`map_items`.

Every global or per-key reduce in the package — schema states, sketches,
column profiles, CMVN statistics, Lloyd partials, per-label sums and
per-codec validation aggregates — has the reference's shape,
``RDD.map(jsonToSchema).reduce(_.merge(_))`` (SchemaGuruRDD.scala:62,89):
small state rows merged by an associative, commutative ``combine``,
optionally per key. The nightly baseline refresh is the same reduce one
level up: per-partition sketch blobs, KLL-merged. This module alone
decides where either runs.

The policy is two constants and nothing per call:

* up to ``DRIVER_FOLD_ROWS`` state rows (or driver-known items such as
  partition dirs), the driver handles them in one call; a Ray Data plan's
  fixed cost would dominate such an input;
* above it, :func:`fold_keyed` collapses each batch in a map-side
  combiner, hash-shards the survivors by key into ``FANIN`` groups
  combined on workers, and combines one row per key on the driver (at
  most ``FANIN`` rows when unkeyed); :func:`map_items` runs Ray tasks of
  ``FANIN`` items each.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from schema_guru_ray.stages.profile import stable_hash64

DRIVER_FOLD_ROWS = 512
FANIN = 64


def fold_keyed(parts, key: Sequence[str],
               combine: Callable[[pd.DataFrame], pd.DataFrame]) -> pd.DataFrame:
    """Fold a Dataset of state rows to one row per distinct ``key`` value
    (one row in all when ``key`` is empty).

    ``combine(frame)`` takes any number of state rows and returns one row
    per distinct key value with the same columns; it must be associative
    and commutative, and treat a null key as its own group. Zero input
    rows return an empty frame, which each caller maps to its identity.

    In the tree regime every row of one key lands in one shard — the
    shard is ``stable_hash64`` of the key columns (of the whole row when
    unkeyed) mod ``FANIN`` — and the blocks entering the shuffle are
    Arrow tables."""
    key = list(key)
    parts = parts.materialize()  # tiny rows; counting must not re-run them
    n = parts.count()
    if n == 0:
        return pd.DataFrame()
    if n <= DRIVER_FOLD_ROWS:
        return combine(parts.to_pandas())
    fanin = np.uint64(FANIN)  # read here: workers never see a patched value

    def combine_batch(batch: pd.DataFrame) -> pa.Table:
        out = combine(batch)  # a 4096-row batcher never yields an empty batch
        shard = (stable_hash64(out[key] if key else out) % fanin).astype(np.int32)
        return pa.Table.from_pandas(out.assign(__shard=shard), preserve_index=False)

    def combine_shard(group: pd.DataFrame) -> pd.DataFrame:
        return combine(group.drop(columns="__shard"))

    shards = (
        parts.map_batches(combine_batch, batch_format="pandas", batch_size=4096)
        .groupby("__shard")
        .map_groups(combine_shard, batch_format="pandas")
    )
    return combine(shards.to_pandas())


def map_items(items: list, fn: Callable[[list], pd.DataFrame]) -> pd.DataFrame:
    """Apply ``fn(list_of_items) -> frame`` to driver-known ``items`` (e.g.
    partition dirs) and return the concatenated frames. ``fn`` must return
    the same columns and dtypes for any sublist, so a caller's reduce of
    the frames (e.g. ``merge_stores``) is the same in both regimes.

    Up to ``DRIVER_FOLD_ROWS`` items, ``fn`` runs once on the driver with
    no Ray Data execution. Above it, Ray tasks of ``FANIN`` items each run
    it; Ray Data ships ``fn`` (and what it captures) to the object store
    once per operator, not per task. A task failure is re-raised as
    ValueError: it surfaces as a RayTaskError, which a caller's typed
    fallback would not catch."""
    if len(items) <= DRIVER_FOLD_ROWS:
        return fn(items)
    import ray.data as rd
    from ray.exceptions import RayError

    ds = rd.from_items([{"item": x} for x in items],
                       override_num_blocks=-(-len(items) // FANIN))
    try:
        return ds.map_batches(lambda b: fn(list(b["item"])), batch_format="pandas",
                              batch_size=FANIN).to_pandas()
    except RayError as exc:
        raise ValueError(f"map_items task failed: {exc}") from exc
