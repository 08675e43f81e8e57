"""The one fold of mergeable partial states: :func:`fold_keyed`.

Every global or per-key reduce in the package — schema states, sketches,
column profiles, CMVN statistics, Lloyd partials, per-label sums and
per-codec validation aggregates — has the reference's shape,
``RDD.map(jsonToSchema).reduce(_.merge(_))`` (SchemaGuruRDD.scala:62,89):
small state rows merged by an associative, commutative ``combine``,
optionally per key. This module alone decides where that merge runs.

The policy is two constants and nothing per call:

* up to ``DRIVER_FOLD_ROWS`` state rows, the driver pulls them and
  combines once; a shuffle's fixed plan cost would dominate such an input;
* above it, a map-side combiner collapses each batch, the survivors are
  hash-sharded by key into ``FANIN`` groups combined on workers, and the
  driver combines one row per key (at most ``FANIN`` rows when unkeyed).
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
