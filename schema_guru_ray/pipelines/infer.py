"""Schema-inference pipelines (the reference's primary entry points,
re-expressed Ray-Data-first).

Topology (SURVEY.md §3.5): ``Dataset`` → ``map_batches(StateBatcher)``
emitting one tiny pickled partial state per batch (per segment key when
segmented) → merge:

* global: the per-batch states are a few KB × #batches — they fold through
  :func:`schema_guru_ray.fold.fold_keyed`, on the driver when few and
  through a sharded worker level first when many (the reference's
  ``RDD.reduce`` final merge, SchemaGuruRDD.scala:89, without ever
  collecting rows);
* segmented: ``groupby('segment').map_groups(merge)`` over states only —
  the rows themselves never shuffle, unlike the reference's
  ``RDD.groupBy`` which materializes whole groups
  (JsonPathExtractorRDD.scala:73-88).
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, Optional

import pandas as pd

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.fold import fold_keyed
from schema_guru_ray.schema.finalize import describe, merge_and_transform
from schema_guru_ray.schema.keys import duplicate_key_pairs, extract_keys
from schema_guru_ray.schema.states import ZERO, State, merge
from schema_guru_ray.stages.derive import StateBatcher
from schema_guru_ray.state.checkpoint import (
    FILES_PER_PARTITION,
    active_dirs,
    config_hash,
    partition_digest,
    run_incremental,
)


def fold_states(states_ds, ctx: SchemaContext,
                est_states: Optional[int] = None) -> Dict[str, Any]:
    """Merge the per-batch state rows into one global state through
    :func:`schema_guru_ray.fold.fold_keyed` (unkeyed; the states merge
    associatively, hypothesis-tested). Returns {state, n_errors, n_rows}.

    ``est_states`` is accepted and ignored: ``fold_keyed`` picks its
    regime from the row count, and existing callers still pass it."""

    def combine(frame: pd.DataFrame) -> pd.DataFrame:
        acc: State = ZERO
        for buf in frame["state"]:
            acc = merge(acc, pickle.loads(buf), ctx)
        return pd.DataFrame({
            "state": [pickle.dumps(acc)],
            "n_errors": [int(frame["n_errors"].sum())],
            "n_rows": [int(frame["n_rows"].sum())],
        })

    out = fold_keyed(states_ds, [], combine)
    if out.empty:
        return {"state": ZERO, "n_errors": 0, "n_rows": 0}
    return {"state": pickle.loads(out["state"].iloc[0]),
            "n_errors": int(out["n_errors"].iloc[0]),
            "n_rows": int(out["n_rows"].iloc[0])}


def infer_schema(
    ds,
    ctx: SchemaContext = SchemaContext(),
    json_column: Optional[str] = None,
    vendor: Optional[str] = None,
    name: Optional[str] = None,
    version: str = "1-0-0",
    batch_size: int = 8192,
) -> Dict[str, Any]:
    """Global schema inference over a Dataset. When ``json_column`` is given,
    documents are parsed from that string column (the reference's JSON-corpus
    shape); otherwise the typed Arrow columns are derived directly.

    Returns {schema, warnings, n_errors, n_rows}. The heavy work streams;
    only serialized states reach the driver."""
    if ctx.quantity is None:
        # corpus-size-dependent rules (base64, SchemaGenerator.scala:191-200)
        # need the row count up front — cheap parquet-metadata count
        from dataclasses import replace as _replace

        ctx = _replace(ctx, quantity=ds.count())
    states = ds.map_batches(
        StateBatcher(ctx, json_column=json_column),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    folded = fold_states(states, ctx)
    state = folded["state"]
    schema = merge_and_transform(state, ctx)
    if vendor and name:
        schema = describe(schema, vendor, name, version)
    return {
        "schema": schema,
        "warnings": sorted(duplicate_key_pairs(extract_keys(state))),
        "n_errors": folded["n_errors"],
        "n_rows": folded["n_rows"],
    }


def infer_schema_checkpointed(
    input_files,
    out_dir: str,
    ctx: SchemaContext = SchemaContext(),
    json_column: Optional[str] = None,
    files_per_partition: int = FILES_PER_PARTITION,
    batch_size: int = 8192,
    log=None,
) -> Dict[str, Any]:
    """Checkpointed/resumable global schema inference over a file list
    (north rule: resumable from per-partition checkpoints with lineage +
    metrics — the validate pipeline's layout, applied to INFER).

    Each content-addressed chunk of ``files_per_partition`` input files
    derives and folds its own state and commits ``state.pkl`` +
    ``_SUCCESS.json`` (input lineage + config hash) atomically; a rerun
    skips finished chunks, an append re-runs only the changed ones, a
    config change invalidates them. The final schema merges the run's
    active partition states — the merge is associative, so a resumed run
    yields byte-identical output to a fresh one (tested).

    Returns {schema, warnings, n_errors, n_rows, manifest}."""
    import json as _json

    import ray.data as rd

    # corpus-size-dependent rules (base64 quantity gate) must see the
    # TOTAL corpus size, not a per-partition count — otherwise the schema
    # would depend on the chunking and diverge from infer_schema
    if ctx.quantity is None:
        from dataclasses import replace as _replace

        total = rd.read_parquet(list(input_files)).count()  # metadata-cheap
        ctx = _replace(ctx, quantity=total)

    # the quantity gate only asks "quantity < 10" (formats.suggest_pattern),
    # so hashing that bit rather than the count keeps an append from
    # invalidating every chunk's state
    cfg_hash = config_hash(
        {
            "ctx": {k: str(v) for k, v in sorted(vars(ctx).items())
                    if k != "quantity"},
            "small_corpus": ctx.quantity < 10,
            "json_column": json_column,
            "batch_size": batch_size,
        }
    )

    def process(files, tmp_dir):
        ds = rd.read_parquet(files)
        states = ds.map_batches(
            StateBatcher(ctx, json_column=json_column),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
        folded = fold_states(states, ctx)
        with open(os.path.join(tmp_dir, "state.pkl"), "wb") as f:
            pickle.dump(folded["state"], f)
        return {"n_errors": folded["n_errors"], "n_rows": folded["n_rows"]}

    manifest = run_incremental(
        input_files, out_dir,
        lambda chunks, _: [process(f, d) for f, d in chunks], cfg_hash=cfg_hash,
        files_per_partition=files_per_partition, log=log,
    )

    # merge EXACTLY this run's active set — never orphaned chunks a
    # previous run over other inputs left in out_dir — and cross-check
    # each _SUCCESS against the current config + lineage (the digest is
    # the content address of the chunk's inputs)
    acc: State = ZERO
    n_errors = 0
    n_rows = 0
    active = manifest["active"]
    for digest, pdir in zip(active, active_dirs(out_dir, active)):
        with open(os.path.join(pdir, "_SUCCESS.json")) as f:
            meta = _json.load(f)
        if (meta.get("config_hash") != cfg_hash
                or partition_digest(meta.get("inputs", [])) != digest):
            raise RuntimeError(
                f"checkpoint {pdir} does not match this run's config/lineage"
            )
        with open(os.path.join(pdir, "state.pkl"), "rb") as f:
            acc = merge(acc, pickle.load(f), ctx)
        n_errors += meta["metrics"]["n_errors"]
        n_rows += meta["metrics"]["n_rows"]
    schema = merge_and_transform(acc, ctx)
    return {
        "schema": schema,
        "warnings": sorted(duplicate_key_pairs(extract_keys(acc))),
        "n_errors": n_errors,
        "n_rows": n_rows,
        "manifest": manifest,
    }


def infer_schema_segmented(
    ds,
    segment_key: str,
    ctx: SchemaContext = SchemaContext(),
    json_column: Optional[str] = None,
    batch_size: int = 8192,
):
    """Per-segment schema inference (the reference's ``--schema-by``,
    SchemaDerive.scala:101-118) as a true grouped aggregation.

    ``segment_key`` is either a column name, or — with ``json_column`` — a
    JSONPath (``$.event``) evaluated against each document with the
    reference's key normalization (JsonPathExtractor.scala:39-78).

    Returns a Dataset of rows (segment, schema_json, n_errors, n_rows) —
    suitable for partitioned write; never materializes groups of rows."""
    is_path = segment_key.startswith("$")
    states = ds.map_batches(
        StateBatcher(
            ctx,
            json_column=json_column,
            segment_key=None if is_path else segment_key,
            segment_jsonpath=segment_key if is_path else None,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        acc: State = ZERO
        for buf in g["state"]:
            acc = merge(acc, pickle.loads(buf), ctx)
        import json as _json

        return pd.DataFrame(
            {
                "segment": [g["segment"].iloc[0]],
                "schema_json": [_json.dumps(merge_and_transform(acc, ctx), sort_keys=True)],
                "n_errors": [int(g["n_errors"].sum())],
                "n_rows": [int(g["n_rows"].sum())],
            }
        )

    return states.groupby("segment").map_groups(merge_group, batch_format="pandas")
