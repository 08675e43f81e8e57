"""Schema inference / evolution / roundtrip-validate queries — part of the catalog backing __ray_entry__.queries().

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
    _read,
)



# --- schema inference -------------------------------------------------------


def schema_infer_lineitem(sf_dir: str):
    """Merged JSON Schema of the lineitem table (rows-only: JSON output)."""
    from schema_guru_ray.pipelines.infer import infer_schema

    ds = _read(sf_dir, "lineitem")
    res = infer_schema(ds, SchemaContext(enum_cardinality=5))
    return pd.DataFrame(
        {
            "schema_json": [json.dumps(res["schema"], sort_keys=True)],
            "n_rows": [res["n_rows"]],
            "n_errors": [res["n_errors"]],
        }
    )


def schema_infer_events_props(sf_dir: str):
    """Schema of the JSON documents in events.props (the reference's exact
    input shape: a corpus of JSON instances)."""
    from schema_guru_ray.pipelines.infer import infer_schema

    ds = _read(sf_dir, "events", ["props"])
    res = infer_schema(ds, SchemaContext(enum_cardinality=4), json_column="props")
    return pd.DataFrame(
        {
            "schema_json": [json.dumps(res["schema"], sort_keys=True)],
            "n_rows": [res["n_rows"]],
            "n_errors": [res["n_errors"]],
        }
    )


def schema_segmented_events(sf_dir: str):
    """Per-event-type schema (the reference's --schema-by). The n_rows
    accounting is SQL-checkable; schemas ride along as JSON."""
    from schema_guru_ray.pipelines.infer import infer_schema_segmented

    from schema_guru_ray.pipelines.queries._common import _pandas_cols

    ds = _read(sf_dir, "events")
    out = _pandas_cols(
        infer_schema_segmented(ds, "event_type", SchemaContext()),
        ["segment", "n_rows"], {"n_rows": "int64"},
    )
    return out[["segment", "n_rows"]].astype({"n_rows": "int64"})


SCHEMA_SEGMENTED_EVENTS_SQL = """
SELECT event_type AS segment, count(*) AS n_rows FROM events GROUP BY event_type
"""


def schema_evolution_events(sf_dir: str):
    """Schema-evolution closed loop: infer v1 from a projected events table
    and v2 from the full table, then run the migration diff
    (schema/ddl.schema_diff — added/modified/removed, Migrations.scala
    semantics). The added set must equal the projected-away columns, which
    the oracle reads from information_schema."""
    from schema_guru_ray.pipelines.infer import infer_schema
    from schema_guru_ray.schema.ddl import schema_diff

    v1_cols = ["event_id", "event_type", "ts"]
    v1 = infer_schema(_read(sf_dir, "events", v1_cols), SchemaContext())["schema"]
    v2 = infer_schema(_read(sf_dir, "events"), SchemaContext())["schema"]
    d = schema_diff(v1, [v2])
    rows = (
        [("added", p) for p, _ in d["added"]]
        + [("modified", p) for p, _ in d["modified"]]
        + [("removed", p) for p in d["removed"]]
    )
    return pd.DataFrame(rows, columns=["change", "property"])


SCHEMA_EVOLUTION_EVENTS_SQL = """
SELECT 'added' AS change, column_name AS property
FROM information_schema.columns
WHERE table_name = 'events'
  AND column_name NOT IN ('event_id', 'event_type', 'ts')
"""


def schema_roundtrip_validate_events(sf_dir: str):
    """The inference→validation closed loop: derive a schema from the
    events table, then (a) validate the table against it — zero violations
    by the round-trip contract — and (b) validate a deterministically
    perturbed copy — violations flagged. Returns per-scenario violation
    counts (rows-only)."""
    from schema_guru_ray.pipelines.infer import infer_schema
    from schema_guru_ray.pipelines.validate_schema import validate_against_schema

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value", "user_id"])
    schema = infer_schema(ds, SchemaContext(enum_cardinality=8))["schema"]

    clean_violations = validate_against_schema(ds, schema, id_column="event_id").count()

    def perturb(t: pa.Table) -> pa.Table:
        import pandas as pd_

        df = t.to_pandas()
        # deterministic corruption: every 10th row gets an out-of-range value
        # and an unseen event_type
        idx = df.index[df["event_id"] % 10 == 0]
        df.loc[idx, "value"] = 1e12
        df.loc[idx, "event_type"] = "___corrupted___"
        return pa.Table.from_pandas(df, preserve_index=False)

    perturbed = ds.map_batches(perturb, batch_format="pyarrow")
    bad_violations = validate_against_schema(perturbed, schema, id_column="event_id").count()
    return pd.DataFrame(
        {
            "scenario": ["clean", "perturbed"],
            "n_violations": [clean_violations, bad_violations],
        }
    )
