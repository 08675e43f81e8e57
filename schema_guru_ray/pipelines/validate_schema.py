"""Row-level constraint validation against a JSON Schema — the closed loop
between inference and validation: derive a schema from a reference corpus,
then stream any corpus through it and emit one violation row per failed
constraint.

This is the engine's generalization of the reference's round-trip contract
(RandomValidSpec.scala:35-69: every instance validates against its own
derived schema) into a production validation stage: the schema dict is tiny
and ships in the task closure; rows never leave their batch; violations are
a Dataset (never collected to the driver).

Each batch compiles the schema once (``finalize.compile_schema``: a tree of
per-node checker closures, tens of microseconds for an event schema) and
checks its values with it; the checkers return the exact messages of the
interpreting ``finalize.validate_instance``, which stays as their oracle.
There is no cache across batches: a compile is far below a batch's fixed
cost (about 50 µs for the perfbench event schema on one CPU).
"""

from __future__ import annotations

import datetime as _dt
import json
from typing import Any, Dict, List, Optional

import pyarrow as pa

from schema_guru_ray.schema.finalize import compile_schema


def _validate_json_batch(batch: pa.Table, *, schema: Dict[str, Any],
                         json_column: str, id_column: Optional[str]) -> pa.Table:
    check = compile_schema(schema)
    ids = (
        batch.column(id_column).to_pylist()
        if id_column
        else list(range(batch.num_rows))
    )
    out_ids: List[Any] = []
    out_errs: List[str] = []
    for rid, s in zip(ids, batch.column(json_column).to_pylist()):
        if s is None:
            continue
        try:
            doc = json.loads(s)
        except (ValueError, TypeError) as e:
            out_ids.append(rid)
            out_errs.append(f"$: invalid JSON: {e}")
            continue
        for err in check(doc):
            out_ids.append(rid)
            out_errs.append(err)
    return pa.Table.from_arrays(
        [pa.array([str(i) for i in out_ids], pa.string()), pa.array(out_errs, pa.string())],
        names=["row_id", "violation"],
    )


_SCALAR_KEYS = {"type", "minLength", "maxLength", "minimum", "maximum", "enum"}


def _candidate_mask(batch: pa.Table, c: str, sub: Dict[str, Any]):
    """Vectorized PRE-FILTER for one column: a bool mask that is a SUPERSET
    of the rows the schema's checker would flag (None = cannot prove
    anything, every row is a candidate). Exactness argument: for scalar
    values the checker checks only type / length / bounds / enum
    (finalize.validate_instance), each of which is replicated here with a
    conservative (⊇) mask; any subschema with non-scalar structure or an
    Arrow column type outside {int, float, bool, string} falls back to
    all-candidates. Rows OUTSIDE the mask are provably clean and skip the
    per-row Python loop entirely — on a conforming corpus that is ~all of
    them."""
    import numpy as np

    if not sub:
        return np.zeros(batch.num_rows, bool)  # {} validates everything
    if not set(sub) <= _SCALAR_KEYS:
        return None  # properties/items/unknown vocabulary → exact loop
    at = batch.schema.field(c).type
    if pa.types.is_integer(at):
        vt = "integer"
    elif pa.types.is_floating(at):
        vt = "number"
    elif pa.types.is_boolean(at):
        vt = "boolean"
    elif pa.types.is_string(at) or pa.types.is_large_string(at):
        vt = "string"
    else:
        return None  # timestamps (isoformat rendering) etc. → exact loop

    typ = sub.get("type")
    types = typ if isinstance(typ, list) else [typ] if typ else []
    if types:
        ok = vt in types or (vt == "integer" and "number" in types)
        if not ok:
            return None  # every non-null row fails the type check
    s = batch.column(c).to_pandas()
    nulls = s.isna().to_numpy()
    m = np.zeros(batch.num_rows, bool)
    if types and "null" not in types:
        m |= nulls
    if vt in ("integer", "number"):
        v = s.to_numpy(dtype=float, na_value=np.nan)
        with np.errstate(invalid="ignore"):
            if "minimum" in sub:
                m |= v < float(sub["minimum"])
            if "maximum" in sub:
                m |= v > float(sub["maximum"])
            if "minimum" in sub or "maximum" in sub:
                # float64 can't order values/bounds exactly past 2^53 —
                # such rows go to the exact per-row loop so the mask stays
                # a superset of the true violations
                m |= np.abs(v) >= 2.0 ** 53
    if vt == "string":
        if "minLength" in sub or "maxLength" in sub:
            ln = s.str.len()
            if "minLength" in sub:
                m |= (ln < sub["minLength"]).fillna(False).to_numpy()
            if "maxLength" in sub:
                m |= (ln > sub["maxLength"]).fillna(False).to_numpy()
    if "enum" in sub and vt != "boolean":
        # drop bool enum entries: pandas isin says True == 1, the
        # validator's enum_match does not — a member must match a NON-bool
        # entry to be provably clean (non-members go to the exact loop)
        enum_nb = [e for e in sub["enum"] if not isinstance(e, bool)]
        m |= (~s.isin(enum_nb)).to_numpy() & ~nulls
    return m


def _validate_row_batch(batch: pa.Table, *, schema: Dict[str, Any],
                        id_column: Optional[str]) -> pa.Table:
    """Typed-table path: each row validated as an object of its columns
    (binary columns skipped — content checks live in the audio stage).
    A vectorized per-column candidate mask (:func:`_candidate_mask`)
    proves conforming rows clean without touching Python objects; the
    exact checker compiled from each column's subschema
    (``finalize.compile_schema``) runs only over flagged (row, column)
    cells, preserving the row-major violation order of the naive loop."""
    import numpy as np

    cols = [
        c for c in batch.column_names
        if not pa.types.is_binary(batch.schema.field(c).type)
        and not pa.types.is_large_binary(batch.schema.field(c).type)
    ]
    props = schema.get("properties", {})
    ids = (
        batch.column(id_column).to_pylist()
        if id_column and id_column in batch.column_names
        else list(range(batch.num_rows))
    )
    hits: List = []  # (row_idx, col_order, row_id, err)
    for ci, c in enumerate(cols):
        sub = props.get(c)
        if sub is None:
            continue
        mask = _candidate_mask(batch, c, sub)
        idxs = range(batch.num_rows) if mask is None else np.flatnonzero(mask)
        if mask is not None and not len(idxs):
            continue
        data = batch.column(c).to_pylist()
        check, path = compile_schema(sub), f"$.{c}"
        for i in idxs:
            v = data[i]
            if isinstance(v, float) and v != v:  # NaN → null semantics
                v = None
            elif isinstance(v, (_dt.datetime, _dt.date)):
                v = v.isoformat()  # timestamps render as date-time strings
            for err in check(v, path):
                hits.append((int(i), ci, ids[i], err))
    hits.sort(key=lambda h: (h[0], h[1]))
    return pa.Table.from_arrays(
        [
            pa.array([str(h[2]) for h in hits], pa.string()),
            pa.array([h[3] for h in hits], pa.string()),
        ],
        names=["row_id", "violation"],
    )


def validate_against_schema(ds, schema: Dict[str, Any],
                            json_column: Optional[str] = None,
                            id_column: Optional[str] = None,
                            batch_size: int = 8192):
    """Stream a Dataset through a JSON Schema; returns a violations Dataset
    (row_id, violation). ``json_column``: validate parsed documents from
    that string column; otherwise validate typed rows column-wise."""
    if json_column is not None:
        return ds.map_batches(
            _validate_json_batch,
            fn_kwargs=dict(schema=schema, json_column=json_column, id_column=id_column),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    return ds.map_batches(
        _validate_row_batch,
        fn_kwargs=dict(schema=schema, id_column=id_column),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
