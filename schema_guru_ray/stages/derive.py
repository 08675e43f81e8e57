"""Per-batch schema derivation kernels (the map side of derive-then-merge).

Two paths:

* :func:`derive_arrow_batch` — vectorized derivation over a typed
  ``pyarrow.Table`` batch: one merged state per column computed with
  pyarrow.compute / numpy kernels (utf8 lengths, min/max, regex format
  masks, capped distincts). This replays the reference's per-value
  ``jsonToSchema`` + monoid fold (SchemaGenerator.scala:54-150,
  Helpers.scala:209-224) at column granularity — semantically identical
  because the per-value states of a homogeneous column merge pointwise.
* :func:`derive_json_batch` — per-document derivation for a column of JSON
  strings (the reference's actual input shape); the tree recursion is
  inherently per-row but states pre-merge inside the batch so only one tiny
  state leaves per batch.

Both emit pickled states; merging happens via
``schema_guru_ray.fold.fold_keyed`` (``pipelines.infer.fold_states``) or,
per segment, a grouped aggregate.
"""

from __future__ import annotations

import json
import pickle
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.schema import formats as fmt
from schema_guru_ray.schema.states import (
    ArrayState,
    BinaryState,
    BoolState,
    IntState,
    NullState,
    NumState,
    ObjectState,
    ProductState,
    State,
    StringState,
    TimestampState,
    ZeroState,
    ZERO,
    derive_with_errors,
    merge,
)

_UUID_RE = r"^[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}$"
_DT_CAND_RE = r"^\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}"
_IPV4_CAND_RE = r"^\d{1,3}(\.\d{1,3}){3}$"
_IPV6_CAND_RE = r"^[0-9a-fA-F:]*:[0-9a-fA-F:.]*$"
_URI_CAND_RE = r"^(https?|ftp)://"
_B64_RE = r"^([A-Za-z0-9+/]{4})*([A-Za-z0-9+/]{4}|[A-Za-z0-9+/]{3}=|[A-Za-z0-9+/]{2}==)$"


def _all_true(mask: pa.ChunkedArray | pa.Array) -> bool:
    res = pc.all(mask)
    return res.is_valid and res.as_py()


def _column_format(arr: pa.Array, n: int) -> Optional[str]:
    """Merged format of a string column: the shared first-match format, or
    None. Vectorized candidate regexes via pyarrow; exact validation (date
    parse, IP octet range) runs on np.unique of the values only when every
    value is a candidate — first-match precedence is preserved because the
    candidate families are mutually exclusive."""
    if _all_true(pc.match_substring_regex(arr, _UUID_RE)):
        return "uuid"
    if _all_true(pc.match_substring_regex(arr, _DT_CAND_RE)):
        vals = np.unique(arr.to_numpy(zero_copy_only=False))
        if all(fmt.is_datetime(v) for v in vals):
            return "date-time"
        return None
    if _all_true(pc.match_substring_regex(arr, _IPV4_CAND_RE)):
        vals = np.unique(arr.to_numpy(zero_copy_only=False))
        return "ipv4" if all(fmt.is_ipv4(v) for v in vals) else None
    if _all_true(pc.match_substring_regex(arr, _IPV6_CAND_RE)):
        vals = np.unique(arr.to_numpy(zero_copy_only=False))
        return "ipv6" if all(fmt.is_ipv6(v) for v in vals) else None
    if _all_true(pc.match_substring_regex(arr, _URI_CAND_RE)):
        vals = np.unique(arr.to_numpy(zero_copy_only=False))
        return "uri" if all(fmt.is_uri(v) for v in vals) else None
    return None


def _column_pattern(arr: pa.Array, ctx: SchemaContext) -> Optional[str]:
    """Merged base64 pattern (quantity rule: SchemaGenerator.scala:191-200)."""
    if ctx.quantity is not None and ctx.quantity < 10:
        lens = pc.utf8_length(arr)
        short = pc.any(pc.less(lens, 32))
        if short.is_valid and short.as_py():
            return None
    return fmt.BASE64_PATTERN if _all_true(pc.match_substring_regex(arr, _B64_RE)) else None


def _column_enum(arr: pa.Array, ctx: SchemaContext, cast=lambda v: v):
    """Capped distinct set following constructEnum + mergeEnums semantics at
    column granularity."""
    if ctx.enum_cardinality == 0 and not ctx.enum_sets:
        return None
    uniq = pc.unique(arr)
    if len(uniq) > ctx.enum_keep_threshold:
        return None
    values = frozenset(cast(v) for v in uniq.to_pylist())
    if ctx.enum_cardinality == 0:
        # every value must be a member of some predefined set, else a
        # per-value None tombstone would have poisoned the merge
        if not all(ctx.in_any_enum_set(v) for v in values):
            return None
    return values


def derive_column(arr, typ: pa.DataType, ctx: SchemaContext) -> State:
    """State for one non-null-stripped Arrow array of the given type."""
    n = len(arr)
    if n == 0:
        return ZERO
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        lens = pc.min_max(pc.utf8_length(arr))
        return StringState(
            format=_column_format(arr, n),
            pattern=_column_pattern(arr, ctx),
            min_length=lens["min"].as_py() if ctx.derive_length else None,
            max_length=lens["max"].as_py() if ctx.derive_length else None,
            enum=_column_enum(arr, ctx),
        )
    if pa.types.is_integer(typ):
        mm = pc.min_max(arr)
        return IntState(mm["min"].as_py(), mm["max"].as_py(), _column_enum(arr, ctx))
    if pa.types.is_floating(typ):
        mm = pc.min_max(arr)
        return NumState(
            mm["min"].as_py(), mm["max"].as_py(), _column_enum(arr, ctx, float)
        )
    if pa.types.is_boolean(typ):
        return BoolState()
    if pa.types.is_timestamp(typ):
        mm = pc.min_max(arr.cast(pa.int64()))
        return TimestampState(mm["min"].as_py(), mm["max"].as_py())
    if pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
        lens = pc.min_max(pc.binary_length(arr))
        return BinaryState(lens["min"].as_py(), lens["max"].as_py())
    if pa.types.is_list(typ) or pa.types.is_large_list(typ):
        flat = pc.list_flatten(arr)
        inner = derive_column(pc.drop_null(flat), typ.value_type, ctx)
        if flat.null_count > 0:
            inner = merge(inner, NullState(), ctx)
        return ArrayState(inner)
    if pa.types.is_struct(typ):
        props: Dict[str, State] = {}
        for f in typ:
            child = pc.struct_field(arr, f.name)
            props[f.name] = _with_nulls(child, f.type, ctx)
        return ObjectState(props)
    if pa.types.is_null(typ):
        return NullState()
    if pa.types.is_decimal(typ):
        mm = pc.min_max(arr)
        return NumState(float(mm["min"].as_py()), float(mm["max"].as_py()), None)
    if pa.types.is_date(typ):
        mm = pc.min_max(arr.cast(pa.int64()))
        return TimestampState(mm["min"].as_py(), mm["max"].as_py())
    raise TypeError(f"unsupported Arrow type for schema derive: {typ}")


def _with_nulls(arr, typ, ctx: SchemaContext) -> State:
    """Derive a column state, merging in a NullState when nulls are present
    (a JSON null merges to a [T, null] product — SchemaGenerator.scala:102)."""
    nn = arr.null_count
    st = derive_column(pc.drop_null(arr) if nn else arr, typ, ctx)
    if nn:
        st = merge(st, NullState(), ctx)
    return st


def derive_arrow_batch(batch: pa.Table, ctx: SchemaContext) -> ObjectState:
    """One merged ObjectState for a whole Arrow batch (column name → state).
    Equivalent to deriving each row as a JSON object and folding — the
    per-batch partial state of the distributed monoid."""
    props = {
        name: _with_nulls(batch.column(name).combine_chunks(), batch.schema.field(name).type, ctx)
        for name in batch.column_names
    }
    return ObjectState(props)


def derive_json_batch(values, ctx: SchemaContext) -> Tuple[State, List[str]]:
    """Parse + derive + fold a batch of JSON strings. Returns (state,
    errors); parse failures become error strings, not exceptions
    (SchemaDerive.scala:159-169 error capture)."""
    docs, errors = [], []
    for i, s in enumerate(values):
        if s is None:
            continue
        try:
            docs.append(json.loads(s))
        except (ValueError, TypeError) as e:
            errors.append(f"doc {i}: invalid JSON: {e}")
    state, derive_errors = derive_with_errors(docs, ctx)
    return state, errors + derive_errors


class StateBatcher:
    """map_batches kernel: batch → one serialized partial state row.

    Stateless task by design (no per-actor state needed); ships the frozen
    SchemaContext once in the closure. Output rows are tiny (KBs) no matter
    how wide the input batch — only states cross stage boundaries.
    """

    def __init__(self, ctx: SchemaContext, json_column: Optional[str] = None,
                 segment_key: Optional[str] = None,
                 segment_jsonpath: Optional[str] = None):
        self.ctx = ctx
        self.json_column = json_column
        self.segment_key = segment_key
        self.segment_jsonpath = segment_jsonpath
        if segment_jsonpath is not None:
            from schema_guru_ray.schema.jsonpath import parse_path

            parse_path(segment_jsonpath)  # fail fast on bad paths

    def _segment_by_jsonpath(self, batch: pa.Table):
        """--schema-by semantics: key = normalized JSONPath lookup per doc
        (JsonPathExtractorRDD.scala:53-88); derive pre-merges per key."""
        import json as _json

        from schema_guru_ray.schema.jsonpath import UNMATCHED, segment_key
        from schema_guru_ray.schema.states import derive_instance

        groups: dict = {}
        errors: dict = {}
        counts: dict = {}
        for s in batch.column(self.json_column).to_pylist():
            key = UNMATCHED
            try:
                doc = _json.loads(s)
                key = segment_key(self.segment_jsonpath, doc)
                st = derive_instance(doc, self.ctx)
                groups[key] = merge(groups.get(key, ZERO), st, self.ctx)
            except (ValueError, TypeError):
                errors[key] = errors.get(key, 0) + 1
                groups.setdefault(key, ZERO)
            counts[key] = counts.get(key, 0) + 1  # exactly once per row
        return [
            (k, pickle.dumps(groups[k]), errors.get(k, 0), counts.get(k, 0))
            for k in groups
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: List[Tuple[str, bytes, int, int]] = []
        if self.segment_jsonpath is not None:
            rows = self._segment_by_jsonpath(batch)
        elif self.segment_key is None:
            state, errors = self._derive(batch)
            rows.append(("", pickle.dumps(state), len(errors), batch.num_rows))
        else:
            # pre-merge per (batch × key): only one small state per key
            # leaves each batch regardless of row skew (SURVEY.md §7.3)
            keys = batch.column(self.segment_key)
            for key in pc.unique(keys).to_pylist():
                if key is None:
                    sub = batch.filter(pc.is_null(keys))
                    key = "unmatched"  # reference JsonPathExtractor failed bucket
                else:
                    sub = batch.filter(pc.equal(keys, key))
                state, errors = self._derive(sub)
                rows.append((str(key), pickle.dumps(state), len(errors), sub.num_rows))
        return pa.Table.from_arrays(
            [
                pa.array([r[0] for r in rows], pa.string()),
                pa.array([r[1] for r in rows], pa.binary()),
                pa.array([r[2] for r in rows], pa.int64()),
                pa.array([r[3] for r in rows], pa.int64()),
            ],
            names=["segment", "state", "n_errors", "n_rows"],
        )

    def _derive(self, batch: pa.Table):
        if self.json_column is not None:
            return derive_json_batch(
                batch.column(self.json_column).to_pylist(), self.ctx
            )
        return derive_arrow_batch(batch, self.ctx), []
