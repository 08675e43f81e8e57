"""Finalization transforms + JSON Schema rendering + instance validation.

Replays the reference's post-merge pipeline (SchemaGuru.scala:73-84):

1. ``encase_numeric_range`` — clamp int bounds to Int16/32/64 bands; number
   min → 0 when non-negative, max dropped (Helpers.scala:151-201).
2. ``correct_max_lengths`` — ipv4 → 15, ipv6 → 39, uri → 8192
   (Helpers.scala:115-125).
3. enum cap + predefined substitution — deferred from merge time so the
   distributed merge is order-independent (Helpers.scala:94-107,
   SchemaWithEnum.scala:57-70; see states.py docstring).

Then renders to a JSON Schema dict with the same property vocabulary as the
reference (type/format/pattern/minLength/maxLength/minimum/maximum/enum,
``additionalProperties: false`` on objects — ObjectSchema.scala:35-37), with
canonical ordering (sorted enums, fixed product slot order) so any merge
order yields identical bytes (SURVEY.md §4 last row).

``validate_instance`` is the matching validator (RandomValidSpec.scala:35-69
round-trip contract: every instance validates against its own derived
schema). ``compile_schema`` builds the same validator as a tree of checker
closures, which the constraint-validation pipelines run; the interpreter
stays as its test oracle.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.schema.states import (
    ArrayState,
    BinaryState,
    BoolState,
    IntState,
    NullState,
    NumState,
    ObjectState,
    PRODUCT_SLOTS,
    ProductState,
    State,
    StringState,
    TimestampState,
    ZeroState,
)

INT16_MAX = 32767
INT32_MAX = 2147483647
INT64_MAX = 9223372036854775807

# sorted by size; positive bands first (Helpers.scala:156-163)
_INT_RANGES: Tuple[Tuple[int, int], ...] = (
    (0, INT16_MAX),
    (-INT16_MAX - 1, INT16_MAX),
    (0, INT32_MAX),
    (-INT32_MAX - 1, INT32_MAX),
    (0, INT64_MAX),
    (-INT64_MAX - 1, INT64_MAX),
)


def guess_range(minimum: Optional[int], maximum: Optional[int]):
    """Pick the smallest Int16/32/64 band containing [min, max]
    (Helpers.scala:175-182). Falls back to (None, None)."""
    if minimum is not None and maximum is not None:
        for lo, hi in _INT_RANGES:
            if lo <= minimum and hi >= maximum:
                return lo, hi
        return None, None
    if minimum is None and maximum is not None:
        for _, hi in _INT_RANGES:
            if hi >= maximum:
                return None, hi
        return None, None
    return None, None


def _finalize_enum(enum, ctx: SchemaContext):
    """Deferred cap + predefined substitution. Returns a canonically sorted
    list or None (Helpers.scala:94-107; SchemaWithEnum.scala:57-70)."""
    if not enum:  # None tombstone or empty set
        return None
    s = ctx.first_superset(enum)
    if s is not None:
        return _sort_enum(s.values)
    if 0 < len(enum) <= ctx.enum_cardinality:
        return _sort_enum(enum)
    return None


def _sort_enum(values):
    return sorted(values, key=lambda v: (type(v).__name__, str(v)))


def finalize(state: State, ctx: SchemaContext) -> State:
    """Apply all finalization transforms recursively (the reference's
    ``.transform(...)`` chain, SchemaGuru.scala:73-79)."""
    if isinstance(state, ObjectState):
        return ObjectState({k: finalize(v, ctx) for k, v in state.properties.items()})
    if isinstance(state, ArrayState):
        return ArrayState(finalize(state.items, ctx))
    if isinstance(state, ProductState):
        return ProductState({t: finalize(s, ctx) for t, s in state.slots.items()})
    if isinstance(state, IntState):
        lo, hi = guess_range(state.minimum, state.maximum)
        return IntState(lo, hi, state.enum)
    if isinstance(state, NumState):
        # Helpers.scala:197-200: min → 0 if non-negative else dropped; max dropped
        mn = 0.0 if (state.minimum is not None and state.minimum >= 0) else None
        return NumState(mn, None, state.enum)
    if isinstance(state, StringState) and state.format is not None and state.max_length is not None:
        fixed = {"ipv4": 15, "ipv6": 39, "uri": 8192}.get(state.format)
        if fixed is not None:
            return replace(state, max_length=fixed)
    return state


# --- rendering --------------------------------------------------------------


def _num_json(v: Optional[float]):
    # NumberSchema.toJson renders minimum 0.0 as integer 0 (NumberSchema.scala:42-47)
    if v is None:
        return None
    return int(v) if float(v).is_integer() else v


def to_json_schema(state: State, ctx: SchemaContext) -> Dict[str, Any]:
    """Render a (finalized) state to a JSON Schema dict."""
    if isinstance(state, ZeroState):
        return {}
    if isinstance(state, NullState):
        return {"type": "null"}
    if isinstance(state, BoolState):
        return {"type": "boolean"}
    if isinstance(state, StringState):
        out: Dict[str, Any] = {"type": "string"}
        if state.format is not None:
            out["format"] = state.format
        if state.pattern is not None:
            out["pattern"] = state.pattern
        if state.min_length is not None:
            out["minLength"] = state.min_length
        if state.max_length is not None:
            out["maxLength"] = state.max_length
        e = _finalize_enum(state.enum, ctx)
        if e is not None:
            out["enum"] = e
        return out
    if isinstance(state, IntState):
        out = {"type": "integer"}
        if state.minimum is not None:
            out["minimum"] = state.minimum
        if state.maximum is not None:
            out["maximum"] = state.maximum
        e = _finalize_enum(state.enum, ctx)
        if e is not None:
            out["enum"] = e
        return out
    if isinstance(state, NumState):
        out = {"type": "number"}
        if state.minimum is not None:
            out["minimum"] = _num_json(state.minimum)
        if state.maximum is not None:
            out["maximum"] = _num_json(state.maximum)
        e = _finalize_enum(state.enum, ctx)
        if e is not None:
            out["enum"] = e
        return out
    if isinstance(state, TimestampState):
        return {"type": "string", "format": "date-time"}
    if isinstance(state, BinaryState):
        out = {"type": "string", "contentEncoding": "binary"}
        if state.min_length is not None:
            out["minLength"] = state.min_length
        if state.max_length is not None:
            out["maxLength"] = state.max_length
        return out
    if isinstance(state, ObjectState):
        return {
            "type": "object",
            "properties": {
                k: to_json_schema(v, ctx) for k, v in sorted(state.properties.items())
            },
            "additionalProperties": False,
        }
    if isinstance(state, ArrayState):
        return {"type": "array", "items": to_json_schema(state.items, ctx)}
    if isinstance(state, ProductState):
        # ProductSchema.toJson: fold subtype jsons, then override type + enum
        # (ProductSchema.scala:59-66); slot order canonical, type list sorted.
        # Extension slots (timestamp/binary) render FIRST so a real string
        # slot's format/length attrs win on key conflicts instead of being
        # stomped by byte-length bounds.
        render_order = ("timestamp", "binary") + tuple(
            t for t in PRODUCT_SLOTS if t not in ("timestamp", "binary")
        )
        out = {}
        enums: List[Any] = []
        for tag in render_order:
            s = state.slots.get(tag)
            if s is None:
                continue
            j = to_json_schema(s, ctx)
            e = j.pop("enum", None)
            if e is not None:
                enums.extend(e)
            j.pop("type", None)
            out.update(j)
        # extension tags render as JSON-schema "string" (their json already
        # carries format/contentEncoding)
        out["type"] = sorted(
            {"string" if t in ("timestamp", "binary") else t for t in state.slots}
        )
        if enums:
            out["enum"] = enums
        return out
    raise TypeError(f"unknown state: {type(state)!r}")


SELF_DESC_SCHEMA_URI = (
    "http://iglucentral.com/schemas/com.snowplowanalytics.self-desc/schema/jsonschema/1-0-0#"
)


def describe(schema: Dict[str, Any], vendor: str, name: str, version: str = "1-0-0") -> Dict[str, Any]:
    """Wrap a schema in the self-describing envelope (Common.scala:101-106,
    194-256; resource base_jsonschema.txt)."""
    return {
        "$schema": SELF_DESC_SCHEMA_URI,
        "description": "Schema for a " + name + " event",
        "self": {
            "vendor": vendor,
            "name": name,
            "format": "jsonschema",
            "version": version,
        },
        **schema,
    }


def merge_and_transform(state: State, ctx: SchemaContext) -> Dict[str, Any]:
    """finalize + render in one call (reference mergeAndTransform second half,
    SchemaGuru.scala:73-79)."""
    return to_json_schema(finalize(state, ctx), ctx)


# --- validation (round-trip contract + row checks) --------------------------


def validate_instance(value, schema: Dict[str, Any], path: str = "$") -> List[str]:
    """Validate one parsed JSON value against a derived JSON Schema dict.
    Supports the vocabulary this engine emits. Returns violation strings
    (empty = valid). Mirrors the contract pinned by RandomValidSpec."""
    errs: List[str] = []
    if not schema:
        return errs  # {} validates everything
    typ = schema.get("type")
    types = typ if isinstance(typ, list) else [typ] if typ else []

    def type_of(v):
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "boolean"
        if isinstance(v, str):
            return "string"
        if isinstance(v, int):
            return "integer"
        if isinstance(v, float):
            return "number"
        if isinstance(v, dict):
            return "object"
        return "array"

    vt = type_of(value)
    if types:
        ok = vt in types or (vt == "integer" and "number" in types)
        if not ok:
            return [f"{path}: type {vt} not in {types}"]
    if vt == "string":
        n = len(value)
        if "minLength" in schema and n < schema["minLength"]:
            errs.append(f"{path}: length {n} < minLength {schema['minLength']}")
        if "maxLength" in schema and n > schema["maxLength"]:
            errs.append(f"{path}: length {n} > maxLength {schema['maxLength']}")
    if vt in ("integer", "number"):
        if "minimum" in schema and value < schema["minimum"]:
            errs.append(f"{path}: {value} < minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errs.append(f"{path}: {value} > maximum {schema['maximum']}")
    if "enum" in schema and vt not in ("object", "array", "null", "boolean"):
        # PRODUCT-SLOT enum semantics. The rendered enum is the union of
        # the product's surviving slot enums; null/boolean slots never
        # carry enums (handled by the type guard above), and a slot whose
        # enum hit the cardinality tombstone contributes nothing — so for
        # a multi-type schema the enum only BINDS a value when it contains
        # at least one value of that value's type family (otherwise that
        # slot's enum was tombstoned/absent and the value is unrestricted,
        # exactly as the typed state lattice validates it).

        def enum_match(v, e):
            # bool is an int subtype in Python but a distinct JSON type:
            # true must not match enum value 1
            if isinstance(v, bool) or isinstance(e, bool):
                return isinstance(v, bool) and isinstance(e, bool) and v == e
            return v == e

        def family(t):
            return "numeric" if t in ("integer", "number") else t

        enum_vals = schema["enum"]
        non_null = [t for t in types if t != "null"]
        binds = len(non_null) <= 1 or any(
            family(type_of(e)) == family(vt)
            for e in enum_vals
            if not isinstance(e, bool)
        )
        if binds and not any(enum_match(value, e) for e in enum_vals):
            errs.append(f"{path}: {value!r} not in enum")
    if vt == "object":
        props = schema.get("properties", {})
        for k, v in value.items():
            if k in props:
                errs.extend(validate_instance(v, props[k], f"{path}.{k}"))
            elif schema.get("additionalProperties") is False:
                errs.append(f"{path}: additional property {k!r} not allowed")
    if vt == "array":
        items = schema.get("items")
        if items:
            for i, v in enumerate(value):
                errs.extend(validate_instance(v, items, f"{path}[{i}]"))
    return errs


# --- compiled validation ------------------------------------------------------

_TYPE_NAMES = {type(None): "null", bool: "boolean", str: "string", int: "integer",
               float: "number", dict: "object", list: "array"}


def _type_name(v) -> str:
    """``validate_instance``'s ``type_of``: exact types by lookup, subclasses
    through the same isinstance chain."""
    name = _TYPE_NAMES.get(type(v))
    if name is not None:
        return name
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, str):
        return "string"
    if isinstance(v, int):
        return "integer"
    if isinstance(v, float):
        return "number"
    if isinstance(v, dict):
        return "object"
    return "array"


def _family(t: str) -> str:
    return "numeric" if t in ("integer", "number") else t


_ABSENT = object()


def _compile_node(schema: Dict[str, Any]):
    """One checker closure for one schema node, or None when the node is
    ``{}``. The checker returns a list of ``(relative path, message)``
    pairs; paths are only built for values that fail."""
    if not schema:
        return None
    typ = schema.get("type")
    types = typ if isinstance(typ, list) else [typ] if typ else []
    allowed = {t for t in types if isinstance(t, str)}
    if "number" in types:
        allowed.add("integer")
    min_len = schema.get("minLength", _ABSENT)
    max_len = schema.get("maxLength", _ABSENT)
    minimum = schema.get("minimum", _ABSENT)
    maximum = schema.get("maximum", _ABSENT)
    has_enum = "enum" in schema
    members: set = set()
    unhashable: list = []
    always_binds = True
    bind_families: set = set()
    if has_enum:
        # bool entries never match a non-bool value (true must not equal
        # enum value 1), and only non-bool values reach the enum test
        entries = [e for e in schema["enum"] if not isinstance(e, bool)]
        for e in entries:
            try:
                hash(e)
            except TypeError:
                unhashable.append(e)
                continue
            if e == e:  # NaN equals nothing, so it can be left out
                members.add(e)
        always_binds = len([t for t in types if t != "null"]) <= 1
        bind_families = {_family(_type_name(e)) for e in entries}
    props = {k: _compile_node(s) for k, s in schema.get("properties", {}).items()}
    closed = schema.get("additionalProperties") is False
    walk_object = bool(props) or closed
    items = schema.get("items")
    item_check = _compile_node(items) if items else None
    check_length = min_len is not _ABSENT or max_len is not _ABSENT
    check_bounds = minimum is not _ABSENT or maximum is not _ABSENT

    def check(value):
        vt = _TYPE_NAMES.get(type(value)) or _type_name(value)
        if types and vt not in allowed:
            return [("", f"type {vt} not in {types}")]
        if vt == "object":
            if not walk_object:
                return ()
            errs = []
            for k, v in value.items():
                if k in props:
                    sub = props[k]
                    found = sub(v) if sub is not None else None
                    if found:
                        errs.extend((f".{k}{p}", m) for p, m in found)
                elif closed:
                    errs.append(("", f"additional property {k!r} not allowed"))
            return errs
        if vt == "array":
            if item_check is None:
                return ()
            errs = []
            for i, v in enumerate(value):
                found = item_check(v)
                if found:
                    errs.extend((f"[{i}]{p}", m) for p, m in found)
            return errs
        errs = ()  # scalars allocate a list only when they fail
        if vt == "string":
            if check_length:
                n = len(value)
                if min_len is not _ABSENT and n < min_len:
                    errs = [("", f"length {n} < minLength {min_len}")]
                if max_len is not _ABSENT and n > max_len:
                    errs = [*errs, ("", f"length {n} > maxLength {max_len}")]
        elif check_bounds and (vt == "integer" or vt == "number"):
            if minimum is not _ABSENT and value < minimum:
                errs = [("", f"{value} < minimum {minimum}")]
            if maximum is not _ABSENT and value > maximum:
                errs = [*errs, ("", f"{value} > maximum {maximum}")]
        if (has_enum and vt != "null" and vt != "boolean"
                and (always_binds or _family(vt) in bind_families)
                and value not in members
                and not any(value == e for e in unhashable)):
            errs = [*errs, ("", f"{value!r} not in enum")]
        return errs

    return check


def compile_schema(schema: Dict[str, Any]):
    """Compile a derived JSON Schema dict into a checker,
    ``check(value, path="$") -> List[str]``, that returns exactly what
    ``validate_instance(value, schema, path)`` returns, in the same order.

    The schema is read once: each node becomes a closure holding its
    property dispatch dict, type set, bounds, hashed enum members and the
    type families its enum binds. Compiling the schema of a typical event
    takes tens of microseconds, so callers compile once per batch and keep
    no cache. ``validate_instance`` stays as the readable oracle."""
    node = _compile_node(schema)

    def check(value, path: str = "$") -> List[str]:
        if node is None:
            return []
        return [f"{path}{p}: {m}" for p, m in node(value)]

    return check
