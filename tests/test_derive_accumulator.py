"""The per-batch accumulator (``schema.states.Accumulator``) against the
per-document fold it replaces.

The oracle below is the reference's literal algorithm: derive one
micro-schema per instance (SchemaGenerator.scala:93-148) and fold them with
``merge`` (Helpers.scala:209-224). It lives only here. For every generated
batch the accumulator must produce an ``==`` state, byte-identical rendered
schema and the same error list.
"""

import json
import pickle
from collections import OrderedDict

import pyarrow as pa
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schema_guru_ray.context import EnumSet, SchemaContext
from schema_guru_ray.schema.finalize import merge_and_transform
from schema_guru_ray.schema.formats import suggest_format, suggest_pattern
from schema_guru_ray.schema.jsonpath import UNMATCHED, segment_key
from schema_guru_ray.schema.states import (
    NULL,
    ZERO,
    ArrayState,
    BOOL,
    IntState,
    NumState,
    ObjectState,
    StringState,
    derive_instance,
    derive_value,
    derive_with_errors,
    merge,
)
from schema_guru_ray.stages.derive import StateBatcher, derive_json_batch

# --- oracle: one micro-schema per value, folded with merge ------------------


def _oracle_enum(value, ctx):
    if ctx.enum_cardinality == 0 and not ctx.enum_sets:
        return None
    if ctx.enum_cardinality > 0 or ctx.in_any_enum_set(value):
        return frozenset((value,))
    return None


def _oracle_value(value, ctx):
    if value is None:
        return NULL
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, str):
        n = len(value) if ctx.derive_length else None
        return StringState(suggest_format(value), suggest_pattern(value, ctx.quantity),
                           n, n, _oracle_enum(value, ctx))
    if isinstance(value, int):
        return IntState(value, value, _oracle_enum(value, ctx))
    if isinstance(value, float):
        return NumState(value, value, _oracle_enum(value, ctx))
    if isinstance(value, dict):
        return ObjectState({k: _oracle_value(v, ctx) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        items = ZERO
        for v in value:
            items = merge(items, _oracle_value(v, ctx), ctx)
        return ArrayState(items)
    raise TypeError(f"unsupported JSON value type: {type(value)!r}")


def _oracle_fold(values, ctx):
    acc, errors = ZERO, []
    for i, v in enumerate(values):
        try:
            if not isinstance(v, (dict, list, tuple)):
                raise ValueError("JSON instance must be an object or array at top level")
            acc = merge(acc, _oracle_value(v, ctx), ctx)
        except (ValueError, TypeError) as e:
            errors.append(f"instance {i}: {e}")
    return acc, errors


def _render(state, ctx):
    return json.dumps(merge_and_transform(state, ctx), sort_keys=True)


def _assert_same(values, ctx):
    want, want_errors = _oracle_fold(values, ctx)
    got, got_errors = derive_with_errors(values, ctx)
    assert got == want
    assert _render(got, ctx) == _render(want, ctx)
    assert got_errors == want_errors


# --- generated corpora ------------------------------------------------------

CONTEXTS = [
    SchemaContext(enum_cardinality=3, quantity=100),
    SchemaContext(enum_sets=(EnumSet("tiers", frozenset({"free", "gold", 1, 2})),)),
    SchemaContext(enum_cardinality=2, derive_length=False),
    SchemaContext(quantity=5),
    SchemaContext(),
]

STRINGS = st.one_of(
    st.sampled_from([
        "f0e89550-7fda-11e4-bbe8-22000ad9bf74", "2026-01-02T03:04:05Z",
        "10.0.0.1", "::1", "https://shop.example/p/1", "QUJDRA==",
        "QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVo=", "free", "gold", "",
    ]),
    st.text(max_size=4),
)
# small ints and integral floats collide on value (1 == 1.0)
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.0, -1.0, 2.0, 2.5]),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
)
SCALARS = st.one_of(st.none(), st.booleans(), STRINGS, NUMBERS)
KEYS = st.sampled_from(["a", "b", "c", "d"])
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=12,
)
CONTAINERS = st.one_of(
    st.dictionaries(KEYS, VALUES, max_size=4),
    st.lists(VALUES, max_size=4),
)
# mostly derivable instances, plus top-level scalars that become errors
INSTANCES = st.lists(
    st.one_of(CONTAINERS, CONTAINERS, CONTAINERS, SCALARS), max_size=12
)
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(st.sampled_from(CONTEXTS), INSTANCES)
def test_accumulator_matches_per_document_fold(ctx, docs):
    _assert_same(docs, ctx)


@SETTINGS
@given(st.sampled_from(CONTEXTS), INSTANCES, st.data())
def test_type_error_document_contributes_nothing(ctx, docs, data):
    """A document that raises TypeError partway through (a non-JSON Python
    value nested after derivable ones) leaves no trace in the state."""
    prefix = data.draw(VALUES)
    poison = {"a": prefix, "b": [1, "x", {"c": prefix}], "z": {1, 2}}
    at = data.draw(st.integers(0, len(docs)))
    docs = docs[:at] + [poison] + docs[at:]
    _assert_same(docs, ctx)
    got, errors = derive_with_errors(docs, ctx)
    assert f"instance {at}: unsupported JSON value type: <class 'set'>" in errors
    clean, _ = derive_with_errors(docs[:at] + docs[at + 1:], ctx)
    assert got == clean


@SETTINGS
@given(st.sampled_from(CONTEXTS), INSTANCES)
def test_json_batch_matches_parsed_fold(ctx, docs):
    texts = [json.dumps(d) for d in docs] + ['{"a": ', None, "[1, 2"]
    got, errors = derive_json_batch(texts, ctx)
    want, want_errors = _oracle_fold([json.loads(t) for t in texts[:len(docs)]], ctx)
    assert got == want
    assert _render(got, ctx) == _render(want, ctx)
    assert len(errors) == 2 + len(want_errors)
    assert errors[2:] == want_errors


def _oracle_segments(texts, path, ctx):
    """The per-document loop ``StateBatcher`` ran before the accumulator."""
    groups, errors, counts = {}, {}, {}
    for s in texts:
        key = UNMATCHED
        try:
            doc = json.loads(s)
            key = segment_key(path, doc)
            if not isinstance(doc, (dict, list, tuple)):
                raise ValueError("JSON instance must be an object or array at top level")
            groups[key] = merge(groups.get(key, ZERO), _oracle_value(doc, ctx), ctx)
        except (ValueError, TypeError):
            errors[key] = errors.get(key, 0) + 1
            groups.setdefault(key, ZERO)
        counts[key] = counts.get(key, 0) + 1
    return [(k, groups[k], errors.get(k, 0), counts[k]) for k in groups]


@SETTINGS
@given(st.sampled_from(CONTEXTS), INSTANCES)
def test_segmented_batch_matches_per_document_fold(ctx, docs):
    texts = [json.dumps(d) for d in docs] + ["{broken", '"scalar"', None]
    out = StateBatcher(ctx, json_column="doc", segment_jsonpath="$.a")(
        pa.table({"doc": pa.array(texts, pa.string())}))
    got = [(k, pickle.loads(s), e, n) for k, s, e, n in zip(
        out["segment"].to_pylist(), out["state"].to_pylist(),
        out["n_errors"].to_pylist(), out["n_rows"].to_pylist())]
    assert got == _oracle_segments(texts, "$.a", ctx)


def test_python_values_dispatch_like_json():
    """Tuples are arrays and subclasses of the JSON types are accepted,
    exactly as the per-value derive accepted them."""

    class Text(str):
        pass

    class Count(int):
        pass

    docs = [
        OrderedDict(a=(1, 2.5), b=Text("2026-01-02T03:04:05Z")),
        {"a": [Count(7), None], "b": "x", "c": True},
        (Text("free"), Count(1), 1.0),
    ]
    for ctx in CONTEXTS:
        _assert_same(docs, ctx)
        assert derive_value(docs[0], ctx) == _oracle_value(docs[0], ctx)


def test_short_base64_after_long_drops_pattern_for_small_corpora():
    """quantity < 10: a short base64 string carries no pattern, so it breaks
    the pattern a long one set (SchemaGenerator.scala:191-200)."""
    docs = [{"a": "QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVo="}, {"a": "QUJDRA=="}]
    for ctx in (SchemaContext(quantity=5), SchemaContext(quantity=100)):
        _assert_same(docs, ctx)
    assert derive_with_errors(docs, SchemaContext(quantity=5))[0].properties["a"].pattern is None


def test_empty_array_items_are_zero():
    ctx = SchemaContext()
    assert derive_instance({"a": []}, ctx) == ObjectState({"a": ArrayState(ZERO)})
    assert derive_instance([], ctx) == ArrayState(ZERO)
