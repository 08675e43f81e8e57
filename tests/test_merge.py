"""Merge-semantics conformance vectors ported from the reference's
MergeSpec (src/test/scala/MergeSpec.scala:26-105). See FIXTURES.md §B1."""

import json

import pytest

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.schema.finalize import merge_and_transform, to_json_schema
from schema_guru_ray.schema.states import (
    ZERO, IntState, NumState, derive_instance, derive_value, merge,
)

CTX = SchemaContext(enum_cardinality=0)


def d(v, ctx=CTX):
    return derive_value(v, ctx)


def m(a, b, ctx=CTX):
    return merge(a, b, ctx)


def render(state, ctx=CTX):
    return to_json_schema(state, ctx)


def test_string_and_integer_produce_product():
    # MergeSpec.scala:58-59
    s = render(m(d("something"), d(42)))
    assert s["type"] == ["integer", "string"]


def test_min_of_minima():
    # MergeSpec.scala:61-64: {test_key: int[-2..3]} ⊔ {test_key: int[-34000..3]}
    a = m(d(-2), d(3))
    b = m(d(-34000), d(3))
    merged = m(a, b)
    assert merged.minimum == -34000
    assert merged.maximum == 3


def test_integer_merge_number_is_number():
    # MergeSpec.scala:66-69
    s = render(m(d(42), d(2.5)))
    assert s["type"] == "number"
    assert s["minimum"] == 2.5
    s2 = render(m(d(2.5), d(42)))
    assert s2["type"] == "number"
    assert s2["minimum"] == 2.5
    assert s2["maximum"] == 42


def test_differing_formats_dropped():
    # MergeSpec.scala:71-74: uuid ⊔ date-time → format absent
    s = render(m(d("f0e89550-7fda-11e4-bbe8-22000ad9bf74"), d("2010-01-01T12:00:00+01:00")))
    assert "format" not in s


def test_format_vs_no_format_dropped():
    # MergeSpec.scala:76-79
    s = render(m(d("just a string"), d("2010-01-01T12:00:00+01:00")))
    assert "format" not in s


def test_product_keeps_surviving_format():
    # MergeSpec.scala:81-89: date-time string ⊔ int → product, format retained
    s = render(m(d("2010-01-01T12:00:00+01:00"), d(42)))
    assert s["type"] == ["integer", "string"]
    assert s["format"] == "date-time"


def test_min_max_length_merge():
    # MergeSpec.scala:91-99: (3,10) ⊔ (5,8) → (3,10)
    a = m(d("abc"), d("abcdefghij"))  # lengths 3,10
    b = m(d("abcde"), d("abcdefgh"))  # lengths 5,8
    s = render(m(a, b))
    assert s["minLength"] == 3
    assert s["maxLength"] == 10


def test_product_keeps_max_length():
    # MergeSpec.scala:101-104
    a = m(d("abc"), d("abcdefghij"))
    s = render(m(a, d(42)))
    assert s["maxLength"] == 10


def test_zero_identity():
    # ZeroSchema.scala:32-34; JsonSchema.scala:104-106
    st = d(42)
    assert m(ZERO, st) == st
    assert m(st, ZERO) == st
    assert render(ZERO) == {}


def test_merge_is_order_independent():
    """Distributed requirement: any grouping/order of merges yields the same
    rendered schema (SURVEY.md §4 ordering row)."""
    import itertools

    vals = ["abc", 42, 2.5, "2010-01-01T12:00:00+01:00", None, True]
    states = [d(v) for v in vals]
    rendered = set()
    for perm in itertools.permutations(states):
        acc = ZERO
        for s in perm:
            acc = m(acc, s)
        rendered.add(str(render(acc)))
    assert len(rendered) == 1


def test_object_merge_disjoint_and_shared_keys():
    # ObjectSchema.scala:39-46
    a = derive_instance({"a": 1, "shared": "x"}, CTX)
    b = derive_instance({"b": 2.0, "shared": "yy"}, CTX)
    s = render(m(a, b))
    assert set(s["properties"]) == {"a", "b", "shared"}
    assert s["properties"]["shared"]["minLength"] == 1
    assert s["properties"]["shared"]["maxLength"] == 2
    assert s["additionalProperties"] is False


def test_top_level_must_be_object_or_array():
    # SchemaGenerator.scala:54-59
    with pytest.raises(ValueError):
        derive_instance("bare string", CTX)
    with pytest.raises(ValueError):
        derive_instance(42, CTX)


def test_number_in_product_absorbs_integer():
    # ProductSchema.scala:90-102: int and number cannot coexist in a product
    p = m(d("s"), d(42))  # product string+integer
    p2 = m(p, d(2.5))  # number arrives
    s = render(p2)
    assert s["type"] == ["number", "string"]
    assert "integer" not in s["type"]


def test_int_range_encased_in_finalize():
    # Helpers.scala:192-201 via SchemaGuru.scala:74
    st = m(d(-2), d(3))
    s = merge_and_transform(st, CTX)
    assert s["minimum"] == -32768 and s["maximum"] == 32767


def test_int_float_enum_collision_renders_the_same_in_either_order():
    # 1 == 1.0: the integer member wins, so the rendered enum (and the schema
    # bytes) do not depend on which operand came first
    ctx = SchemaContext(enum_cardinality=5)

    def both(a, b):
        return (json.dumps(merge_and_transform(m(a, b, ctx), ctx), sort_keys=True),
                json.dumps(merge_and_transform(m(b, a, ctx), ctx), sort_keys=True))

    i, n = IntState(1, 1, frozenset({1})), NumState(1.0, 1.0, frozenset({1.0}))
    plain = both(i, n)
    assert plain[0] == plain[1] and json.loads(plain[0])["enum"] == [1]
    product = both(m(d("s", ctx), i, ctx), m(d(None, ctx), n, ctx))
    assert product[0] == product[1]
    assert json.loads(product[0])["enum"] == ["s", 1]
    arrays = [json.dumps(merge_and_transform(d(v, ctx), ctx), sort_keys=True)
              for v in ([1, 1.0], [1.0, 1])]
    assert arrays[0] == arrays[1]
    assert json.loads(arrays[0])["items"]["enum"] == [1]
