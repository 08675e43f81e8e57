"""Row-level schema validation (the inference→validation closed loop)."""

import json

import pandas as pd
import pytest

from schema_guru_ray.context import SchemaContext


@pytest.mark.usefixtures("ray_session")
class TestValidateAgainstSchema:
    def test_roundtrip_zero_violations_typed(self, sf_dir):
        import ray.data as rd

        from schema_guru_ray.pipelines.infer import infer_schema
        from schema_guru_ray.pipelines.validate_schema import validate_against_schema

        ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet")
        schema = infer_schema(ds, SchemaContext(enum_cardinality=5))["schema"]
        assert validate_against_schema(ds, schema, id_column="l_orderkey").count() == 0

    def test_violations_detected_typed(self, ray_session):
        import ray.data as rd

        from schema_guru_ray.pipelines.validate_schema import validate_against_schema

        schema = {
            "type": "object",
            "properties": {
                "id": {"type": "integer", "minimum": 0, "maximum": 100},
                "tag": {"type": "string", "enum": ["a", "b"], "minLength": 1, "maxLength": 1},
            },
            "additionalProperties": False,
        }
        df = pd.DataFrame({"id": [5, 500, -3], "tag": ["a", "zz", "b"]})
        out = validate_against_schema(
            rd.from_pandas(df), schema, id_column="id"
        ).to_pandas()
        msgs = " | ".join(out["violation"])
        assert "500 > maximum" in msgs
        assert "-3 < minimum" in msgs
        assert "not in enum" in msgs and "maxLength" in msgs

    def test_json_column_violations(self, ray_session):
        import ray.data as rd

        from schema_guru_ray.pipelines.infer import infer_schema
        from schema_guru_ray.pipelines.validate_schema import validate_against_schema

        good = [{"doc": json.dumps({"k": i})} for i in range(20)]
        ds = rd.from_items(good)
        schema = infer_schema(ds, SchemaContext(), json_column="doc")["schema"]
        bad = rd.from_items(
            good + [{"doc": json.dumps({"k": "not an int"})}, {"doc": "{broken"}]
        )
        out = validate_against_schema(bad, schema, json_column="doc").to_pandas()
        assert len(out) == 2
        assert any("type string" in v for v in out["violation"])
        assert any("invalid JSON" in v for v in out["violation"])

    def test_query_entry(self, sf_dir):
        from schema_guru_ray.pipelines.queries import schema_roundtrip_validate_events

        out = schema_roundtrip_validate_events(sf_dir)
        by = dict(zip(out["scenario"], out["n_violations"]))
        assert by["clean"] == 0
        assert by["perturbed"] > 0


class TestNullEnumProduct:
    def test_null_in_nullable_enum_schema_is_valid(self):
        """Round-trip with enums + nulls: a corpus containing nulls must
        validate against its own derived schema — the enum annotation
        belongs to the string slot of the null+string product, not to the
        null slot."""
        from schema_guru_ray.context import SchemaContext
        from schema_guru_ray.schema.finalize import merge_and_transform, validate_instance
        from schema_guru_ray.schema.states import derive_with_errors

        ctx = SchemaContext(enum_cardinality=4, quantity=3)
        docs = [{"b": "x"}, {"b": "y"}, {"b": None}]
        state, errs = derive_with_errors(docs, ctx)
        assert errs == []
        schema = merge_and_transform(state, ctx)
        assert sorted(schema["properties"]["b"]["type"]) == ["null", "string"]
        for d in docs:
            assert validate_instance(d, schema) == [], d
        # non-enum values still rejected
        assert validate_instance({"b": "z"}, schema) != []


class TestVectorizedPrefilterParity:
    """The vectorized candidate prefilter must agree EXACTLY with the naive
    per-(row, column) validate_instance loop — including the adversarial
    cases the mask could get wrong (bool-vs-int enum entries, NaN-as-null,
    nulls under non-nullable types, boundary values)."""

    def _naive(self, batch, schema, id_column):
        import datetime as _dt

        from schema_guru_ray.schema.finalize import validate_instance

        cols = list(batch.column_names)
        data = {c: batch.column(c).to_pylist() for c in cols}
        ids = data.get(id_column) if id_column else list(range(batch.num_rows))
        props = schema.get("properties", {})
        out = []
        for i in range(batch.num_rows):
            for c in cols:
                sub = props.get(c)
                if sub is None:
                    continue
                v = data[c][i]
                if isinstance(v, float) and v != v:
                    v = None
                elif isinstance(v, (_dt.datetime, _dt.date)):
                    v = v.isoformat()
                for err in validate_instance(v, sub, path=f"$.{c}"):
                    out.append((str(ids[i]), err))
        return out

    def test_agrees_with_naive_loop(self):
        import numpy as np
        import pyarrow as pa

        from schema_guru_ray.pipelines.validate_schema import _validate_row_batch

        batch = pa.table(
            {
                "rid": pa.array(list(range(8)), pa.int64()),
                "i": pa.array([1, 5, 0, 100, None, 7, 2, 3], pa.int64()),
                "f": pa.array([0.5, float("nan"), 2.5, -1.0, 0.0, 9.9, 1.0, 2.0]),
                "s": pa.array(["a", "bb", None, "ddd", "e", "ff", "g", "hhhh"]),
                "ts": pa.array(
                    [None] * 8, pa.timestamp("us")
                ),  # timestamp column → exact-loop fallback path
            }
        )
        schema = {
            "type": "object",
            "properties": {
                "i": {"type": "integer", "minimum": 1, "maximum": 50,
                      "enum": [True, 1, 2, 3, 5, 7]},  # bool enum entry trap
                "f": {"type": ["number", "null"], "minimum": 0.0,
                      "maximum": 5.0},
                "s": {"type": "string", "minLength": 1, "maxLength": 3,
                      "enum": ["a", "bb", "ddd", "e", "ff", "g"]},
                "ts": {"type": ["string", "null"]},
            },
        }
        got = _validate_row_batch(batch, schema=schema, id_column="rid")
        got_pairs = list(zip(got["row_id"].to_pylist(),
                             got["violation"].to_pylist()))
        assert got_pairs == self._naive(batch, schema, "rid")
        assert len(got_pairs) > 0  # the fixture genuinely violates

    def test_clean_batch_has_zero_candidates_and_zero_violations(self):
        import pyarrow as pa

        from schema_guru_ray.pipelines.validate_schema import (
            _candidate_mask, _validate_row_batch,
        )

        batch = pa.table(
            {
                "i": pa.array([1, 2, 3], pa.int64()),
                "s": pa.array(["a", "b", "a"]),
            }
        )
        schema = {
            "type": "object",
            "properties": {
                "i": {"type": "integer", "minimum": 1, "maximum": 3},
                "s": {"type": "string", "minLength": 1, "maxLength": 1,
                      "enum": ["a", "b"]},
            },
        }
        for c in ("i", "s"):
            mask = _candidate_mask(batch, c, schema["properties"][c])
            assert mask is not None and not mask.any()
        out = _validate_row_batch(batch, schema=schema, id_column=None)
        assert out.num_rows == 0


# --- the compiled checker against the interpreting oracle --------------------

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from schema_guru_ray.schema.finalize import (  # noqa: E402
    compile_schema, merge_and_transform, validate_instance,
)
from schema_guru_ray.schema.states import ZERO, derive_value, merge  # noqa: E402

# a small pool of keys and scalars, so generated documents share paths and
# often hit (or just miss) the bounds, lengths and enums of one another
_KEYS = st.sampled_from(["a", "b", "c", "id", "tags"])
_SCALARS = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 1.0, 0.5, -2.5, 2 ** 40, "",
                     "1", "a", "ab", "abc", "true", "192.168.0.1",
                     "f0e89550-7fda-11e4-bbe8-22000ad9bf74", 9007199254740993]),
    st.integers(min_value=-(2 ** 64), max_value=2 ** 64),
    st.floats(allow_nan=True, allow_infinity=False),
    st.text(max_size=6),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=14,
)
_DOCS = st.dictionaries(_KEYS, _VALUES, max_size=5)
# bool-vs-1 entries, an unhashable entry, a NaN and int/float twins
_ENUM_EXTRAS = st.sampled_from([True, False, 1, 1.0, "1", None, [1], float("nan"), 2 ** 40])


def _derived_schema(docs, cardinality):
    ctx = SchemaContext(enum_cardinality=cardinality)
    acc = ZERO
    for d in docs:
        acc = merge(acc, derive_value(d, ctx), ctx)
    return merge_and_transform(acc, ctx)


def _mutate(schema, data):
    """Rewrite a derived schema the way hand-written schemas differ from
    derived ones: extra enum entries, emptied subschemas, open objects."""
    if not isinstance(schema, dict) or not schema:
        return schema
    out = dict(schema)
    if "enum" in out and data.draw(st.booleans()):
        out["enum"] = out["enum"] + data.draw(st.lists(_ENUM_EXTRAS, max_size=3))
    elif out.get("type") not in ("object", "array", None) and data.draw(st.integers(0, 5)) == 0:
        out["enum"] = data.draw(st.lists(st.one_of(_ENUM_EXTRAS, _SCALARS), max_size=4))
    if "properties" in out:
        out["properties"] = {
            k: {} if data.draw(st.integers(0, 6)) == 0 else _mutate(s, data)
            for k, s in out["properties"].items()
        }
        if data.draw(st.integers(0, 4)) == 0:
            del out["additionalProperties"]
    if "items" in out:
        out["items"] = _mutate(out["items"], data)
    return out


@given(corpus=st.lists(_DOCS, min_size=1, max_size=6),
       probes=st.lists(_VALUES, max_size=6),
       cardinality=st.sampled_from([0, 2, 50]),
       data=st.data())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_compiled_checker_matches_interpreter(corpus, probes, cardinality, data):
    """compile_schema(s)(v) returns validate_instance(v, s): the same
    messages in the same order, for the corpus a schema was derived from,
    for unrelated documents, and for hand-edited variants of the schema."""
    schema = _derived_schema(corpus, cardinality)
    for s in (schema, _mutate(schema, data), {}):
        check = compile_schema(s)
        for v in corpus + probes + [{}, [], None]:
            assert check(v) == validate_instance(v, s), (v, s)
            assert check(v, "$.x") == validate_instance(v, s, "$.x"), (v, s)


@given(corpus=st.lists(_DOCS, min_size=1, max_size=5),
       probes=st.lists(_DOCS, min_size=1, max_size=8),
       cardinality=st.sampled_from([0, 3]),
       data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_json_batch_path_matches_interpreter(corpus, probes, cardinality, data):
    import pyarrow as pa

    from schema_guru_ray.pipelines.validate_schema import _validate_json_batch

    schema = _mutate(_derived_schema(corpus, cardinality), data)
    texts = [json.dumps(d) for d in corpus + probes] + ["{broken", None]
    got = _validate_json_batch(pa.table({"doc": pa.array(texts, pa.string())}),
                               schema=schema, json_column="doc", id_column=None)
    want = []
    for i, s in enumerate(texts):
        if s is None:
            continue
        try:
            doc = json.loads(s)
        except ValueError as e:
            want.append((str(i), f"$: invalid JSON: {e}"))
            continue
        want.extend((str(i), err) for err in validate_instance(doc, schema))
    assert list(zip(got["row_id"].to_pylist(), got["violation"].to_pylist())) == want


_ROW = st.fixed_dictionaries({
    "i": st.one_of(st.none(), st.integers(-5, 2 ** 40)),
    "f": st.one_of(st.none(), st.floats(allow_infinity=False)),
    "s": st.one_of(st.none(), st.sampled_from(["", "a", "ab", "abc", "1"])),
    "b": st.one_of(st.none(), st.booleans()),
})


@given(rows=st.lists(_ROW, min_size=1, max_size=12),
       cardinality=st.sampled_from([0, 3]),
       data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_row_batch_path_matches_interpreter(rows, cardinality, data):
    import pyarrow as pa

    from schema_guru_ray.pipelines.validate_schema import _validate_row_batch

    types = {"i": pa.int64(), "f": pa.float64(), "s": pa.string(), "b": pa.bool_()}
    batch = pa.table({c: pa.array([r[c] for r in rows], t) for c, t in types.items()})
    # derive from a prefix so the rest can break its bounds and enums
    clean = [{c: v for c, v in r.items() if not (isinstance(v, float) and v != v)}
             for r in rows[: max(1, len(rows) // 2)]]
    schema = _mutate(_derived_schema(clean, cardinality), data)
    got = _validate_row_batch(batch, schema=schema, id_column=None)
    props = schema.get("properties", {})
    want = []
    for i, r in enumerate(rows):
        for c in types:
            if c not in props:
                continue
            v = r[c]
            if isinstance(v, float) and v != v:
                v = None
            want.extend((str(i), err) for err in validate_instance(v, props[c], f"$.{c}"))
    assert list(zip(got["row_id"].to_pylist(), got["violation"].to_pylist())) == want


def test_compiled_checker_edge_cases():
    schema = {"type": ["boolean", "integer"], "enum": [1, True]}
    check = compile_schema(schema)
    for v in (True, False, 1, 2, 1.0):
        assert check(v) == validate_instance(v, schema)
    assert check(2) == ["$: 2 not in enum"]
    # a [T, null] product binds its enum; true does not equal 1
    schema = {"type": ["integer", "null"], "enum": [True, 3]}
    assert compile_schema(schema)(1) == validate_instance(1, schema) == ["$: 1 not in enum"]
    # a tombstoned slot leaves its family unrestricted
    schema = {"type": ["integer", "string"], "enum": ["x"], "minimum": 0}
    assert compile_schema(schema)(-1) == validate_instance(-1, schema) == ["$: -1 < minimum 0"]
    nested = {"type": "object", "additionalProperties": False,
              "properties": {"a": {"type": "array", "items": {
                  "type": "object", "properties": {"q": {"type": "integer", "maximum": 2}},
                  "additionalProperties": False}}}}
    doc = {"z": 1, "a": [{"q": 1}, {"q": 9, "r": 0}], "y": 2}
    assert compile_schema(nested)(doc) == validate_instance(doc, nested) == [
        "$: additional property 'z' not allowed",
        "$.a[1].q: 9 > maximum 2",
        "$.a[1]: additional property 'r' not allowed",
        "$: additional property 'y' not allowed",
    ]


def test_only_finalize_calls_the_interpreter():
    """The pipelines validate through compile_schema; validate_instance is
    the oracle the tests compare it with, so no package module but
    schema/finalize.py calls or imports it."""
    import pathlib
    import re

    import schema_guru_ray

    pkg = pathlib.Path(schema_guru_ray.__file__).parent
    use = re.compile(r"\bvalidate_instance\s*\(|import[^\n]*\bvalidate_instance\b")
    hits = [
        f"{path.relative_to(pkg).as_posix()}:{no}: {line.strip()}"
        for path in sorted(pkg.rglob("*.py"))
        if path.relative_to(pkg).as_posix() != "schema/finalize.py"
        for no, line in enumerate(path.read_text().splitlines(), 1)
        if use.search(line)
    ]
    assert not hits, "\n".join(hits)
