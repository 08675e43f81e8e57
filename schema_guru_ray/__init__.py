"""schema_guru_ray — a Ray-Data-native schema-inference + constraint-validation engine.

Re-expresses the capabilities of snowplow-archive/schema-guru (reference at
/root/reference, Scala) as an idiomatic Ray Data pipeline library:

* micro-schema derivation per JSON value (reference SchemaGenerator.scala:54-150)
  becomes a per-batch partial aggregation inside ``map_batches`` over Arrow;
* the commutative monoid merge (reference Helpers.scala:209-224) becomes
  one fold of tiny serialized per-batch states,
  :func:`schema_guru_ray.fold.fold_keyed`;
* finalization transforms (numeric-range encasing, maxLength correction, enum
  substitution, reference SchemaGuru.scala:73-79) run on the merged state;
* constraint validation over large Arrow tables (column stats, HLL/KLL
  sketches, referential checks, distribution drift, stateful audio decode)
  extends the same derive-then-merge shape to the 100 TB scale path.

No code is copied from the reference; semantics are re-implemented from its
observable behavior and test suite (see SURVEY.md for file:line citations).
"""

import logging as _logging


class _SchemaHashNoiseFilter(_logging.Filter):
    """Suppress Ray Data's per-block 'Failed to hash the schemas (for
    deduplication): unhashable type: dict' warning. It fires for ANY Arrow
    schema carrying key-value metadata (pyarrow Schema.metadata is a dict,
    so hash() always raises) — including every parquet file written by
    pandas — and is purely a missed dedup fast path, not a correctness
    issue. Our own stages strip metadata where they produce blocks; this
    filter covers blocks read straight from third-party parquet."""

    def filter(self, record: _logging.LogRecord) -> bool:  # pragma: no cover
        return "Failed to hash the schemas (for deduplication)" not in record.getMessage()


for _name in ("ray.data", "ray.data._internal.arrow_ops.transform_pyarrow"):
    _logging.getLogger(_name).addFilter(_SchemaHashNoiseFilter())


from schema_guru_ray.context import SchemaContext
from schema_guru_ray.schema.states import (
    ArrayState,
    BoolState,
    IntState,
    NullState,
    NumState,
    ObjectState,
    ProductState,
    StringState,
    ZeroState,
    derive,
    merge,
)
from schema_guru_ray.schema.finalize import finalize, to_json_schema

__all__ = [
    "SchemaContext",
    "derive",
    "merge",
    "finalize",
    "to_json_schema",
    "StringState",
    "IntState",
    "NumState",
    "BoolState",
    "NullState",
    "ObjectState",
    "ArrayState",
    "ProductState",
    "ZeroState",
]
