"""The schema-state lattice: derive / merge (the commutative monoid core).

Re-implements the reference's nine-node JsonSchema ADT
(``schema/JsonSchema.scala:34-118`` + ``schema/types/*.scala``) as picklable
Python dataclasses with an associative, commutative ``merge`` so partial
states can flow through Ray Data ``map_batches`` + ``groupby().aggregate()``.

Derive: the reference builds one micro-schema per JSON instance and merges
them. Here :class:`Accumulator` folds a whole batch of parsed instances in
place into one mutable node per JSON path and freezes into the ADT once.
Every field's merge is a running min/max, an eq-or-None or a tombstoned
union, so the result equals the per-instance fold. ``derive_value``,
``derive_instance``, ``derive`` and ``derive_with_errors`` all go through
it; ``merge`` combines the per-batch states.

Merge semantics (all cited against the reference):

* ``format``/``pattern``: eq-or-None (JsonSchema.scala:160-163).
* ``minLength``/``minimum``: min-or-None; ``maxLength``/``maximum``:
  max-or-None — **None is absorbing** (JsonSchema.scala:134-152).
* enums: set union while ``|set| <= ctx.enum_keep_threshold``, then a None
  tombstone that absorbs all later merges (SchemaWithEnum.scala:57-70).
  Keeping exact sets up to ``max(cardinality, biggest predefined set)`` and
  applying the cap/predefined-substitution in finalize makes the distributed
  merge order-independent (SURVEY.md §7.4) while producing the same final
  schema as the reference's per-merge cap.
* integer ⊔ number → number with int bounds cast to float
  (NumberSchema.scala:49-62; the numeric lattice ``integer ⊑ number``).
  When an int and a float enum member are equal (``1 == 1.0``) the int is
  kept, so the rendered enum does not depend on merge order.
* different types → ProductState with one slot per type; number's presence
  absorbs the integer slot (ProductSchema.scala:90-102,139-159). We use the
  symmetric closure of the reference's rule so merge order cannot matter.
* ZeroState is the monoid identity (ZeroSchema.scala:32-34).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.schema import formats as fmt

EnumVal = Union[str, int, float, bool]
# None = tombstone (absorbing); frozenset = exact value set so far
EnumState = Optional[FrozenSet[EnumVal]]


def _min_or_none(a, b):
    """None-absorbing min (reference minOrNone, JsonSchema.scala:146-152)."""
    return None if a is None or b is None else min(a, b)


def _max_or_none(a, b):
    return None if a is None or b is None else max(a, b)


def _eq_or_none(a, b):
    return a if a == b else None


def _merge_enums(a: EnumState, b: EnumState, ctx: SchemaContext) -> EnumState:
    """Union with tombstone past the keep threshold (SchemaWithEnum.scala:57-70).
    Either side None → None (the reference's applicative ``|@|``)."""
    if a is None or b is None:
        return None
    u = a | b
    return u if len(u) <= ctx.enum_keep_threshold else None


# --- node states ------------------------------------------------------------


@dataclass(frozen=True)
class ZeroState:
    """Monoid identity; renders as {} (ZeroSchema.scala:27-38)."""

    type_tag = "zero"


@dataclass(frozen=True)
class NullState:
    type_tag = "null"


@dataclass(frozen=True)
class BoolState:
    type_tag = "boolean"


@dataclass(frozen=True)
class StringState:
    """StringSchema.scala:37-57."""

    format: Optional[str] = None
    pattern: Optional[str] = None
    min_length: Optional[int] = None
    max_length: Optional[int] = None
    enum: EnumState = frozenset()

    type_tag = "string"


@dataclass(frozen=True)
class IntState:
    """IntegerSchema.scala:36-50. Python ints are arbitrary precision, like
    the reference's BigInt."""

    minimum: Optional[int] = None
    maximum: Optional[int] = None
    enum: EnumState = frozenset()

    type_tag = "integer"


@dataclass(frozen=True)
class NumState:
    """NumberSchema.scala:36-62."""

    minimum: Optional[float] = None
    maximum: Optional[float] = None
    enum: EnumState = frozenset()

    type_tag = "number"


@dataclass(frozen=True)
class ObjectState:
    """ObjectSchema.scala:33-46; properties merge key-wise (shared keys merge
    recursively, disjoint keys union)."""

    properties: Dict[str, "State"] = field(default_factory=dict)

    type_tag = "object"

    def __hash__(self):  # dict field; hash by identity is fine (not interned)
        return id(self)


@dataclass(frozen=True)
class ArrayState:
    """ArraySchema.scala:28-36; single-item schema, no tuple validation."""

    items: "State" = field(default_factory=ZeroState)

    type_tag = "array"

    def __hash__(self):
        return id(self)


@dataclass(frozen=True)
class TimestampState:
    """Engine extension (no reference analogue — JSON has no timestamp type;
    Arrow does). Carries min/max as epoch-microseconds; renders as
    ``{"type": "string", "format": "date-time"}`` to stay inside the
    reference's vocabulary."""

    minimum: Optional[int] = None
    maximum: Optional[int] = None

    type_tag = "timestamp"


@dataclass(frozen=True)
class BinaryState:
    """Engine extension for Arrow binary columns (audio/image payloads):
    byte-length bounds only — content checks live in the validation stages."""

    min_length: Optional[int] = None
    max_length: Optional[int] = None

    type_tag = "binary"


# slot order is the canonical rendering order for product types
PRODUCT_SLOTS = (
    "object",
    "array",
    "string",
    "integer",
    "number",
    "boolean",
    "timestamp",
    "binary",
    "null",
)


@dataclass(frozen=True)
class ProductState:
    """ProductSchema.scala:41-102 — the union/sum type; one slot per type."""

    slots: Dict[str, "State"] = field(default_factory=dict)

    type_tag = "product"

    def __hash__(self):
        return id(self)


State = Union[
    ZeroState,
    NullState,
    BoolState,
    StringState,
    IntState,
    NumState,
    ObjectState,
    ArrayState,
    ProductState,
    TimestampState,
    BinaryState,
]

ZERO = ZeroState()
NULL = NullState()
BOOL = BoolState()


# --- merge ------------------------------------------------------------------


def _merge_string(a: StringState, b: StringState, ctx) -> StringState:
    return StringState(
        format=_eq_or_none(a.format, b.format),
        pattern=_eq_or_none(a.pattern, b.pattern),
        min_length=_min_or_none(a.min_length, b.min_length),
        max_length=_max_or_none(a.max_length, b.max_length),
        enum=_merge_enums(a.enum, b.enum, ctx),
    )


def _merge_int(a: IntState, b: IntState, ctx) -> IntState:
    return IntState(
        minimum=_min_or_none(a.minimum, b.minimum),
        maximum=_max_or_none(a.maximum, b.maximum),
        enum=_merge_enums(a.enum, b.enum, ctx),
    )


def _int_to_num(a: IntState) -> NumState:
    return NumState(
        minimum=None if a.minimum is None else float(a.minimum),
        maximum=None if a.maximum is None else float(a.maximum),
        enum=a.enum,
    )


def _merge_num_enums(a: EnumState, b: EnumState, ctx) -> EnumState:
    """:func:`_merge_enums` for a number slot, whose members may be ints
    (promoted from an integer slot) or floats. ``1 == 1.0``, so a plain union
    keeps whichever operand came first; the integer member wins instead, so
    the rendered enum does not depend on merge order."""
    u = _merge_enums(a, b, ctx)
    if u is None or len(u) == len(a) + len(b):  # no equal members collided
        return u
    return frozenset(v for v in chain(a, b) if not isinstance(v, float)).union(a, b)


def _merge_num(a: NumState, b: NumState, ctx) -> NumState:
    return NumState(
        minimum=_min_or_none(a.minimum, b.minimum),
        maximum=_max_or_none(a.maximum, b.maximum),
        enum=_merge_num_enums(a.enum, b.enum, ctx),
    )


def _merge_object(a: ObjectState, b: ObjectState, ctx) -> ObjectState:
    props = dict(a.properties)
    for k, v in b.properties.items():
        props[k] = merge(props[k], v, ctx) if k in props else v
    return ObjectState(props)


def _merge_array(a: ArrayState, b: ArrayState, ctx) -> ArrayState:
    return ArrayState(merge(a.items, b.items, ctx))


def _to_slots(s: State) -> Dict[str, State]:
    """View any non-zero state as product slots."""
    if isinstance(s, ProductState):
        return dict(s.slots)
    return {s.type_tag: s}


def _merge_product(a: State, b: State, ctx) -> ProductState:
    """Slot-wise merge with int→number absorption: if either side contributes
    a number, every integer contribution is promoted into the number slot and
    the integer slot is dropped (symmetric closure of
    ProductSchema.scala:90-102,139-159 — order-independent by construction)."""
    sa, sb = _to_slots(a), _to_slots(b)
    out: Dict[str, State] = {}
    has_number = "number" in sa or "number" in sb
    for tag in PRODUCT_SLOTS:
        x, y = sa.get(tag), sb.get(tag)
        if tag == "integer" and has_number:
            continue  # absorbed into the number slot below
        if tag == "number" and has_number:
            parts = [p for p in (sa.get("number"), sb.get("number"),
                                 sa.get("integer"), sb.get("integer")) if p is not None]
            num = parts[0] if isinstance(parts[0], NumState) else _int_to_num(parts[0])
            for p in parts[1:]:
                num = _merge_num(num, p if isinstance(p, NumState) else _int_to_num(p), ctx)
            out["number"] = num
            continue
        if x is not None and y is not None:
            out[tag] = merge(x, y, ctx)
        elif x is not None:
            out[tag] = x
        elif y is not None:
            out[tag] = y
    return ProductState(out)


def merge(a: State, b: State, ctx: SchemaContext) -> State:
    """The monoid append: mergeSameType orElse mergeWithZero orElse
    mergeToProduct orElse createProduct (JsonSchema.scala:116-118)."""
    if isinstance(a, ZeroState):
        return b
    if isinstance(b, ZeroState):
        return a
    ta, tb = type(a), type(b)
    if ta is tb and ta is not ProductState:
        if ta is StringState:
            return _merge_string(a, b, ctx)
        if ta is IntState:
            return _merge_int(a, b, ctx)
        if ta is NumState:
            return _merge_num(a, b, ctx)
        if ta is ObjectState:
            return _merge_object(a, b, ctx)
        if ta is ArrayState:
            return _merge_array(a, b, ctx)
        if ta is TimestampState:
            return TimestampState(
                _min_or_none(a.minimum, b.minimum), _max_or_none(a.maximum, b.maximum)
            )
        if ta is BinaryState:
            return BinaryState(
                _min_or_none(a.min_length, b.min_length),
                _max_or_none(a.max_length, b.max_length),
            )
        return a  # Bool/Null: no fields
    # integer ⊔ number → number (IntegerSchema.scala:49, NumberSchema.scala:54-61)
    if ta is IntState and tb is NumState:
        return _merge_num(_int_to_num(a), b, ctx)
    if ta is NumState and tb is IntState:
        return _merge_num(a, _int_to_num(b), ctx)
    # anything else: product-land
    return _merge_product(a, b, ctx)


# --- derive -----------------------------------------------------------------


class _Node:
    """Everything seen so far at one JSON path. ``string`` is
    ``[format, pattern, min_len, max_len, enum]``; ``integer`` and ``number``
    are ``[min, max, enum]``; an enum is a mutable set or the None
    tombstone. ``object`` maps key -> child node; ``array`` is the single
    items node (created even for an empty array)."""

    __slots__ = ("null", "boolean", "string", "integer", "number", "object", "array")

    def __init__(self):
        self.null = self.boolean = False
        self.string = self.integer = self.number = self.object = self.array = None


_NoneType = type(None)
_EXACT_JSON_TYPES = frozenset((dict, list, str, int, float, bool, _NoneType))


def _json_type(value) -> type:
    """The JSON kind of a non-exact value (subclasses; tuples are arrays),
    checked in the reference's order: bool before int."""
    if value is None:
        return _NoneType
    for t in (bool, str, int, float, dict):
        if isinstance(value, t):
            return t
    if isinstance(value, (list, tuple)):
        return list
    raise TypeError(f"unsupported JSON value type: {type(value)!r}")


class Accumulator:
    """Folds parsed JSON values into one mutable tree of :class:`_Node`;
    :meth:`state` freezes it into the :data:`State` ADT.

    Once a path's format, pattern or enum is None it stays None (None
    absorbs in ``_eq_or_none`` and in the enum tombstone), so the
    suggesters and enum inserts are skipped from then on. A value that
    raises ``TypeError`` may leave part of itself behind: callers that
    continue past an error rebuild (see :func:`derive_with_failures`)."""

    __slots__ = ("ctx", "root", "_quantity", "_lengths", "_keep", "_enum_all")

    def __init__(self, ctx: SchemaContext):
        self.ctx = ctx
        self.root = _Node()
        self._quantity = ctx.quantity
        self._lengths = ctx.derive_length
        self._keep = ctx.enum_keep_threshold
        # constructEnum (SchemaGenerator.scala:231-240) keeps every value,
        # only members of a predefined set, or none
        if ctx.enum_cardinality > 0:
            self._enum_all = True
        elif ctx.enum_sets:
            self._enum_all = False
        else:
            self._enum_all = None

    def add(self, value) -> None:
        self._add(self.root, value)

    def _new_enum(self, v) -> Optional[set]:
        mode = self._enum_all
        if mode or (mode is not None and self.ctx.in_any_enum_set(v)):
            return {v}
        return None

    def _add_enum(self, slot: list, i: int, v) -> None:
        enum = slot[i]
        if self._enum_all or self.ctx.in_any_enum_set(v):
            enum.add(v)
            if len(enum) > self._keep:
                slot[i] = None
        else:
            slot[i] = None

    def _add(self, node: _Node, v) -> None:
        t = type(v)
        if t not in _EXACT_JSON_TYPES:
            t = _json_type(v)
        if t is dict:
            props = node.object
            if props is None:
                props = node.object = {}
            for k, x in v.items():
                child = props.get(k)
                if child is None:
                    child = props[k] = _Node()
                self._add(child, x)
        elif t is str:
            s = node.string
            n = len(v) if self._lengths else None
            if s is None:
                node.string = [fmt.suggest_format(v), fmt.suggest_pattern(v, self._quantity),
                               n, n, self._new_enum(v)]
                return
            if s[0] is not None and fmt.suggest_format(v) != s[0]:
                s[0] = None
            if s[1] is not None and fmt.suggest_pattern(v, self._quantity) != s[1]:
                s[1] = None
            if n is not None:
                if n < s[2]:
                    s[2] = n
                if n > s[3]:
                    s[3] = n
            if s[4] is not None:
                self._add_enum(s, 4, v)
        elif t is int or t is float:
            r = node.integer if t is int else node.number
            if r is None:
                r = [v, v, self._new_enum(v)]
                if t is int:
                    node.integer = r
                else:
                    node.number = r
                return
            if v < r[0]:
                r[0] = v
            if v > r[1]:
                r[1] = v
            if r[2] is not None:
                self._add_enum(r, 2, v)
        elif t is list:
            items = node.array
            if items is None:
                items = node.array = _Node()
            for x in v:
                self._add(items, x)
        elif t is bool:
            node.boolean = True
        else:
            node.null = True

    def state(self) -> State:
        return self._freeze(self.root)

    def _freeze(self, node: _Node) -> State:
        slots: Dict[str, State] = {}
        if node.object is not None:
            slots["object"] = ObjectState(
                {k: self._freeze(c) for k, c in node.object.items()})
        if node.array is not None:
            slots["array"] = ArrayState(self._freeze(node.array))
        if node.string is not None:
            f, p, lo, hi, e = node.string
            slots["string"] = StringState(f, p, lo, hi, _frozen(e))
        if node.integer is not None:
            lo, hi, e = node.integer
            slots["integer"] = IntState(lo, hi, _frozen(e))
        if node.number is not None:
            lo, hi, e = node.number
            num = NumState(lo, hi, _frozen(e))
            if "integer" in slots:  # number absorbs integer (see _merge_product)
                num = _merge_num(_int_to_num(slots.pop("integer")), num, self.ctx)
            slots["number"] = num
        if node.boolean:
            slots["boolean"] = BOOL
        if node.null:
            slots["null"] = NULL
        if len(slots) > 1:
            return ProductState(slots)
        return next(iter(slots.values()), ZERO)


def _frozen(enum: Optional[set]) -> EnumState:
    return None if enum is None else frozenset(enum)


def _check_instance(value) -> None:
    """Only object or array instances are schema-derivable
    (SchemaGenerator.scala:54-59)."""
    if not isinstance(value, (dict, list, tuple)):
        raise ValueError("JSON instance must be an object or array at top level")


def derive_value(value, ctx: SchemaContext) -> State:
    """Micro-schema for ONE parsed JSON value (jsonToSchema recursion,
    SchemaGenerator.scala:93-148 + Annotations :152-275)."""
    acc = Accumulator(ctx)
    acc.add(value)
    return acc.state()


def derive_instance(value, ctx: SchemaContext) -> State:
    """Top-level derive: only object or array instances are schema-derivable."""
    _check_instance(value)
    return derive_value(value, ctx)


def derive(values, ctx: SchemaContext) -> State:
    """Derive and fold a collection of parsed JSON instances into one state
    (the per-batch partial-aggregation kernel; reference ``schemas.suml``,
    SchemaGuru.scala:71). Invalid top-level instances raise — callers that
    need error capture use :func:`derive_with_errors`."""
    acc = Accumulator(ctx)
    for v in values:
        _check_instance(v)
        acc.add(v)
    return acc.state()


def derive_with_failures(values, ctx: SchemaContext) -> Tuple[State, List[Tuple[int, Exception]]]:
    """Fold instances into one state, collecting ``(index, error)`` for each
    instance that cannot be derived instead of raising. A failing instance
    contributes nothing: the top-level check runs before any mutation, and
    after a mid-instance ``TypeError`` (a non-JSON Python value, which
    ``json.loads`` never produces) the accumulator is rebuilt from the
    instances accepted so far."""
    acc = Accumulator(ctx)
    accepted: list = []
    failed: List[Tuple[int, Exception]] = []
    for i, v in enumerate(values):
        try:
            _check_instance(v)
        except ValueError as e:
            failed.append((i, e))
            continue
        try:
            acc.add(v)
        except (ValueError, TypeError) as e:
            failed.append((i, e))
            acc = Accumulator(ctx)
            for ok in accepted:
                acc.add(ok)
            continue
        accepted.append(v)
    return acc.state(), failed


def derive_with_errors(values, ctx: SchemaContext):
    """Like :func:`derive` but collects per-instance error strings instead of
    raising (the reference's Validation split, SchemaGuru.scala:46-55)."""
    state, failed = derive_with_failures(values, ctx)
    return state, [f"instance {i}: {e}" for i, e in failed]
