"""Merge/derive configuration, mirroring the reference's SchemaContext.

Reference: schema/Helpers.scala:43-85 — ``SchemaContext(enumCardinality,
enumSets, quantity, deriveLength)`` is passed implicitly to every
create/merge.  Here it is a frozen dataclass captured in closures and kernel
constructors (cheap to pickle, shipped once per task).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class EnumSet:
    """A named predefined enum set (e.g. ISO 4217 currency codes)."""

    name: str
    values: frozenset

    def __contains__(self, v) -> bool:
        return v in self.values


@dataclass(frozen=True)
class SchemaContext:
    """Configuration for micro-schema derivation and merging.

    Attributes
    ----------
    enum_cardinality:
        Max number of distinct values kept as an ``enum`` (reference
        ``--enum N``, SchemaWithEnum.scala:57-70). 0 disables enums.
    enum_sets:
        Predefined enum sets (reference ``--enum-sets``,
        PredefinedEnums.scala:23-27 + user JSON files). A merged enum that
        is a subset of one of these survives the cardinality cap and is
        substituted by the full set in finalize (Helpers.scala:94-107).
    quantity:
        Total corpus size. Drives the base64 heuristic (pattern suggested
        only when quantity >= 10 or the string is >= 32 chars,
        SchemaGenerator.scala:191-200). For a table this is the row count,
        known up front from metadata.
    derive_length:
        Emit minLength/maxLength for strings (reference ``--no-length``
        inverts; SchemaGenerator.scala:246-254).
    """

    enum_cardinality: int = 0
    enum_sets: Tuple[EnumSet, ...] = ()
    quantity: Optional[int] = None
    derive_length: bool = True

    # Distinct-set states are kept exact up to this bound and tombstoned
    # past it. Must be >= max(enum_cardinality, largest enum_set size) so
    # the cap + predefined-subset decision can be made order-independently
    # in finalize (SURVEY.md §7.4).
    @property
    def enum_keep_threshold(self) -> int:
        biggest = max((len(s.values) for s in self.enum_sets), default=0)
        return max(self.enum_cardinality, biggest)

    def in_any_enum_set(self, v) -> bool:
        return any(v in s for s in self.enum_sets)

    def first_superset(self, values: frozenset) -> Optional[EnumSet]:
        """First predefined set that is a superset of ``values``
        (reference Helpers.scala:59-84 getPredefinedEnum)."""
        for s in self.enum_sets:
            if values <= s.values:
                return s
        return None
