"""Relation and database schemas.

A Youtopia repository is, at the logical level, a set of named relations.  The
schema layer records relation names, attribute names and arities, and performs
the validation that the storage and chase layers rely on (arity checks,
unknown-relation checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple as PyTuple

from .tuples import Tuple


class SchemaError(ValueError):
    """Raised when a schema constraint is violated (bad arity, unknown relation)."""


@dataclass(frozen=True)
class RelationSchema:
    """Schema of a single relation: its name and attribute names.

    Attribute names are primarily documentation (the chase operates
    positionally) but they make mappings, examples and error messages far more
    readable.
    """

    name: str
    attributes: PyTuple[str, ...]

    def __init__(self, name: str, attributes: Sequence[str]):
        if not name:
            raise SchemaError("relation name must be non-empty")
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("relation {!r} must have at least one attribute".format(name))
        if len(set(attrs)) != len(attrs):
            raise SchemaError(
                "relation {!r} has duplicate attribute names: {}".format(name, attrs)
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    def validate_tuple(self, row: Tuple) -> None:
        """Check that *row* belongs to this relation and has the right arity."""
        if row.relation != self.name:
            raise SchemaError(
                "tuple {!r} does not belong to relation {!r}".format(row, self.name)
            )
        if row.arity != self.arity:
            raise SchemaError(
                "tuple {!r} has arity {} but relation {!r} expects {}".format(
                    row, row.arity, self.name, self.arity
                )
            )

    def __str__(self) -> str:
        return "{}({})".format(self.name, ", ".join(self.attributes))


@dataclass
class DatabaseSchema:
    """The set of relation schemas making up a repository."""

    relations: Dict[str, RelationSchema] = field(default_factory=dict)

    @classmethod
    def from_relations(cls, relations: Iterable[RelationSchema]) -> "DatabaseSchema":
        """Build a schema from an iterable of relation schemas."""
        schema = cls()
        for relation in relations:
            schema.add_relation(relation)
        return schema

    @classmethod
    def from_dict(cls, spec: Dict[str, Sequence[str]]) -> "DatabaseSchema":
        """Build a schema from ``{'R': ['a', 'b'], ...}`` style specs."""
        return cls.from_relations(
            RelationSchema(name, attributes) for name, attributes in spec.items()
        )

    def add_relation(self, relation: RelationSchema) -> None:
        """Register *relation*; duplicate names are rejected."""
        if relation.name in self.relations:
            raise SchemaError("relation {!r} already declared".format(relation.name))
        self.relations[relation.name] = relation

    def relation(self, name: str) -> RelationSchema:
        """Return the schema of relation *name* or raise :class:`SchemaError`."""
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError("unknown relation {!r}".format(name)) from None

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)

    def relation_names(self) -> List[str]:
        """All relation names, in declaration order."""
        return list(self.relations)

    def arity_of(self, name: str) -> int:
        """Arity of relation *name*."""
        return self.relation(name).arity

    def validate_tuple(self, row: Tuple) -> None:
        """Check *row* against the schema of its relation."""
        self.relation(row.relation).validate_tuple(row)

    def describe(self) -> str:
        """Human-readable multi-line description of the schema."""
        return "\n".join(str(relation) for relation in self)


def generic_attributes(arity: int, prefix: str = "a") -> List[str]:
    """Produce attribute names ``a1 .. aN`` for generated schemas."""
    if arity < 1:
        raise SchemaError("arity must be at least 1, got {}".format(arity))
    return ["{}{}".format(prefix, index + 1) for index in range(arity)]
