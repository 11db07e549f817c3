"""The in-memory store's probes as they were before the shared implementation.

``MemoryDatabase`` and ``FrozenDatabase`` now answer their probes through
:class:`repro.storage.memory.IndexedProbes`.  The functions below are the
mutable store's earlier ``tuples_matching`` and ``more_specific_tuples``,
kept verbatim as the reference: the shared probes must return the same
lists, in the same order, on the same store.  Each takes the store as its
first argument; :class:`ReferenceMemoryDatabase` wires both into a
``MemoryDatabase`` for whole-program differentials (the initial-database
generator run on either store must build the same database).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple as PyTuple

from repro.core.terms import DataTerm, LabeledNull
from repro.core.tuples import Tuple
from repro.storage.buckets import bucket_members
from repro.storage.memory import MemoryDatabase


def tuples_matching(
    db: MemoryDatabase, relation: str, bound: Sequence[PyTuple[int, DataTerm]]
) -> Iterator[Tuple]:
    if not bound:
        return db.tuples(relation)
    (first_position, first_value), *rest = bound
    # A fresh list (callers may mutate while scanning) in bucket order.
    return iter([
        row
        for row in bucket_members(db._index.bucket(relation, first_position, first_value))
        if all(row[position] == value for position, value in rest)
    ])


def more_specific_tuples(db: MemoryDatabase, row: Tuple) -> List[Tuple]:
    candidates = None
    for position, value in enumerate(row.values):
        if isinstance(value, LabeledNull):
            continue
        bucket = bucket_members(db._index.bucket(row.relation, position, value))
        if candidates is None:
            candidates = set(bucket)
        else:
            candidates &= bucket
        if not candidates:
            return []
    if candidates is None:
        # All-null pattern: every tuple of the relation is a candidate.
        candidates = db._relations.get(row.relation, set())
    nulls = [value for value in row.values if isinstance(value, LabeledNull)]
    if len(nulls) == len(set(nulls)):
        if db._schema.arity_of(row.relation) != len(row.values):
            return []  # no stored tuple can match a wrong-arity pattern
        return list(candidates)
    return [
        candidate
        for candidate in candidates
        if candidate.is_more_specific_than(row)
    ]


class ReferenceMemoryDatabase(MemoryDatabase):
    """A ``MemoryDatabase`` answering both probes with the reference code."""

    tuples_matching = tuples_matching
    more_specific_tuples = more_specific_tuples
