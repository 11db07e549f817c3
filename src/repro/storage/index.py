"""Secondary indexes used by the in-memory stores to accelerate joins.

The violation queries of Section 4.2 are conjunctive queries whose join
predicates are dictated by the mappings; the paper notes (Section 5.1.2) that
"it is possible to improve performance by appropriate indexing".  The
:class:`PositionIndex` below is the simplest useful structure: a hash index
from ``(relation, position, term)`` to the set of tuples holding that term at
that position.
"""

from __future__ import annotations

from collections import defaultdict
from typing import AbstractSet, Dict, Iterable, Set, Tuple as PyTuple

from ..core.terms import DataTerm, LabeledNull
from ..core.tuples import Tuple

#: What a probe of an absent key returns: one shared empty set, so a miss
#: allocates nothing (callers only read buckets).
_NO_ROWS: AbstractSet[Tuple] = frozenset()


class PositionIndex:
    """Hash index over every (relation, position, value) combination."""

    def __init__(self) -> None:
        self._by_value: Dict[PyTuple[str, int, DataTerm], Set[Tuple]] = defaultdict(set)
        self._by_null: Dict[LabeledNull, Set[Tuple]] = defaultdict(set)
        #: Number of rows indexed, maintained incrementally: ``len()`` used to
        #: recount every value bucket on each call (O(#buckets)), which turned
        #: the introspection gauges into accidental full scans.
        self._size = 0

    def add(self, row: Tuple) -> None:
        """Index *row* (idempotent)."""
        changed = False
        for position, value in enumerate(row.values):
            bucket = self._by_value[(row.relation, position, value)]
            if row not in bucket:
                bucket.add(row)
                changed = True
        for null in row.null_set():
            self._by_null[null].add(row)
        if changed or not row.values:
            self._size += 1

    def remove(self, row: Tuple) -> None:
        """Remove *row* from the index (no-op if absent)."""
        removed = False
        for position, value in enumerate(row.values):
            bucket = self._by_value.get((row.relation, position, value))
            if bucket is not None and row in bucket:
                bucket.discard(row)
                removed = True
                if not bucket:
                    del self._by_value[(row.relation, position, value)]
        for null in row.null_set():
            bucket = self._by_null.get(null)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del self._by_null[null]
        if removed:
            self._size -= 1

    def add_many(self, rows: Iterable[Tuple]) -> None:
        """Bulk-index *rows*: :meth:`add` per row, with the lookups bound once.

        Each bucket receives its rows in the order given, exactly as a run
        of :meth:`add` calls would leave it; only the per-call overhead goes.
        A row counts once however often it is given, through its position-0
        bucket (membership there is 1:1 with row membership).
        """
        by_value, by_null = self._by_value, self._by_null
        added = 0
        for row in rows:
            relation, values = row.relation, row.values
            if not values:
                added += 1
                continue
            first = by_value[(relation, 0, values[0])]
            if row not in first:
                first.add(row)
                added += 1
            for position in range(1, len(values)):
                by_value[(relation, position, values[position])].add(row)
            for null in row.null_set():
                by_null[null].add(row)
        self._size += added

    def remove_many(self, rows: Iterable[Tuple]) -> None:
        """Bulk-remove *rows* (each a no-op if absent)."""
        for row in rows:
            self.remove(row)

    def lookup(
        self, relation: str, position: int, value: DataTerm
    ) -> AbstractSet[Tuple]:
        """Tuples of *relation* holding *value* at *position* (the live bucket)."""
        return self._by_value.get((relation, position, value), _NO_ROWS)

    def with_null(self, null: LabeledNull) -> AbstractSet[Tuple]:
        """All indexed tuples containing *null* (the live bucket)."""
        return self._by_null.get(null, _NO_ROWS)

    def rebuild(self, rows: Iterable[Tuple]) -> None:
        """Clear the index and re-index *rows* from scratch."""
        self._by_value.clear()
        self._by_null.clear()
        self._size = 0
        self.add_many(rows)

    def __len__(self) -> int:
        return self._size
