"""Secondary indexes used by the in-memory stores to accelerate joins.

The violation queries of Section 4.2 are conjunctive queries whose join
predicates are dictated by the mappings; the paper notes (Section 5.1.2) that
"it is possible to improve performance by appropriate indexing".  The
:class:`PositionIndex` below is the simplest useful structure: a hash index
from ``(relation, position, term)`` to the bucket of tuples holding that term
at that position, and from each labeled null to the bucket of tuples holding
it.  A bucket is its one row, bare, until a second row arrives
(:mod:`repro.storage.buckets`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple as PyTuple

from ..core.terms import DataTerm, LabeledNull
from ..core.tuples import Tuple
from .buckets import bucket_add, bucket_discard


class PositionIndex:
    """Hash index over every (relation, position, value) combination."""

    def __init__(self) -> None:
        self._by_value: Dict[PyTuple[str, int, DataTerm], object] = {}
        self._by_null: Dict[LabeledNull, object] = {}
        #: Number of rows indexed, maintained incrementally: ``len()`` used to
        #: recount every value bucket on each call (O(#buckets)), which turned
        #: the introspection gauges into accidental full scans.
        self._size = 0

    def add(self, row: Tuple) -> None:
        """Index *row* (idempotent)."""
        by_value, relation = self._by_value, row.relation
        changed = False
        for position, value in enumerate(row.values):
            if bucket_add(by_value, (relation, position, value), row):
                changed = True
        for null in row.null_set():
            bucket_add(self._by_null, null, row)
        if changed or not row.values:
            self._size += 1

    def remove(self, row: Tuple) -> None:
        """Remove *row* from the index (no-op if absent)."""
        by_value, relation = self._by_value, row.relation
        removed = False
        for position, value in enumerate(row.values):
            if bucket_discard(by_value, (relation, position, value), row):
                removed = True
        for null in row.null_set():
            bucket_discard(self._by_null, null, row)
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
            if bucket_add(by_value, (relation, 0, values[0]), row):
                added += 1
            for position in range(1, len(values)):
                bucket_add(by_value, (relation, position, values[position]), row)
            for null in row.null_set():
                bucket_add(by_null, null, row)
        self._size += added

    def bucket(self, relation: str, position: int, value: DataTerm) -> object:
        """The raw bucket of *value* at *position*: ``None``, a row or a set."""
        return self._by_value.get((relation, position, value))

    def null_bucket(self, null: LabeledNull) -> object:
        """The raw bucket of the rows containing *null*: ``None``, a row or a set."""
        return self._by_null.get(null)

    def rebuild(self, rows: Iterable[Tuple]) -> None:
        """Clear the index and re-index *rows* from scratch."""
        self._by_value.clear()
        self._by_null.clear()
        self._size = 0
        self.add_many(rows)

    def __len__(self) -> int:
        return self._size
