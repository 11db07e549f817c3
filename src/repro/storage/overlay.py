"""Overlay views: cheap "what if this write had not happened?" snapshots.

The PRECISE read-dependency tracker and the optimistic scheduler's conflict
check both need to know whether a single write changes the answer to a read
query (Section 5: "it finds all those updates that have performed some write
such that the answer to q would be different if the write had not yet been
performed").  Rather than copying the database, an :class:`OverlayView` wraps
an existing view and virtually adds or hides individual tuples.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from ..core.schema import DatabaseSchema
from ..core.terms import DataTerm, LabeledNull
from ..core.tuples import Tuple
from ..core.writes import Write, WriteKind
from .interface import DatabaseView


class OverlayView(DatabaseView):
    """A view equal to *base* plus ``added`` tuples minus ``hidden`` tuples."""

    def __init__(
        self,
        base: DatabaseView,
        added: Optional[Set[Tuple]] = None,
        hidden: Optional[Set[Tuple]] = None,
    ):
        self._base = base
        self._added: Set[Tuple] = set(added or ())
        self._hidden: Set[Tuple] = set(hidden or ())
        # A tuple both added and hidden is treated as hidden: hiding always
        # wins, which matches the "undo this write" use case.
        self._added -= self._hidden

    @property
    def schema(self) -> DatabaseSchema:
        return self._base.schema

    def relations(self) -> List[str]:
        names = list(self._base.relations())
        for row in self._added:
            if row.relation not in names:
                names.append(row.relation)
        return names

    def tuples(self, relation: str) -> Iterator[Tuple]:
        seen: Set[Tuple] = set()
        for row in self._base.tuples(relation):
            if row in self._hidden:
                continue
            seen.add(row)
            yield row
        for row in self._added:
            if row.relation == relation and row not in seen:
                yield row

    def contains(self, row: Tuple) -> bool:
        if row in self._hidden:
            return False
        if row in self._added:
            return True
        return self._base.contains(row)

    def cardinality_estimate(self, relation: str) -> Optional[int]:
        base = self._base.cardinality_estimate(relation)
        if base is None:
            return None
        # Hidden rows stay counted (an upper bound is all the planner needs);
        # added rows are few (one write's worth), so the sum stays O(1).
        return base + sum(1 for row in self._added if row.relation == relation)

    def tuples_matching(
        self, relation: str, bound: Sequence[PyTuple[int, DataTerm]]
    ) -> Iterator[Tuple]:
        seen: Set[Tuple] = set()
        for row in self._base.tuples_matching(relation, bound):
            if row in self._hidden:
                continue
            seen.add(row)
            yield row
        for row in self._added:
            if (
                row.relation == relation
                and row not in seen
                and all(row[position] == value for position, value in bound)
            ):
                yield row

    def tuples_containing_null(self, null: LabeledNull) -> Iterator[Tuple]:
        seen: Set[Tuple] = set()
        for row in self._base.tuples_containing_null(null):
            if row in self._hidden:
                continue
            seen.add(row)
            yield row
        for row in self._added:
            if row.contains_null(null) and row not in seen:
                yield row


def view_without_write(base: DatabaseView, write: Write) -> DatabaseView:
    """A view showing the state as if *write* had not been performed.

    * For an insertion, the inserted tuple is hidden.
    * For a deletion, the deleted tuple is restored.
    * For a modification, the new content is hidden and the old restored.
    """
    if write.kind is WriteKind.INSERT:
        return OverlayView(base, hidden={write.row})
    if write.kind is WriteKind.DELETE:
        return OverlayView(base, added={write.row})
    hidden = {write.row}
    added = {write.old_row} if write.old_row is not None else set()
    return OverlayView(base, added=added, hidden=hidden)


def view_with_write(base: DatabaseView, write: Write) -> DatabaseView:
    """A view showing the state as if *write* had (additionally) been performed."""
    if write.kind is WriteKind.INSERT:
        return OverlayView(base, added={write.row})
    if write.kind is WriteKind.DELETE:
        return OverlayView(base, hidden={write.row})
    added = {write.row}
    hidden = {write.old_row} if write.old_row is not None else set()
    return OverlayView(base, added=added, hidden=hidden)
