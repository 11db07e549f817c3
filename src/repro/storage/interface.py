"""Storage interfaces shared by the in-memory, multiversion and SQLite backends.

The chase and the query layer only ever need two things from storage:

* a read-only :class:`DatabaseView` — "what tuples are visible right now?" —
  used to evaluate conjunctive, violation and correction queries, and
* a mutable :class:`MutableDatabase` — insert / delete / null-replacement —
  used by chase steps to apply their writes.

The multiversion store used by the concurrency-control layer produces one
:class:`DatabaseView` per update priority (Section 4.1 of the paper: an update
numbered ``j`` sees the largest-numbered version created by updates with
number at most ``j``).

The three probes below (the join's ``tuples_matching``, the correction
query ``more_specific_tuples`` and ``tuples_containing_null``) have scanning
defaults here, which the tests use as the reference.  The in-memory stores
override all three with index probes: the multiversion view over its
content indexes, the two single-version stores through one shared
implementation over a position index
(:class:`~repro.storage.memory.IndexedProbes`; an immutable snapshot builds
its index on its first probe).  The overlay view delegates the join and
null probes to its base, and the SQLite store answers the join probe in SQL.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from ..core.schema import DatabaseSchema
from ..core.terms import Constant, DataTerm, LabeledNull
from ..core.tuples import Tuple


class StorageError(RuntimeError):
    """Raised when a storage operation cannot be carried out."""


class DatabaseView(ABC):
    """A read-only snapshot of a repository."""

    @property
    @abstractmethod
    def schema(self) -> DatabaseSchema:
        """The database schema."""

    @abstractmethod
    def relations(self) -> List[str]:
        """Names of all relations in the view."""

    @abstractmethod
    def tuples(self, relation: str) -> Iterator[Tuple]:
        """Iterate over the visible tuples of *relation*."""

    @abstractmethod
    def contains(self, row: Tuple) -> bool:
        """``True`` when *row* is visible."""

    # ------------------------------------------------------------------
    # Default implementations that concrete views may override with
    # index-accelerated versions.
    # ------------------------------------------------------------------
    def tuples_matching(
        self, relation: str, bound: Sequence[PyTuple[int, DataTerm]]
    ) -> Iterator[Tuple]:
        """Visible tuples of *relation* equal to ``value`` at every ``position``.

        *bound* is a sequence of ``(position, value)`` pairs — the probe a
        join issues with every column it has bound.  A value may be a
        constant or a labeled null (compared by identity of the null, not
        unified); no pairs means ``tuples(relation)``; pairs that contradict
        each other match nothing.  Each matching tuple is yielded once.
        Indexed backends iterate the *first* pair's bucket and use the other
        pairs only to discard, so the result is a subsequence of the
        one-pair probe ``tuples_matching(relation, bound[:1])``.
        """
        for row in self.tuples(relation):
            if all(row[position] == value for position, value in bound):
                yield row

    def tuples_containing_null(self, null: LabeledNull) -> Iterator[Tuple]:
        """All visible tuples (any relation) containing the labeled null."""
        for relation in self.relations():
            for row in self.tuples(relation):
                if row.contains_null(null):
                    yield row

    def more_specific_tuples(self, row: Tuple) -> List[Tuple]:
        """Visible tuples of ``row.relation`` that are more specific than *row*.

        This is the correction query the forward chase issues to decide whether
        a generated tuple is a frontier tuple (Section 2.2) — and, if so, which
        unification candidates to offer the user.
        """
        return [
            candidate
            for candidate in self.tuples(row.relation)
            if candidate.is_more_specific_than(row)
        ]

    def count(self, relation: str) -> int:
        """Number of visible tuples in *relation*."""
        return sum(1 for _ in self.tuples(relation))

    def cardinality_estimate(self, relation: str) -> Optional[int]:
        """A cheap (O(1)) upper-bound estimate of ``count(relation)``.

        Used by the compiled query planner to order joins cheapest-first.
        ``None`` (the default) means "no cheap estimate available" — the
        planner then falls back to its static ordering.  Backends with an
        O(1) gauge (set sizes, tid buckets) override this; the estimate may
        over-approximate but must never require scanning the relation.
        """
        return None

    def change_token(self) -> Optional[object]:
        """A value that changes whenever this view's visible contents may have.

        Two calls returning the same (non-``None``) token guarantee the view
        answered — and will answer — every query identically in between, so
        pure read results can be memoized against it.  ``None`` (the default)
        means "no cheap token available"; immutable views return a constant.
        """
        return None

    def total_count(self) -> int:
        """Total number of visible tuples across all relations."""
        return sum(self.count(relation) for relation in self.relations())

    def to_dict(self) -> Dict[str, frozenset]:
        """Materialize the view as ``{relation: frozenset(tuples)}``.

        Used by tests and by the final-state serializability checker, which
        compares whole database states.
        """
        return {
            relation: frozenset(self.tuples(relation))
            for relation in self.relations()
        }


class MutableDatabase(DatabaseView):
    """A :class:`DatabaseView` that also supports the three Youtopia writes."""

    @abstractmethod
    def insert(self, row: Tuple) -> bool:
        """Insert *row*; return ``True`` when the database changed."""

    @abstractmethod
    def delete(self, row: Tuple) -> bool:
        """Delete *row*; return ``True`` when the database changed."""

    @abstractmethod
    def replace_null(self, null: LabeledNull, value: DataTerm) -> List[Tuple]:
        """Replace every occurrence of *null* by *value*.

        Returns the list of tuples (post-replacement) that were modified.
        Replacement is global and consistent, as required for the guarantee
        that null-replacements only cause LHS-violations (Section 2).
        """

    @abstractmethod
    def snapshot(self) -> "DatabaseView":
        """Return an immutable copy of the current state."""


def dump_sorted(view: DatabaseView) -> List[str]:
    """Render a view as a sorted list of tuple strings (handy in tests/examples)."""
    lines: List[str] = []
    for relation in sorted(view.relations()):
        for row in view.tuples(relation):
            lines.append(repr(row))
    return sorted(lines)
