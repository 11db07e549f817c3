"""Base class for the read queries performed by chase steps.

Section 4.2 of the paper identifies the reads a chase step performs with the
answers to a set of *read queries*: violation queries (to detect the new
violations a write causes) and correction queries (to decide how a violation
can be repaired).  The concurrency-control layer stores these query objects —
not their answers alone — so that a later write can be checked against them
(Algorithm 4) and so that read dependencies can be computed (Section 5.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, Hashable, Optional, Tuple as PyTuple

from ..core.writes import Write
from ..storage.interface import DatabaseView
from ..storage.overlay import view_without_write


class ReadQuery(ABC):
    """A loggable, re-evaluable read performed by a chase step."""

    #: Short machine-readable kind, e.g. ``"violation"`` or ``"more-specific"``.
    kind: str = "read"

    @abstractmethod
    def relations(self) -> FrozenSet[str]:
        """The relations this query reads from.

        Used by the COARSE dependency tracker (any update that wrote to one of
        these relations is conservatively considered a dependency) and as a
        cheap pre-filter before the precise delta check.
        """

    def sorted_relations(self) -> PyTuple[str, ...]:
        """:meth:`relations` in one fixed order."""
        return tuple(sorted(self.relations()))

    def watch_keys(self) -> Optional[PyTuple[Hashable, ...]]:
        """The index keys a write must fall under to change this query's answer.

        Keys are the ones :func:`repro.storage.versioned.write_keys` files a
        write under — a relation, a ``(relation, position, value)`` triple, a
        labeled null.  The contract is one-sided: :meth:`affected_by` is
        ``False``, on every view, for a write none of whose keys is listed.
        The read log buckets its records and the trackers pick their writers
        by these keys.  ``None`` (the default) means the query cannot tell,
        and every write is shown to it.
        """
        return None

    @abstractmethod
    def evaluate(self, view: DatabaseView) -> Hashable:
        """Evaluate the query on *view*; the result must be hashable.

        Hashability lets the scheduler fingerprint answers and lets the
        delta check compare "with the write" against "without the write".
        """

    def might_be_affected_by(self, write: Write) -> bool:
        """Cheap, database-free over-approximation of :meth:`affected_by`.

        The default implementation only checks relation overlap.  Correction
        queries override this with an *exact* database-free test (the paper
        notes that "a given tuple write changes the answer to a correction
        query either on all databases, or on none").
        """
        return write.relation in self.relations()

    def affected_by(self, write: Write, view: DatabaseView) -> bool:
        """Exact test: does *write* change this query's answer on *view*?

        *view* is the state **including** the write; the implementation
        compares the answer on *view* against the answer on the overlay view
        with the write undone.  Subclasses with database-free exact tests
        override this to avoid touching the database.
        """
        if not self.might_be_affected_by(write):
            return False
        return self.evaluate(view) != self.evaluate(view_without_write(view, write))

    def evaluation_cost(self) -> int:
        """Rough unit cost of evaluating this query, for the cost model.

        The experiment's third panel reports the slowdown of PRECISE relative
        to COARSE; besides wall-clock time we also accumulate these unit costs
        so that scaled-down runs still have a meaningful, deterministic
        execution-time proxy.
        """
        return max(1, len(self.relations()))
