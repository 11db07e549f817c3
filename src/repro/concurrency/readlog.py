"""The read-query log kept by the optimistic scheduler.

Algorithm 4 stores the read queries each chase step actually performed so
that later writes by lower-numbered updates can be checked against them.  The
log additionally stores, per read, the *read dependencies* computed by the
configured dependency tracker (Section 5.1): the lower-numbered updates whose
writes influenced the answer.  Cascading aborts are computed from these
dependencies.

The log is *indexed by what a write could join*.  A read query names the
keys a write must fall under to change its answer
(:meth:`~repro.query.base.ReadQuery.watch_keys`): a violation query one bound
``(relation, position, value)`` per join test of its seed — the relation alone
only where a test binds nothing —, a more-specific query its pattern's first
constant, a null-occurrence query its null.  Each record is filed, per reader,
under those keys with its rank in the reader's log; a query that names none
is filed under a wildcard every write is shown.  The conflict checker probes
with the keys of the written rows (:func:`~repro.storage.versioned.write_keys`)
and gets back, per reader, the records the write could possibly affect.

What is skipped is exact: a record not handed out has ``affected_by(write)``
false on every view.  It is not free in the Figure 3/4 cost model, though —
the full scan paid for it — and what it paid depends on the record's
``might_be_affected_by`` pre-filter alone.  For a violation query that is
"the write's relation is one I read", whatever the seed; so per reader and
read relation the log keeps, by rank, the running count and delta cost of the
violation records reading it (:meth:`ReadLog.violation_charge`).  Every other
skipped record fails its pre-filter and cost the scan one unit.

Records are filed when the conflict checker first probes, not when they are
logged: a reader no lower-numbered update writes under commits with its
records never filed, and its queries' keys never compiled.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Set,
    Tuple as PyTuple,
)

from ..core.writes import Write
from ..query.base import ReadQuery
from ..storage.versioned import write_keys

#: The bucket of records whose query names no watch keys; every write probes it.
_WILDCARD = None


@dataclass(frozen=True)
class ReadRecord:
    """One logged read: who read, what they asked, and who influenced the answer."""

    #: Priority number of the reading update.
    reader: int
    #: The query object (re-evaluable against any view).
    query: ReadQuery
    #: Priorities of lower-numbered updates whose writes influenced the answer,
    #: as determined by the dependency tracker in force.
    dependencies: FrozenSet[int]
    #: Monotone sequence number (log order).
    seq: int


#: A record with its 0-based position in its reader's log, which is what lets
#: the indexed conflict check reconstruct how many records a full scan would
#: have walked before reaching it.
Ranked = PyTuple[int, ReadRecord]


class ReadLog:
    """All logged reads of the currently abortable updates."""

    def __init__(self) -> None:
        self._by_reader: Dict[int, List[ReadRecord]] = {}
        # watch key -> reader -> that reader's records filed under the key,
        # in rank order; per reader, the keys it has a bucket under (what
        # removing it has to take back out).
        self._buckets: Dict[Hashable, Dict[int, List[Ranked]]] = {}
        self._keys_by_reader: Dict[int, List[Hashable]] = {}
        # reader -> read relation -> (ranks, running delta cost) of the
        # reader's violation records reading the relation.
        self._charges: Dict[int, Dict[str, PyTuple[List[int], List[int]]]] = {}
        # Filing waits for the first probe — an update nobody below it writes
        # under commits without one: reader -> rank of its first unfiled record.
        self._unfiled_from: Dict[int, int] = {}
        self._seq = itertools.count(1)

    def record(
        self, reader: int, query: ReadQuery, dependencies: Set[int]
    ) -> ReadRecord:
        """Log a read performed by update *reader*."""
        entry = ReadRecord(
            reader=reader,
            query=query,
            dependencies=frozenset(dependencies),
            seq=next(self._seq),
        )
        records = self._by_reader.setdefault(reader, [])
        self._unfiled_from.setdefault(reader, len(records))
        records.append(entry)
        return entry

    def _file_records(self) -> None:
        """Bring the buckets and the running sums up to the end of every log."""
        buckets = self._buckets
        for reader, start in self._unfiled_from.items():
            records = self._by_reader[reader]
            for rank in range(start, len(records)):
                entry = records[rank]
                query = entry.query
                keys = query.watch_keys()
                for key in (_WILDCARD,) if keys is None else keys:
                    per_reader = buckets.get(key)
                    if per_reader is None:
                        per_reader = buckets[key] = {}
                    bucket = per_reader.get(reader)
                    if bucket is None:
                        bucket = per_reader[reader] = []
                        self._keys_by_reader.setdefault(reader, []).append(key)
                    bucket.append((rank, entry))
                if query.kind == "violation":
                    delta_cost = 2 * query.evaluation_cost()
                    charges = self._charges.setdefault(reader, {})
                    for relation in query.relations():
                        ranks, sums = charges.setdefault(relation, ([], []))
                        ranks.append(rank)
                        sums.append(sums[-1] + delta_cost if sums else delta_cost)
        self._unfiled_from.clear()

    def remove_reader(self, reader: int) -> int:
        """Drop every read logged by *reader* (on abort or commit).

        Returns the number of records dropped.
        """
        removed = self._by_reader.pop(reader, [])
        self._unfiled_from.pop(reader, None)
        for key in self._keys_by_reader.pop(reader, ()):
            per_reader = self._buckets[key]
            del per_reader[reader]
            if not per_reader:
                del self._buckets[key]
        self._charges.pop(reader, None)
        return len(removed)

    def readers(self) -> List[int]:
        """All priorities with at least one logged read."""
        return list(self._by_reader)

    def readers_above(self, priority: int) -> List[int]:
        """Readers numbered strictly above *priority*, in log insertion order."""
        return [reader for reader in self._by_reader if reader > priority]

    def record_count(self, reader: int) -> int:
        """Number of reads logged by *reader*."""
        return len(self._by_reader.get(reader, ()))

    def candidates(self, write: Write, above: int) -> Dict[int, List[Ranked]]:
        """Per reader numbered above *above*, the records *write* could affect.

        Rank-ordered, each record once.  Every record **not** handed out has
        ``affected_by(write, view) == False`` on every view; readers with
        no such record are absent.
        """
        if self._unfiled_from:
            self._file_records()
        found: Dict[int, Dict[int, ReadRecord]] = {}
        buckets = self._buckets
        for key in itertools.chain((_WILDCARD,), write_keys(write)):
            per_reader = buckets.get(key)
            if per_reader:
                for reader, bucket in per_reader.items():
                    if reader > above:
                        found.setdefault(reader, {}).update(bucket)
        return {reader: sorted(ranked.items()) for reader, ranked in found.items()}

    def violation_charge(
        self, reader: int, relation: str, stop: int
    ) -> PyTuple[int, int]:
        """What a scan owes for *reader*'s violation records reading *relation*.

        Those ranked below *stop*: every one of them passes the relation-
        overlap pre-filter for a write into *relation*, so the scan spent one
        delta evaluation and ``2 * evaluation_cost()`` units on each.
        Returns ``(delta evaluations, cost units)``.
        """
        if self._unfiled_from:
            self._file_records()
        charged = self._charges.get(reader, {}).get(relation)
        if charged is None:
            return 0, 0
        ranks, sums = charged
        count = bisect_left(ranks, stop)
        return count, sums[count - 1] if count else 0

    def readers_depending_on(self, priority: int) -> Set[int]:
        """Every reader with a recorded read dependency on update *priority*."""
        dependents: Set[int] = set()
        for reader, records in self._by_reader.items():
            for record in records:
                if priority in record.dependencies:
                    dependents.add(reader)
                    break
        return dependents

    def total_records(self) -> int:
        """Total number of logged reads."""
        return sum(len(records) for records in self._by_reader.values())

    def index_entry_count(self) -> int:
        """(record, bucket) and (record, running sum) memberships, plus records yet to file."""
        return sum(
            len(self._by_reader[reader]) - start
            for reader, start in self._unfiled_from.items()
        ) + sum(
            len(bucket)
            for per_reader in self._buckets.values()
            for bucket in per_reader.values()
        ) + sum(
            len(ranks)
            for charges in self._charges.values()
            for ranks, _ in charges.values()
        )

    def __len__(self) -> int:
        return self.total_records()
