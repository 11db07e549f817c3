"""Read-dependency trackers: NAIVE, COARSE, PRECISE (Section 5.1) and a hybrid.

When an update issues a read query, the tracker determines which
lower-numbered, still-abortable updates have performed writes that influence
the answer.  Those are the update's *read dependencies*; when one of them is
aborted, the reader must be aborted too (cascading abort).

* :class:`NaiveTracker` records nothing; when an update aborts, every
  still-abortable update with a higher number is requested to abort.
* :class:`CoarseTracker` does not query the database: any abortable update
  that previously wrote *any* tuple to one of the relations the query reads is
  conservatively counted as a dependency.
* :class:`PreciseTracker` checks, for every logged write of an abortable
  lower-numbered update, whether the answer to the query would differ had the
  write not been performed (an exact delta test, which for violation queries
  touches the database).
* :class:`HybridTracker` uses PRECISE for a chosen subset of updates (for
  example updates that have already been aborted once) and COARSE for the
  rest, as sketched at the end of Section 6.

Every tracker accumulates ``cost_units`` — a deterministic proxy for the work
it performs — which the experiment harness uses alongside wall-clock time for
the PRECISE-slowdown panel of Figures 3 and 4.

The trackers do not ask every in-flight update for its writes.  A read query
names the keys a write must fall under to change its answer
(:meth:`~repro.query.base.ReadQuery.watch_keys` — for a violation query one
bound ``(relation, position, value)`` per join test of its seed), the store
keeps its write log transposed by those keys
(:meth:`~repro.storage.versioned.VersionedDatabase.writers_under`), and a
read visits only the updates found there — on the Section 6 workload 96 % of
reads visit nobody.  An update not visited holds no write the query's
``affected_by`` (PRECISE) or exact correction test (COARSE) could say yes to,
so the dependencies are the ones a scan of the log finds.

``cost_units`` stay the scan's as well.  The scan charges every logged write
of every abortable update below the reader — COARSE one unit each, PRECISE a
delta test each up to an update's first influencing write and one unit per
write after it — so an update without a dependency owes its log length times
a constant.  That part is charged for everybody at once from the per-writer
log lengths (:meth:`~repro.storage.versioned.VersionedDatabase.write_count_below`);
a visited update that turns out to be a dependency is then corrected by the
position of its first influencing write
(:meth:`~repro.storage.versioned.VersionedDatabase.log_position`).  The scans
themselves are test oracles (``tests/oracles/precise_scan.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from ..query.base import ReadQuery
from ..storage.interface import DatabaseView
from ..storage.versioned import VersionedDatabase, VersionedWrite

#: Sentinel distinguishing "memoized False" from "not memoized".
_UNKNOWN = object()


class DependencyTracker(ABC):
    """Computes read dependencies at read time."""

    #: Machine-readable name used in experiment output ("NAIVE", "COARSE", ...).
    name: str = "abstract"

    #: ``True`` when cascading aborts must target every younger update because
    #: no dependency information is recorded.
    aborts_all_younger: bool = False

    def __init__(self) -> None:
        self.cost_units: int = 0
        self.reads_processed: int = 0

    @abstractmethod
    def dependencies(
        self,
        query: ReadQuery,
        reader: int,
        store: VersionedDatabase,
        view: DatabaseView,
        abortable: Set[int],
    ) -> Set[int]:
        """Priorities of abortable updates (< *reader*) whose writes influence *query*."""

    def reset(self) -> None:
        """Zero the accumulated cost counters (between experiment runs)."""
        self.cost_units = 0
        self.reads_processed = 0

    @staticmethod
    def _writers_under(
        keys: Optional[Iterable[Hashable]],
        reader: int,
        store: VersionedDatabase,
        abortable: Set[int],
    ) -> List[int]:
        """Abortable updates below *reader* holding a logged write under *keys*.

        With a query's watch keys, every update left out logged no write that
        can change the query's answer.  ``None`` — a query that names no
        keys — selects every logged update.
        """
        if keys is None:
            writers = store.priorities_in_log()
        else:
            writers = store.writers_under(keys)
        return [
            priority
            for priority in writers
            if priority < reader and priority in abortable
        ]

    @staticmethod
    def _relevant_writes(
        query: ReadQuery, priority: int, store: VersionedDatabase
    ) -> Sequence[VersionedWrite]:
        """The writes of *priority* that could possibly influence *query*.

        Every write outside the returned sequence is guaranteed to leave the
        query's answer unchanged (``might_be_affected_by`` is false for it):

        * a *more-specific* correction query is only affected by writes into
          its pattern's relation;
        * a *null-occurrence* correction query is only affected by writes
          whose touched rows contain the null (the store's null-bucketed log);
        * a *violation* query is only affected by writes into the relations it
          reads (the base-class relation-overlap pre-filter is exact about
          everything outside them).

        Unknown query kinds fall back to the update's full (still priority-
        indexed) log so custom ``affected_by`` overrides stay correct.
        """
        kind = query.kind
        if kind == "null-occurrence":
            return store.writes_by_touching_null(priority, query.null)
        if kind in ("more-specific", "violation"):
            return store.writes_by_touching_relations(priority, query.relations())
        return store.writes_by(priority)


class NaiveTracker(DependencyTracker):
    """Record nothing; abort every younger update when cascading (strawman)."""

    name = "NAIVE"
    aborts_all_younger = True

    def dependencies(
        self,
        query: ReadQuery,
        reader: int,
        store: VersionedDatabase,
        view: DatabaseView,
        abortable: Set[int],
    ) -> Set[int]:
        self.reads_processed += 1
        # No work and no information: the cascade rule compensates by
        # aborting every younger update.
        return set()


class CoarseTracker(DependencyTracker):
    """Relation-level over-approximation, computed without touching the database."""

    name = "COARSE"

    def dependencies(
        self,
        query: ReadQuery,
        reader: int,
        store: VersionedDatabase,
        view: DatabaseView,
        abortable: Set[int],
    ) -> Set[int]:
        self.reads_processed += 1
        # A full scan examines every write of every abortable update below
        # the reader at one unit each, dependency or not.
        self.cost_units += store.write_count_below(reader, abortable)
        if query.kind not in ("more-specific", "null-occurrence"):
            # Violation queries fall back to relation overlap: any write into
            # one of the read relations establishes the dependency.
            return set(
                self._writers_under(query.relations(), reader, store, abortable)
            )
        # Correction queries have an exact, database-free test; use it (the
        # paper calls correction queries "the easy case").
        found: Set[int] = set()
        for priority in self._writers_under(
            query.watch_keys(), reader, store, abortable
        ):
            for entry in self._relevant_writes(query, priority, store):
                if query.might_be_affected_by(entry.write):
                    found.add(priority)
                    break
        return found


class PreciseTracker(DependencyTracker):
    """Exact per-write delta test; expensive but close to the true dependencies."""

    name = "PRECISE"

    #: Memo entries are pruned wholesale past this size.  The per-relation
    #: invalidation never deletes entries eagerly (stale ones are simply
    #: re-proved on next lookup), so an explicit bound keeps a long-running
    #: service's memory flat; the limit is far above the working set of one
    #: scheduler pump.
    _MEMO_LIMIT = 1 << 16

    def __init__(self) -> None:
        super().__init__()
        # Delta-verdict memo: (reader, query, write seq) -> (verdict, token).
        # Within one chase step the same query is re-recorded several times
        # (queue refresh, request building), so the same (query, write) delta
        # tests recur; and across steps most writes touch relations the query
        # does not read.  The validity token is therefore *per relation*: the
        # tuple of the store's relation stamps over the query's read set at
        # memo time.  A verdict survives any store mutation that leaves those
        # relations untouched — instead of the historical behaviour of
        # clearing the whole memo on every mutation.  Correction queries
        # (``more-specific`` / ``null-occurrence``) have database-free exact
        # verdicts; their token is ``None`` and they never expire.
        self._memo: Dict[PyTuple[int, ReadQuery, int], PyTuple[bool, Optional[PyTuple[int, ...]]]] = {}
        # The epoch holds a strong reference to the store (not its id(),
        # which CPython reuses after garbage collection).
        self._memo_store: Optional[VersionedDatabase] = None

    def reset(self) -> None:
        super().reset()
        self._memo.clear()
        self._memo_store = None

    @staticmethod
    def _memo_token(
        query: ReadQuery, store: VersionedDatabase
    ) -> Optional[PyTuple[int, ...]]:
        """The validity token of a verdict for *query* on *store* right now."""
        if query.kind in ("more-specific", "null-occurrence"):
            # Database-free exact verdict: depends on the write alone.
            return None
        return tuple(map(store.relation_stamp, query.sorted_relations()))

    def _delta_verdict(
        self,
        query: ReadQuery,
        reader: int,
        entry: VersionedWrite,
        store: VersionedDatabase,
        view: DatabaseView,
        token: Optional[PyTuple[int, ...]],
    ) -> bool:
        key = (reader, query, entry.seq)
        memoized = self._memo.get(key, _UNKNOWN)
        if memoized is not _UNKNOWN:
            verdict, stored_token = memoized
            if stored_token is None or stored_token == token:
                return verdict
        verdict = query.affected_by(entry.write, view)
        if len(self._memo) >= self._MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = (verdict, token)
        return verdict

    def dependencies(
        self,
        query: ReadQuery,
        reader: int,
        store: VersionedDatabase,
        view: DatabaseView,
        abortable: Set[int],
    ) -> Set[int]:
        self.reads_processed += 1
        if store is not self._memo_store:
            self._memo_store = store
            self._memo.clear()
        writes_below = store.write_count_below(reader, abortable)
        found: Set[int] = set()
        if not writes_below:
            # No abortable writes below the reader: nothing to delta-test and
            # nothing to charge (the common case whenever admission keeps
            # concurrency low).
            return found
        # The full scan delta-tests every write of an update it finds no
        # dependency on; charge that for everybody, correct the others below.
        unit_cost = 2 * query.evaluation_cost()
        self.cost_units += unit_cost * writes_below
        token: object = _UNKNOWN
        for priority in self._writers_under(
            query.watch_keys(), reader, store, abortable
        ):
            for entry in self._relevant_writes(query, priority, store):
                if token is _UNKNOWN:
                    token = self._memo_token(query, store)
                if self._delta_verdict(query, reader, entry, store, view, token):
                    # Past its first influencing write the scan stops testing
                    # and charges one unit per remaining write of the
                    # now-established dependency.
                    untested = store.write_count_by(priority) - store.log_position(
                        priority, entry.seq
                    )
                    self.cost_units -= (unit_cost - 1) * untested
                    found.add(priority)
                    break
        return found


class HybridTracker(DependencyTracker):
    """PRECISE for selected readers, COARSE for the rest (Section 6's hybrid)."""

    name = "HYBRID"

    def __init__(self, use_precise: Optional[Callable[[int], bool]] = None):
        super().__init__()
        self._coarse = CoarseTracker()
        self._precise = PreciseTracker()
        self._use_precise = use_precise if use_precise is not None else (lambda reader: False)
        #: Readers promoted to PRECISE at runtime (e.g. after their first abort).
        self.promoted: Set[int] = set()

    def promote(self, reader: int) -> None:
        """Switch *reader* (and its future restarts' reads) to PRECISE tracking."""
        self.promoted.add(reader)

    def dependencies(
        self,
        query: ReadQuery,
        reader: int,
        store: VersionedDatabase,
        view: DatabaseView,
        abortable: Set[int],
    ) -> Set[int]:
        if reader in self.promoted or self._use_precise(reader):
            result = self._precise.dependencies(query, reader, store, view, abortable)
        else:
            result = self._coarse.dependencies(query, reader, store, view, abortable)
        # Both counters are folded from the sub-trackers (each delegated read
        # increments exactly one of them), so totals survive sub-tracker
        # resets staying consistent with the aggregated cost.
        self.cost_units = self._coarse.cost_units + self._precise.cost_units
        self.reads_processed = (
            self._coarse.reads_processed + self._precise.reads_processed
        )
        return result

    def reset(self) -> None:
        super().reset()
        self._coarse.reset()
        self._precise.reset()
        self.promoted.clear()


def make_tracker(name: str) -> DependencyTracker:
    """Build a tracker from its experiment name (case-insensitive)."""
    normalized = name.strip().upper()
    if normalized in ("NAIVE", "NAÏVE"):
        return NaiveTracker()
    if normalized == "COARSE":
        return CoarseTracker()
    if normalized == "PRECISE":
        return PreciseTracker()
    if normalized == "HYBRID":
        return HybridTracker()
    raise ValueError("unknown dependency tracker {!r}".format(name))
