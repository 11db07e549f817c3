"""Multiversion store with per-update visibility (Section 4.1).

The optimistic concurrency-control algorithm needs two guarantees from
storage:

* an update's writes must not pollute the reads of *lower*-numbered updates —
  achieved with tuple versions: for an update numbered ``j`` the visible
  version of a tuple is the one with the largest version number among those
  created by updates numbered at most ``j``;
* aborting an update must undo its writes — achieved by removing every
  version the update created (the update's restart then re-executes from its
  initial operation).

Versions are numbered by a single global sequence, which realizes the paper's
"largest number" rule while keeping per-update rollback cheap.

The write log is *indexed*: besides the global, seq-ordered log the store
partitions logged writes by writing priority, by (priority, relation) and by
(priority, labeled null touched).  The dependency trackers (Section 5.1) are
the hot consumers — instead of filtering the full log per read query they ask
for "writes by update *j* touching relations R / null x", which is what turns
tracker cost from O(run length) per read into O(relevant writes).  The same
log is also *transposed*: every key a logged write falls under
(:func:`write_keys` — its relation, each ``(relation, position, value)`` of
the rows it touched, each labeled null in them) maps to the set of updates
that logged such a write (:meth:`VersionedDatabase.writers_under`).  A
tracker starts from the keys its read query watches and visits only the
writers found there, instead of asking every in-flight update for its writes;
what it owes the cost model for the updates it never visits comes from the
per-writer log lengths (:meth:`VersionedDatabase.write_count_below`).
Writes are filed at the first lookup after they were logged — a tracker makes
none while nothing abortable is logged below its reader — and a writer's keys
leave the index with its log, on rollback and on compaction.

Reads go through three content indexes over *every version's* content, keyed
to tuple identities (tids): per ``(relation, position, value)``, per labeled
null, and per exact content (``Tuple`` → the identities some version of which
holds exactly that content).  All three over-approximate — a tid stays
indexed under the contents of its old versions, and a version may be
invisible at the reading priority — so every hit is re-checked against the
identity's *visible* content before it counts; rollback and compaction prune
the entries no remaining version justifies.  Two rules make the answers a
function of the inputs rather than of set iteration order:

* ``_find_visible_tid`` — behind ``contains``, insert, delete and modify —
  consults only the exact-content index and returns the **lowest** tid whose
  visible content equals the row, so that is the one of two equal-valued
  identities a delete or modify hits;
* :meth:`VersionedView.tuples_matching` — the join's probe, with every column
  the join has bound — iterates the *first* pair's value bucket and uses the
  other pairs' buckets only to drop identities before their version chains
  are read, so its answer is a subsequence of the one-pair probe's (read
  logs, abort decisions and the Figure 3/4 cost units hang off that order);
  with every position bound it is one exact-content lookup.

Long-running callers additionally *compact* the store below the scheduler's
commit watermark (:meth:`VersionedDatabase.compact_below`): committed version
chains collapse to their newest committed version, committed log entries are
dropped, and the content indexes are pruned, so a service session's storage
footprint tracks the in-flight set rather than everything ever served.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from heapq import merge as heap_merge
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from ..core.schema import DatabaseSchema, SchemaError
from ..core.terms import DataTerm, LabeledNull
from ..core.tuples import Tuple
from ..core.writes import Write, WriteKind
from .buckets import bucket_add, bucket_copy, bucket_discard
from .interface import DatabaseView, StorageError
from .memory import FrozenDatabase


@dataclass(frozen=True)
class Version:
    """One version of one stored tuple."""

    # Slots: a store holds one or more per row, and without them Python
    # before 3.11 gives each instance a dict of its own.
    __slots__ = ("seq", "priority", "content")

    #: Global creation sequence number (the paper's per-tuple version number,
    #: realized globally so comparisons never tie).
    seq: int
    #: Priority number of the update that created this version.
    priority: int
    #: Tuple content after the write; ``None`` marks a deletion version.
    content: Optional[Tuple]


@dataclass
class VersionedTuple:
    """A tuple identity together with all its versions (newest last)."""

    __slots__ = ("tid", "relation", "versions")

    tid: int
    relation: str
    versions: List[Version]

    def visible_version(self, priority: int) -> Optional[Version]:
        """The version visible to an update numbered *priority* (or ``None``).

        Versions are kept seq-sorted (appends use a monotone global sequence
        and compaction preserves order), so the newest-first scan returns at
        the *first* version the priority may see instead of scanning the
        whole chain.
        """
        for version in reversed(self.versions):
            if version.priority <= priority:
                return version
        return None

    def visible_content(self, priority: int) -> Optional[Tuple]:
        """The visible tuple content, or ``None`` when invisible/deleted."""
        version = self.visible_version(priority)
        if version is None:
            return None
        return version.content


@dataclass(frozen=True)
class VersionedWrite:
    """A write as recorded in the store's log: the write plus its provenance."""

    seq: int
    priority: int
    tid: int
    write: Write


class WriteLogView(SequenceABC):
    """A read-only, copy-free window onto a list of logged writes.

    :meth:`VersionedDatabase.write_log` and :meth:`VersionedDatabase.writes_by`
    used to copy their backing lists on every call — an O(n) allocation per
    *read query* once the trackers got involved.  This view exposes the same
    sequence protocol (iteration, indexing, ``len``) without the copy; it also
    compares equal to plain sequences so existing call sites keep working.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Sequence[VersionedWrite]):
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        return self._entries[index]

    def __iter__(self) -> Iterator[VersionedWrite]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WriteLogView):
            return list(self._entries) == list(other._entries)
        if isinstance(other, (list, tuple)):
            return list(self._entries) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return "WriteLogView({!r})".format(list(self._entries))


_EMPTY_LOG: PyTuple[VersionedWrite, ...] = ()


def write_keys(write: Write) -> List[Hashable]:
    """Every index key *write* falls under (a key may come up twice).

    Its relation, then per row it touched (old and new content of a
    modification) each ``(relation, position, value)`` and each labeled null.
    The write log's transposed index files the writer under these and the
    read log probes its buckets with them; a read query names the ones it
    watches (:meth:`~repro.query.base.ReadQuery.watch_keys`).
    """
    keys: List[Hashable] = [write.relation]
    for row in write.rows_touched():
        relation = row.relation
        keys.extend(
            [(relation, position, value) for position, value in enumerate(row.values)]
        )
        keys.extend(row.null_set())
    return keys


#: Priority value that sees every committed and uncommitted version.
LATEST = float("inf")


class VersionedDatabase:
    """The multiversion repository shared by all concurrently running updates."""

    def __init__(self, schema: DatabaseSchema):
        self._schema = schema
        self._tuples: Dict[int, VersionedTuple] = {}
        self._by_relation: Dict[str, Set[int]] = {
            name: set() for name in schema.relation_names()
        }
        self._tid_counter = itertools.count(1)
        self._seq_counter = itertools.count(1)
        self._write_log: List[VersionedWrite] = []
        # Indexed write log: by priority, by (priority, relation) and by
        # (priority, touched null), each in seq order.  ``_log_seqs`` mirrors
        # ``_log_by_priority`` with the bare seq numbers so trackers can
        # bisect for "position of this write within update j's log".
        self._log_by_priority: Dict[int, List[VersionedWrite]] = {}
        self._log_seqs: Dict[int, List[int]] = {}
        self._log_by_relation: Dict[int, Dict[str, List[VersionedWrite]]] = {}
        self._log_by_null: Dict[int, Dict[LabeledNull, List[VersionedWrite]]] = {}
        # The log transposed: write key -> the priorities holding a logged
        # write under it, and per priority the keys of its writes as they
        # came (what dropping its log has to take back out).  Filing waits
        # for the first lookup: an update that runs with nobody below it in
        # flight never causes one, and commits without having paid for it.
        self._writers: Dict[Hashable, Set[int]] = {}
        self._keys_by_writer: Dict[int, List[Hashable]] = {}
        self._unfiled: List[VersionedWrite] = []
        # Indexes over *every version's* content, keyed to tuple identities
        # (see the module docstring).  They over-approximate — a tid stays
        # indexed under contents of old versions — so readers re-check the
        # visible content, but they turn the chase-hot joins and correction
        # queries from relation scans into bucket probes, mirroring
        # PositionIndex on the single-version store.  A bucket is its one tid,
        # bare, until a second tid arrives (repro.storage.buckets).
        self._value_index: Dict[PyTuple[str, int, DataTerm], object] = {}
        self._null_index: Dict[LabeledNull, object] = {}
        # Exact content -> the identities some version of which holds exactly
        # that content (one entry per distinct stored content): the one index
        # behind _find_visible_tid.
        self._content_index: Dict[Tuple, object] = {}
        # The size gauges, kept current by every write, rollback, compaction
        # and load: telemetry reads them on every heartbeat and status reply,
        # so they must not walk the store.
        self._version_count = 0
        self._index_entries = 0
        #: Monotone stamp bumped by every mutation (write, rollback,
        #: compaction).  Memoizing consumers — the PRECISE tracker's delta
        #: verdict cache — key their entries to it.
        self._mutation_stamp = 0
        #: Per-relation mutation stamps (same counter domain): the stamp of a
        #: relation changes exactly when some version of some tuple of that
        #: relation is created, removed or collapsed.  Consumers whose cached
        #: answers only read a known relation set — the PRECISE delta-verdict
        #: memo keys on a query's read relations — invalidate per relation
        #: instead of on every store mutation.
        self._relation_stamps: Dict[str, int] = {}
        #: Number of compaction passes performed (introspection).
        self.compactions = 0
        #: Optional durable redo log (:class:`~repro.storage.durable.WriteLogSegments`):
        #: when attached, every commit batch's writes go to codec-encoded
        #: segment files (see :meth:`attach_segments`).
        self._segments = None
        #: The rows of the last :meth:`snapshot_to` base, encoded: the next
        #: base re-encodes only the rows that changed since.
        self._encoded_rows: Dict[Tuple, bytes] = {}

    # ------------------------------------------------------------------
    # Loading and basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> DatabaseSchema:
        """The database schema."""
        return self._schema

    def load_initial(self, view: DatabaseView, priority: int = 0) -> None:
        """Load an initial, mapping-satisfying database as priority-0 versions.

        Priority 0 is lower than every real update number, so the initial
        contents are visible to everyone; loading does not go through the
        write log (the initial database is not attributable to any update).
        """
        self.load_rows(
            (row for relation in view.relations() for row in view.tuples(relation)),
            priority,
        )

    def load_rows(self, rows: Iterable[Tuple], priority: int = 0) -> None:
        """Load *rows* as unlogged versions, one tuple identity per row.

        Unlike a view, an iterable may repeat a row: equal rows become
        distinct identities, which is how a base snapshot hands back the
        identity multiplicity it was written with.

        The bulk path: tids, seqs, versions and index buckets come out as
        one :meth:`_new_tuple` per row would hand them out, but no write
        record is built for a row, nothing is logged, and the relation
        stamps move once per load.  A row failing validation stops the load after the rows
        before it, which stay loaded and stamped.
        """
        schema = self._schema
        arities = {name: schema.arity_of(name) for name in self._by_relation}
        tuples, by_relation = self._tuples, self._by_relation
        next_tid, next_seq = self._tid_counter.__next__, self._seq_counter.__next__
        content_index, value_index = self._content_index, self._value_index
        null_index = self._null_index
        touched: Set[str] = set()
        loaded = entries = 0
        try:
            for row in rows:
                relation, values = row.relation, row.values
                if arities.get(relation) != len(values):
                    schema.validate_tuple(row)  # raises the precise SchemaError
                tid = next_tid()
                tuples[tid] = VersionedTuple(
                    tid, relation, [Version(next_seq(), priority, row)]
                )
                by_relation[relation].add(tid)
                touched.add(relation)
                loaded += 1
                # A fresh tid is in no bucket yet: every add is a new entry.
                bucket_add(content_index, row, tid)
                for position, value in enumerate(values):
                    bucket_add(value_index, (relation, position, value), tid)
                nulls = row.null_set()
                for null in nulls:
                    bucket_add(null_index, null, tid)
                entries += 1 + len(values) + len(nulls)
        finally:
            self._version_count += loaded
            self._index_entries += entries
            if touched:
                self._bump_relations(touched)

    def attach_segments(self, segments) -> None:
        """Enable durable mode: log every commit batch to *segments*.

        *segments* is a :class:`~repro.storage.durable.WriteLogSegments`.
        From this call on, :meth:`compact_below` appends one commit record
        per batch, carrying the watermark and the batch's writes in seq
        order (and flushes); writes that roll back never reach the log.
        Nothing is deleted at commit time, so a base written by
        ``snapshot_to(path, B)`` plus ``replay_log(segments.directory, B, W)``
        reproduces the committed store at any later commit watermark ``W``
        (see :mod:`repro.storage.durable`).
        """
        self._segments = segments

    @property
    def segments(self):
        """The attached durable segment log (``None`` in memory-only mode)."""
        return self._segments

    def snapshot_to(self, path: str, watermark: float) -> int:
        """Persist the committed store at *watermark* as one codec snapshot.

        One row per tuple *identity* (not per distinct content), so a later
        by-content replay onto the restored snapshot deletes or rewrites one
        of two equal-valued identities exactly as it did here.  The file is
        replaced atomically; returns the number of bytes written.
        """
        from .durable import write_snapshot

        relations: Dict[str, List[Tuple]] = {
            name: [] for name in self._schema.relation_names()
        }
        for record in self._tuples.values():
            content = record.visible_content(watermark)
            if content is not None:
                relations[content.relation].append(content)
        return write_snapshot(
            path, self._schema, relations, int(watermark), self._encoded_rows
        )

    def write_log(self) -> WriteLogView:
        """The full write log, oldest first (a read-only, copy-free view)."""
        return WriteLogView(self._write_log)

    def writes_by(self, priority: int) -> WriteLogView:
        """All logged writes by the update numbered *priority* (O(1) lookup)."""
        return WriteLogView(self._log_by_priority.get(priority, _EMPTY_LOG))

    def write_count_by(self, priority: int) -> int:
        """Number of logged writes by the update numbered *priority*."""
        return len(self._log_by_priority.get(priority, _EMPTY_LOG))

    def writes_by_touching_relations(
        self, priority: int, relations: Iterable[str]
    ) -> Sequence[VersionedWrite]:
        """Writes by *priority* into any of *relations*, merged in seq order."""
        buckets = self._log_by_relation.get(priority)
        if not buckets:
            return _EMPTY_LOG
        selected = [buckets[name] for name in relations if name in buckets]
        if not selected:
            return _EMPTY_LOG
        if len(selected) == 1:
            return WriteLogView(selected[0])
        return list(heap_merge(*selected, key=lambda entry: entry.seq))

    def writes_by_touching_null(
        self, priority: int, null: LabeledNull
    ) -> Sequence[VersionedWrite]:
        """Writes by *priority* whose touched rows contain *null*, in seq order."""
        buckets = self._log_by_null.get(priority)
        if not buckets:
            return _EMPTY_LOG
        bucket = buckets.get(null)
        if bucket is None:
            return _EMPTY_LOG
        return WriteLogView(bucket)

    def writers_under(self, keys: Iterable[Hashable]) -> Set[int]:
        """The priorities holding a logged write under any of *keys*.

        *keys* are :func:`write_keys` keys; an update none of whose logged
        writes falls under any of them is not in the answer.
        """
        if self._unfiled:
            self._file_writes()
        found: Set[int] = set()
        writers = self._writers
        for key in keys:
            bucket = writers.get(key)
            if bucket:
                found.update(bucket)
        return found

    def _file_writes(self) -> None:
        """Bring the transposed index up to the end of the log."""
        writers = self._writers
        for entry in self._unfiled:
            priority = entry.priority
            keys = write_keys(entry.write)
            self._keys_by_writer.setdefault(priority, []).extend(keys)
            for key in keys:
                bucket = writers.get(key)
                if bucket is None:
                    writers[key] = {priority}
                else:
                    bucket.add(priority)
        self._unfiled = []

    def write_count_below(self, reader: int, abortable: Set[int]) -> int:
        """Logged writes by the updates of *abortable* numbered below *reader*.

        What a scan of the log on behalf of *reader* would have walked; the
        trackers charge their cost model from it without visiting anyone.

        One pass over the priorities that hold a log, which compaction keeps
        to the updates in flight, not over their writes.  No running total:
        the answer is cut both by *reader* and by *abortable*, and the loop
        was measured at 0.8 % of a ``repo_batch`` catalogue pass (17 302
        calls over 12.6 logged priorities on average, 12 ms of 1.42 s).
        """
        total = 0
        for priority, log in self._log_by_priority.items():
            if priority < reader and priority in abortable:
                total += len(log)
        return total

    def log_position(self, priority: int, seq: int) -> int:
        """1-based rank of the write numbered *seq* within *priority*'s log.

        The PRECISE tracker uses this to reconstruct, in O(log n), how many of
        an update's writes a full scan would have examined before reaching
        *seq* — which is what keeps its ``cost_units`` accounting identical to
        the historical scan while the actual work is index-driven.
        """
        return bisect_right(self._log_seqs.get(priority, []), seq)

    def relation_stamp(self, relation: str) -> int:
        """Monotone counter bumped by every mutation touching *relation*.

        ``relation_stamp(R)`` is unchanged between two moments iff no version
        of any tuple of ``R`` was created, removed or collapsed in between, so
        any cached answer that only reads ``R`` (for a fixed visibility
        priority) is still valid.
        """
        return self._relation_stamps.get(relation, 0)

    def _bump_relations(self, relations: Iterable[str]) -> None:
        """Advance the global stamp and the stamps of *relations* together."""
        self._mutation_stamp += 1
        stamp = self._mutation_stamp
        for relation in relations:
            self._relation_stamps[relation] = stamp

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view_for(self, priority: float) -> "VersionedView":
        """The snapshot visible to an update numbered *priority*."""
        return VersionedView(self, priority)

    def latest_view(self) -> "VersionedView":
        """The snapshot that sees every version (for inspection and tests)."""
        return VersionedView(self, LATEST)

    def materialize(self, priority: float = LATEST) -> FrozenDatabase:
        """Freeze the view at *priority* into an immutable database."""
        return FrozenDatabase(self._schema, self.view_for(priority).to_dict())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def apply_write(self, write: Write, priority: int) -> Optional[VersionedWrite]:
        """Apply *write* on behalf of the update numbered *priority*.

        Returns the logged write, or ``None`` when the write had no effect
        (inserting an already-visible tuple, deleting an invisible one).
        """
        if write.kind is WriteKind.INSERT:
            return self._insert(write, priority)
        if write.kind is WriteKind.DELETE:
            return self._delete(write, priority)
        return self._modify(write, priority)

    def apply_writes(self, writes, priority: int) -> List[VersionedWrite]:
        """Apply several writes; returns the logged writes that had effect.

        This is the bulk write path (one chase step's write set arrives here
        in one call): version-chain and content-index maintenance happen per
        write as before, but the write-log indexes are extended with **one**
        :meth:`extend_log` pass and the relation stamps are bumped once for
        the batch's touched-relation union.  No read can interleave within
        the call, so deferring the log/stamp maintenance to the end of the
        batch is unobservable — every external consumer sees the same log and
        the same stamp transitions as under the per-row path.
        """
        applied: List[VersionedWrite] = []
        touched: Set[str] = set()
        try:
            for write in writes:
                if write.kind is WriteKind.INSERT:
                    logged = self._insert(write, priority, defer=True)
                elif write.kind is WriteKind.DELETE:
                    logged = self._delete(write, priority, defer=True)
                else:
                    logged = self._modify(write, priority, defer=True)
                if logged is not None:
                    applied.append(logged)
                    touched.add(write.row.relation)
                    if write.old_row is not None:
                        touched.add(write.old_row.relation)
        except BaseException:
            # A failing write (bad arity, malformed modification) must not
            # leave earlier applied versions unlogged: rollback() undoes an
            # update through its log entries, so the log is completed for
            # whatever was applied before re-raising.
            if applied:
                self.extend_log(applied)
                self._bump_relations(touched)
            raise
        if applied:
            self.extend_log(applied)
            self._bump_relations(touched)
        return applied

    def _next_seq(self) -> int:
        return next(self._seq_counter)

    def _index_content(self, tid: int, row: Tuple) -> None:
        added = bucket_add(self._content_index, row, tid)
        relation, value_index = row.relation, self._value_index
        for position, value in enumerate(row.values):
            added += bucket_add(value_index, (relation, position, value), tid)
        null_index = self._null_index
        for null in row.null_set():
            added += bucket_add(null_index, null, tid)
        self._index_entries += added

    def extend_log(self, entries: Sequence[VersionedWrite]) -> None:
        """Bulk-append *entries* (seq-ascending) to the log and its indexes.

        The one place the log and its indexes grow (the per-row write path
        passes a batch of one).  The batch is grouped by writing priority
        first, so each per-priority bucket dictionary is resolved once per
        batch instead of once per entry.  Callers must pass entries
        in seq order with seqs above everything already logged (which is what
        :meth:`apply_writes` produces); bucket seq-ordering relies on it.
        """
        if not entries:
            return
        self._write_log.extend(entries)
        self._unfiled.extend(entries)
        by_priority: Dict[int, List[VersionedWrite]] = {}
        for entry in entries:
            by_priority.setdefault(entry.priority, []).append(entry)
        for priority, members in by_priority.items():
            log = self._log_by_priority.setdefault(priority, [])
            seqs = self._log_seqs.setdefault(priority, [])
            relation_buckets = self._log_by_relation.setdefault(priority, {})
            null_buckets: Optional[Dict[LabeledNull, List[VersionedWrite]]] = None
            for entry in members:
                log.append(entry)
                seqs.append(entry.seq)
                relation_buckets.setdefault(entry.write.relation, []).append(entry)
                touched_nulls: Set[LabeledNull] = set()
                for row in entry.write.rows_touched():
                    touched_nulls.update(row.null_set())
                if touched_nulls:
                    if null_buckets is None:
                        null_buckets = self._log_by_null.setdefault(priority, {})
                    for null in touched_nulls:
                        null_buckets.setdefault(null, []).append(entry)

    def _new_tuple(
        self, write: Write, priority: int, defer: bool = False
    ) -> VersionedWrite:
        row = write.row
        self._schema.validate_tuple(row)
        tid = next(self._tid_counter)
        seq = self._next_seq()
        self._tuples[tid] = VersionedTuple(
            tid, row.relation, [Version(seq=seq, priority=priority, content=row)]
        )
        self._by_relation[row.relation].add(tid)
        self._version_count += 1
        self._index_content(tid, row)
        logged = VersionedWrite(seq=seq, priority=priority, tid=tid, write=write)
        if not defer:
            self._bump_relations((row.relation,))
            self.extend_log((logged,))
        return logged

    def _find_visible_tid(self, row: Tuple, priority: int) -> Optional[int]:
        # Any identity whose visible content equals *row* has a version
        # holding exactly *row*, so the content index's entry is a complete
        # candidate set — almost always one tid.  It over-approximates like
        # its siblings (the matching version may be old, or invisible at
        # *priority*), so each candidate's visible content is re-checked.
        # Lowest tid first: which of two equal-valued identities a delete or
        # modify hits is a function of the inputs, not of set iteration order.
        bucket = self._content_index.get(row)
        if bucket is None:
            return None
        tuples = self._tuples
        if type(bucket) is not set:
            return bucket if tuples[bucket].visible_content(priority) == row else None
        for tid in sorted(bucket):
            if tuples[tid].visible_content(priority) == row:
                return tid
        return None

    def _insert(
        self, write: Write, priority: int, defer: bool = False
    ) -> Optional[VersionedWrite]:
        if self._find_visible_tid(write.row, priority) is not None:
            return None
        return self._new_tuple(write, priority, defer=defer)

    def _delete(
        self, write: Write, priority: int, defer: bool = False
    ) -> Optional[VersionedWrite]:
        tid = self._find_visible_tid(write.row, priority)
        if tid is None:
            return None
        seq = self._next_seq()
        self._tuples[tid].versions.append(
            Version(seq=seq, priority=priority, content=None)
        )
        self._version_count += 1
        logged = VersionedWrite(seq=seq, priority=priority, tid=tid, write=write)
        if not defer:
            self._bump_relations((write.row.relation,))
            self.extend_log((logged,))
        return logged

    def _modify(
        self, write: Write, priority: int, defer: bool = False
    ) -> Optional[VersionedWrite]:
        if write.old_row is None:
            raise StorageError("modification write lacks its old content: {!r}".format(write))
        tid = self._find_visible_tid(write.old_row, priority)
        if tid is None:
            return None
        seq = self._next_seq()
        self._tuples[tid].versions.append(
            Version(seq=seq, priority=priority, content=write.row)
        )
        self._version_count += 1
        self._index_content(tid, write.row)
        logged = VersionedWrite(seq=seq, priority=priority, tid=tid, write=write)
        if not defer:
            self._bump_relations({write.row.relation, write.old_row.relation})
            self.extend_log((logged,))
        return logged

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------
    def rollback(self, priority: int) -> List[VersionedWrite]:
        """Undo every write performed by the update numbered *priority*.

        Returns the removed log entries (newest first).  Tuple identities
        created by the update disappear entirely.  The indexed log tells us
        exactly which tuples the update touched, so version and index
        maintenance is proportional to the update's own writes (not to the
        whole store); dropping the entries from the global log is one filter
        pass over it, which commit-time compaction keeps bounded by the
        in-flight writes rather than run length.
        """
        removed = self._log_by_priority.get(priority)
        if not removed:
            return []
        self._bump_relations({entry.write.relation for entry in removed})
        self._drop_priority_log(priority)
        for tid in {entry.tid for entry in removed}:
            record = self._tuples.get(tid)
            if record is None:
                continue
            rolled_back = [
                version for version in record.versions if version.priority == priority
            ]
            if not rolled_back:
                continue
            record.versions = [
                version for version in record.versions if version.priority != priority
            ]
            self._version_count -= len(rolled_back)
            if not record.versions:
                # The identity disappears entirely: purge its index entries so
                # an abort-heavy service does not grow dead tids in the
                # chase-hot buckets.
                del self._tuples[tid]
                self._by_relation[record.relation].discard(tid)
            # Prune index entries for the removed contents either way — values
            # no remaining version carries must not keep the tid in a bucket,
            # or the over-approximate indexes grow without bound in service
            # mode (every abort would leave a permanent residue).
            self._prune_index_entries(tid, rolled_back, record.versions)
        return list(reversed(removed))

    def _drop_priority_log(self, priority: int) -> None:
        """Remove every log entry of *priority* from the global and bucket logs."""
        self._drop_priorities_log((priority,))

    def _drop_priorities_log(self, priorities: Iterable[int]) -> None:
        """Drop several priorities' log entries in one pass over the log."""
        dropped = set(priorities)
        # In-place so outstanding WriteLogViews stay live windows onto the
        # log rather than going stale against a rebound list; one filter pass
        # regardless of how many priorities commit together.
        self._write_log[:] = [
            entry for entry in self._write_log if entry.priority not in dropped
        ]
        if self._unfiled:
            self._unfiled = [
                entry for entry in self._unfiled if entry.priority not in dropped
            ]
        for priority in dropped:
            self._log_by_priority.pop(priority, None)
            self._log_seqs.pop(priority, None)
            self._log_by_relation.pop(priority, None)
            self._log_by_null.pop(priority, None)
            for key in self._keys_by_writer.pop(priority, ()):
                bucket = self._writers.get(key)
                if bucket is not None:  # a key of several of its writes comes up again
                    bucket.discard(priority)
                    if not bucket:
                        del self._writers[key]

    def _prune_index_entries(
        self,
        tid: int,
        removed: Iterable[Version],
        remaining: Iterable[Version],
    ) -> None:
        """Drop *tid* from index buckets no remaining version justifies."""
        dropped = 0
        keep_values: Set[PyTuple[str, int, DataTerm]] = set()
        keep_nulls: Set[LabeledNull] = set()
        keep_contents: Set[Tuple] = set()
        for version in remaining:
            row = version.content
            if row is None:
                continue
            keep_contents.add(row)
            for position, value in enumerate(row.values):
                keep_values.add((row.relation, position, value))
            keep_nulls.update(row.null_set())
        for version in removed:
            row = version.content
            if row is None:
                continue
            if row not in keep_contents:
                dropped += bucket_discard(self._content_index, row, tid)
            for position, value in enumerate(row.values):
                key = (row.relation, position, value)
                if key not in keep_values:
                    dropped += bucket_discard(self._value_index, key, tid)
            for null in row.null_set():
                if null not in keep_nulls:
                    dropped += bucket_discard(self._null_index, null, tid)
        self._index_entries -= dropped

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact_below(
        self, watermark: int, priorities: Optional[Iterable[int]] = None
    ) -> int:
        """Compact version chains and the write log below *watermark*.

        The caller guarantees that every priority at or below *watermark* is
        committed (or fully rolled back) and will never read or be rolled back
        again — the optimistic scheduler's commit watermark provides exactly
        this.  Compaction then:

        * collapses, per touched tuple, all versions with priority ≤
          *watermark* into the newest one (visibility for any priority ≥
          *watermark* is unchanged — the newest committed version is the only
          one such a reader could ever see);
        * removes tuples whose committed state is a deletion and that carry no
          uncommitted versions, pruning their content-index entries;
        * drops the committed priorities' write-log entries and log indexes.

        *priorities* limits the pass to the given (newly committed) updates,
        so the incremental commit-time call touches only their tuples and
        index entries (plus one shared filter pass over the — compaction-
        bounded — global log); when omitted, every logged priority ≤
        *watermark* is compacted.  Returns the number of versions removed.
        """
        if priorities is None:
            targets = [
                priority
                for priority in self._log_by_priority
                if priority <= watermark
            ]
        else:
            targets = [
                priority
                for priority in priorities
                if priority <= watermark and priority in self._log_by_priority
            ]
        if not targets:
            return 0
        committed: List[VersionedWrite] = []
        touched_tids: Set[int] = set()
        touched_relations: Set[str] = set()
        for priority in targets:
            entries = self._log_by_priority[priority]
            committed.extend(entries)
            for entry in entries:
                touched_tids.add(entry.tid)
                touched_relations.add(entry.write.relation)
        removed_versions = 0
        for tid in touched_tids:
            record = self._tuples.get(tid)
            if record is None:
                continue
            below = [v for v in record.versions if v.priority <= watermark]
            if not below:
                continue
            newest_below = max(below, key=lambda version: version.seq)
            above = [v for v in record.versions if v.priority > watermark]
            if newest_below.content is None and not above:
                # Committed deletion with no uncommitted resurrection: the
                # identity is dead for every possible future reader.
                removed_versions += len(record.versions)
                del self._tuples[tid]
                self._by_relation[record.relation].discard(tid)
                self._prune_index_entries(tid, record.versions, ())
                continue
            if len(below) == 1:
                continue
            dropped = [v for v in below if v is not newest_below]
            keep_seqs = {newest_below.seq}
            keep_seqs.update(version.seq for version in above)
            # Filtering the original list keeps the chain seq-sorted, which
            # the newest-first visibility scan relies on.
            record.versions = [
                version for version in record.versions if version.seq in keep_seqs
            ]
            removed_versions += len(dropped)
            self._prune_index_entries(tid, dropped, record.versions)
        self._version_count -= removed_versions
        self._drop_priorities_log(targets)
        # Compaction preserves visibility for every remaining reader, but it
        # does move physical versions; bump the touched relations so stamped
        # consumers stay conservatively correct.
        self._bump_relations(touched_relations)
        self.compactions += 1
        if self._segments is not None:
            # The commit record is the durability point of this batch; the
            # segments themselves stay until a base snapshot covers them.
            committed.sort(key=lambda entry: entry.seq)
            self._segments.append(committed, watermark)
        return removed_versions

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def version_count(self) -> int:
        """Total number of versions stored (O(1): kept current by every mutation)."""
        return self._version_count

    def tuple_count(self) -> int:
        """Number of tuple identities stored (visible or not)."""
        return len(self._tuples)

    def log_size(self) -> int:
        """Number of entries currently in the write log."""
        return len(self._write_log)

    def priorities_in_log(self) -> Set[int]:
        """Every update priority that has at least one logged write."""
        return set(self._log_by_priority)

    def index_entry_count(self) -> int:
        """Total (tid, bucket) memberships across the content indexes (O(1))."""
        return self._index_entries


class VersionedView(DatabaseView):
    """The read-only snapshot a given update priority observes."""

    def __init__(self, store: VersionedDatabase, priority: float):
        self._store = store
        self._priority = priority

    @property
    def priority(self) -> float:
        """The priority whose visibility rule this view applies."""
        return self._priority

    @property
    def schema(self) -> DatabaseSchema:
        return self._store.schema

    def relations(self) -> List[str]:
        return self._store.schema.relation_names()

    def tuples(self, relation: str) -> Iterator[Tuple]:
        if relation not in self._store._by_relation:
            raise SchemaError("unknown relation {!r}".format(relation))
        seen: Set[Tuple] = set()
        for tid in tuple(self._store._by_relation[relation]):
            content = self._store._tuples[tid].visible_content(self._priority)
            if content is not None and content not in seen:
                seen.add(content)
                yield content

    def contains(self, row: Tuple) -> bool:
        # Exact containment through the content index; its candidates are
        # re-checked against their visible content (it over-approximates).
        return self._store._find_visible_tid(row, self._priority) is not None

    def cardinality_estimate(self, relation: str) -> Optional[int]:
        # Tuple-identity count: an O(1) upper bound on the visible cardinality
        # (identities with invisible/deleted versions are included).  Exactly
        # what the cardinality-aware join planner wants — cheap and monotone
        # with the relation's real size.
        bucket = self._store._by_relation.get(relation)
        if bucket is None:
            return None
        return len(bucket)

    def change_token(self) -> Optional[object]:
        # The store's global mutation stamp plus this view's visibility rule:
        # equal tokens mean no version was created, removed or collapsed in
        # between, so every query answer is unchanged.
        return (self._store._mutation_stamp, self._priority)

    # ------------------------------------------------------------------
    # Index-accelerated correction queries (the chase hot path).
    # The store's indexes over-approximate (old versions, rolled-back
    # tids), so every hit is re-checked against the visible content.
    # ------------------------------------------------------------------
    def _visible_contents(
        self, tids: Iterable[int], bound: Sequence[PyTuple[int, DataTerm]] = ()
    ) -> Iterator[Tuple]:
        """Distinct visible contents of *tids* equal to every pair of *bound*.

        *tids* is a container the caller owns (a copy of a live bucket), so
        callers of the generator may write mid-iteration.
        """
        seen: Set[Tuple] = set()
        tuples = self._store._tuples
        priority = self._priority
        for tid in tids:
            record = tuples.get(tid)
            if record is None:
                continue  # rolled back entirely since the bucket was copied
            content = record.visible_content(priority)
            if content is not None and content not in seen:
                seen.add(content)
                values = content.values
                for position, value in bound:
                    if values[position] != value:
                        break
                else:
                    yield content

    def tuples_matching(
        self, relation: str, bound: Sequence[PyTuple[int, DataTerm]]
    ) -> Iterator[Tuple]:
        store = self._store
        if not bound:
            return self.tuples(relation)
        if len(bound) == store.schema.arity_of(relation) and all(
            position == index for index, (position, _) in enumerate(bound)
        ):
            # Every position bound: the probe is one exact-content lookup.
            row = Tuple(relation, [value for _, value in bound])
            return iter((row,) if self.contains(row) else ())
        # The first pair's bucket, in its own order, minus every identity
        # missing from another pair's bucket — dropped before its version
        # chain is read.  A first bucket of one identity is read as it is:
        # its visible content is checked against every pair anyway.
        value_index = store._value_index
        (position, value), *rest = bound
        first = value_index.get((relation, position, value))
        if type(first) is not set or not rest:
            return self._visible_contents(bucket_copy(first), bound)
        survivors: Iterable[int] = first
        for position, value in rest:
            bucket = value_index.get((relation, position, value))
            if type(bucket) is not set:
                survivors = (bucket,) if bucket in survivors else ()
            else:
                survivors = [tid for tid in survivors if tid in bucket]
        return self._visible_contents(survivors, bound)

    def tuples_containing_null(self, null: LabeledNull) -> Iterator[Tuple]:
        tids = bucket_copy(self._store._null_index.get(null))
        for content in self._visible_contents(tids):
            if content.contains_null(null):
                yield content

    def more_specific_tuples(self, row: Tuple) -> List[Tuple]:
        # Any more-specific tuple agrees with *row* on its constant positions
        # (Definition 2.4: the witnessing map is the identity on constants),
        # so the candidates are one probe over those positions — a ground
        # pattern is a single exact-content lookup.
        if self._store.schema.arity_of(row.relation) != len(row.values):
            return []  # no stored tuple can match a wrong-arity pattern
        candidates = self.tuples_matching(
            row.relation,
            [
                (position, value)
                for position, value in enumerate(row.values)
                if not isinstance(value, LabeledNull)
            ],
        )
        # The probe has checked the constants against the visible content;
        # what is left of Definition 2.4 is that the witnessing map is a
        # function — positions repeating a null must hold equal values.  With
        # pairwise-distinct nulls there is nothing left to check.
        first_at: Dict[LabeledNull, int] = {}
        repeats = [
            (first_at[value], position)
            for position, value in enumerate(row.values)
            if isinstance(value, LabeledNull)
            and first_at.setdefault(value, position) != position
        ]
        if not repeats:
            return list(candidates)
        return [
            content
            for content in candidates
            if all(content[first] == content[again] for first, again in repeats)
        ]
