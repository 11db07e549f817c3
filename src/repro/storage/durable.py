"""Durable storage: a codec-encoded redo log and the base snapshots under it.

The multiversion store is an in-memory structure; this module gives it a disk
representation built entirely on the wire codec (:mod:`repro.codec`), so the
bytes on disk speak the same versioned, self-describing dialect as the bytes
on the federation transport:

* :class:`WriteLogSegments` — the append-only redo log, cut into bounded
  segment files.  Every applied :class:`~repro.storage.versioned.VersionedWrite`
  is appended as one JSON line, a rollback appends a tombstone for the
  rolled-back priority, and a commit appends a ``{"t":"commit"}`` record
  carrying the new watermark and flushes the (single, long-lived) append
  handle.  Nothing is deleted at commit time: a segment stays until a *base*
  snapshot covers every priority it mentions (:meth:`WriteLogSegments.drop_covered`).
  :meth:`WriteLogSegments.replay` returns the non-rolled-back writes of a
  priority range in log order, so ``base at B + replay(after=B, upto=W)`` is
  the committed store at any recorded watermark ``W``.
* :func:`write_snapshot` / :func:`read_snapshot` — the committed store at a
  watermark, frozen into one codec-encoded file (schema, watermark, one row
  per tuple *identity*), replaced atomically.

A kill mid-append can cut the last record of the newest segment short; that
torn tail is dropped when the log is read and truncated away before the next
append.  No ``fsync`` is issued anywhere: a flush hands the bytes to the
operating system, which is what survives a killed process (not a power cut).

Consumed by :meth:`~repro.storage.versioned.VersionedDatabase.snapshot_to`,
:meth:`~repro.storage.versioned.VersionedDatabase.restore_from` and the
service-level checkpoint (:meth:`~repro.service.repository.RepositoryService.checkpoint`).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple as PyTuple

from ..codec.rows import encode_row
from ..codec.wire import (
    CodecError,
    WIRE_VERSION,
    decode_schema,
    decode_tuple,
    decode_versioned_write,
    dumps,
    encode_schema,
    encode_tuple,
    encode_versioned_write,
    loads,
)
from ..core.schema import DatabaseSchema
from ..core.tuples import Tuple
from .memory import FrozenDatabase
from .versioned import VersionedDatabase, VersionedWrite

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".log"


def _check_version(record: Dict) -> None:
    version = record.get("v")
    if version != WIRE_VERSION:
        raise CodecError(
            "unsupported durable-format version {!r} (this build speaks {})".format(
                version, WIRE_VERSION
            )
        )


def replace_file(path: str, data: bytes) -> None:
    """Make *path* hold *data* atomically: sibling temp file, then ``os.replace``.

    A failure at any point leaves whatever *path* held before untouched.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    temporary = path + ".tmp"
    try:
        with open(temporary, "wb") as handle:
            handle.write(data)
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def _read_segment(path: str, newest: bool) -> PyTuple[List[Dict], int]:
    """Decode one segment file; returns ``(records, intact byte length)``.

    Only the final record of the *newest* segment may be torn (unterminated
    or undecodable — a kill mid-append); it is left out of both results.
    Damage anywhere else is not something a kill produces and raises.
    """
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    unterminated = lines.pop()
    if unterminated and not newest:
        raise CodecError("unterminated record in sealed segment {!r}".format(path))
    records: List[Dict] = []
    intact = 0
    for number, line in enumerate(lines):
        if line.strip():
            try:
                record = loads(line)
                if not isinstance(record, dict):
                    raise CodecError("segment record is not an object")
            except CodecError:
                if newest and not unterminated and number == len(lines) - 1:
                    break
                raise
            _check_version(record)
            if record.get("t") not in ("write", "rollback", "commit"):
                raise CodecError(
                    "unknown segment record type {!r}".format(record.get("t"))
                )
            records.append(record)
        intact += len(line) + 1
    return records, intact


class _Segment:
    """What the log remembers about one segment file."""

    __slots__ = ("top", "entries", "size")

    def __init__(self, top: int = 0, entries: int = 0, size: int = 0):
        #: Highest priority any of its records mentions.
        self.top = top
        self.entries = entries
        #: Bytes of intact records (a torn tail is not counted).
        self.size = size


class WriteLogSegments:
    """The append-only redo log of one store: the durable source of truth."""

    def __init__(self, directory: str, max_entries_per_segment: int = 512):
        if max_entries_per_segment < 1:
            raise ValueError("a segment must hold at least one entry")
        self.directory = directory
        self.max_entries_per_segment = max_entries_per_segment
        os.makedirs(directory, exist_ok=True)
        self._watermark = 0
        #: Retained segments by index, oldest first.
        self._segments: Dict[int, _Segment] = {}
        #: The one open append handle (on the newest segment, once needed).
        self._handle = None
        for index, records, intact in self._scan():
            segment = self._segments[index] = _Segment(0, len(records), intact)
            for record in records:
                if record["t"] == "write":
                    segment.top = max(segment.top, record["e"]["pri"])
                elif record["t"] == "rollback":
                    segment.top = max(segment.top, record["p"])
                else:
                    segment.top = max(segment.top, record["w"])
                    self._watermark = max(self._watermark, record["w"])

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _segment_path(self, index: int) -> str:
        return os.path.join(
            self.directory, "{}{:08d}{}".format(_SEGMENT_PREFIX, index, _SEGMENT_SUFFIX)
        )

    def segment_indexes(self) -> List[int]:
        """The retained segment indexes, oldest first."""
        return list(self._segments)

    @property
    def watermark(self) -> int:
        """The highest commit watermark recorded in the retained log."""
        return self._watermark

    def retained_bytes(self) -> int:
        """Total size of the retained segments (what a replay may have to read)."""
        return sum(segment.size for segment in self._segments.values())

    def _scan(self) -> Iterator[PyTuple[int, List[Dict], int]]:
        """``(index, intact records, intact bytes)`` per segment file, oldest first."""
        indexes = sorted(
            int(name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
            for name in os.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
        )
        for index in indexes:
            yield (index,) + _read_segment(
                self._segment_path(index), newest=index == indexes[-1]
            )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _writable(self) -> _Segment:
        """The newest segment with room, its append handle open."""
        newest = next(reversed(self._segments), None)
        if newest is not None and self._handle is None:
            self._handle = open(self._segment_path(newest), "ab")
            # A predecessor killed mid-append left a torn tail: cut it off
            # before anything lands behind it.
            self._handle.truncate(self._segments[newest].size)
        if newest is None or (
            self._segments[newest].entries >= self.max_entries_per_segment
        ):
            self.close()
            newest = 1 if newest is None else newest + 1
            self._segments[newest] = _Segment()
            self._handle = open(self._segment_path(newest), "ab")
        return self._segments[newest]

    def _append_records(self, records: List[Dict], top: int) -> None:
        """Append *records* (mentioning priorities up to *top*), rolling segments.

        This is the store's hottest durable path (every chase step's write
        batch lands here): the records go into the open handle's buffer and
        reach the operating system at the next commit record.
        """
        lines = [dumps(record) + b"\n" for record in records]
        position = 0
        while position < len(lines):
            segment = self._writable()
            room = self.max_entries_per_segment - segment.entries
            data = b"".join(lines[position:position + room])
            self._handle.write(data)
            segment.entries += min(room, len(lines) - position)
            segment.size += len(data)
            segment.top = max(segment.top, top)
            position += room

    def append(self, entries: Sequence[VersionedWrite]) -> None:
        """Append applied writes (seq-ascending, as the store logs them)."""
        if entries:
            self._append_records(
                [
                    {"v": WIRE_VERSION, "t": "write", "e": encode_versioned_write(entry)}
                    for entry in entries
                ],
                max(entry.priority for entry in entries),
            )

    def record_rollback(self, priority: int) -> None:
        """Append a tombstone: every logged write of *priority* is void."""
        self._append_records(
            [{"v": WIRE_VERSION, "t": "rollback", "p": priority}], priority
        )

    def record_commit(self, watermark: int) -> None:
        """Append the commit record for *watermark* and flush the log.

        The caller guarantees (as for the in-memory
        :meth:`~repro.storage.versioned.VersionedDatabase.compact_below`) that
        every priority at or below *watermark* is committed or fully rolled
        back.  The flush makes this the durability point: what a killed
        process leaves on disk ends at its last commit record, give or take a
        tail of uncommitted writes that a replay bounded by the watermark
        never reads.
        """
        self._watermark = max(self._watermark, watermark)
        self._append_records(
            [{"v": WIRE_VERSION, "t": "commit", "w": self._watermark}], self._watermark
        )
        self._handle.flush()

    def flush(self) -> None:
        """Hand every buffered record to the operating system."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Flush and release the append handle (a later append reopens it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def drop_covered(self, watermark: int) -> int:
        """Delete the segments a base snapshot at *watermark* makes redundant.

        A segment whose every mentioned priority is at or below *watermark*
        carries nothing a replay onto that base still needs.  The caller
        guarantees the base is already durably in place.  Returns the number
        of segment files deleted.
        """
        covered = [
            index for index, segment in self._segments.items() if segment.top <= watermark
        ]
        if covered and covered[-1] == next(reversed(self._segments)):
            self.close()
        for index in covered:
            os.remove(self._segment_path(index))
            del self._segments[index]
        return len(covered)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, after: int = 0, upto: Optional[int] = None) -> List[VersionedWrite]:
        """The logged writes of priorities in ``(after, upto]``, in log order.

        Rolled-back priorities are filtered (their tombstone may live in a
        later segment than their writes).  *after* is the watermark of the
        base the replay is applied onto; *upto* bounds it to a recorded
        commit watermark (everything at or below one is committed or rolled
        back), and ``None`` also returns the uncommitted tail.
        """
        self.flush()
        raw: List[Dict] = []
        rolled_back: Set[int] = set()
        for _, records, _ in self._scan():
            for record in records:
                if record["t"] == "rollback":
                    rolled_back.add(record["p"])
                elif record["t"] == "write":
                    priority = record["e"]["pri"]
                    if priority > after and (upto is None or priority <= upto):
                        raw.append(record["e"])
        live = [
            decode_versioned_write(body) for body in raw if body["pri"] not in rolled_back
        ]
        live.sort(key=lambda entry: entry.seq)
        return live


# ----------------------------------------------------------------------
# Base snapshots
# ----------------------------------------------------------------------
def write_snapshot(
    path: str,
    schema: DatabaseSchema,
    relations: Mapping[str, Iterable[Tuple]],
    watermark: int,
) -> int:
    """Freeze the committed store at *watermark* into one file, atomically.

    *relations* holds one row per tuple identity: two identities with equal
    content are two rows, so a replayed ``DELETE`` (which removes one
    identity) leaves the twin the live store still shows.  Returns the
    number of bytes written.
    """
    data = dumps({
        "v": WIRE_VERSION,
        "t": "snapshot",
        "watermark": watermark,
        "schema": encode_schema(schema),
        # Rows in the flat row codec's order: deterministic (up to rows that
        # differ only in a constant's *type*, which that codec cannot tell
        # apart), and computed without serialising every row to compare it.
        "relations": {
            relation: [encode_tuple(row) for row in sorted(rows, key=encode_row)]
            for relation, rows in relations.items()
        },
    }) + b"\n"
    replace_file(path, data)
    return len(data)


def read_snapshot(path: str) -> PyTuple[DatabaseSchema, Dict[str, List[Tuple]], int]:
    """Load a snapshot file; returns ``(schema, rows per relation, watermark)``."""
    with open(path, "rb") as handle:
        body = loads(handle.read())
    _check_version(body)
    if body.get("t") != "snapshot":
        raise CodecError("not a snapshot file: {!r}".format(path))
    schema = decode_schema(body["schema"])
    relations = {relation: [] for relation in schema.relation_names()}
    for relation, rows in body["relations"].items():
        relations[relation] = [decode_tuple(row) for row in rows]
    return schema, relations, body["watermark"]


def recover(base_path: str, log_directory: Optional[str], watermark: int) -> FrozenDatabase:
    """The committed store at *watermark*: a base plus the log's entries above it.

    The log's committed, non-rolled-back writes between the base's watermark
    and *watermark* are replayed onto the base by content
    (:meth:`~repro.storage.versioned.VersionedDatabase.apply_write`), in log
    order.  A by-content write can only ever land on an identity whose
    content some replayed write names, so only those base rows are loaded
    into the replay store; the rest pass straight through to the result.
    """
    schema, relations, base_watermark = read_snapshot(base_path)
    entries: List[VersionedWrite] = []
    if watermark > base_watermark:
        if log_directory is None or not os.path.isdir(log_directory):
            raise CodecError(
                "the state at watermark {} needs the redo log above base {!r}, "
                "and there is none at {!r}".format(watermark, base_path, log_directory)
            )
        entries = WriteLogSegments(log_directory).replay(base_watermark, watermark)
    named = {row for entry in entries for row in entry.write.rows_touched()}
    store = VersionedDatabase(schema)
    contents: Dict[str, Set[Tuple]] = {}
    for relation, rows in relations.items():
        contents[relation] = set(rows) - named
        store.load_rows(row for row in rows if row in named)
    for entry in entries:
        store.apply_write(entry.write, entry.priority)
    replayed = store.latest_view()
    return FrozenDatabase(schema, {
        relation: frozenset(rows.union(replayed.tuples(relation)))
        for relation, rows in contents.items()
    })
