"""Durable storage: a codec-encoded redo log and the base snapshots under it.

The multiversion store is an in-memory structure; this module gives it a disk
representation built entirely on the wire codec (:mod:`repro.codec`), so the
bytes on disk speak the same versioned, self-describing dialect as the bytes
on the federation transport:

* :class:`WriteLogSegments` — the append-only redo log, cut into bounded
  segment files.  It holds committed work only: each commit batch appends
  one ``{"t":"commit"}`` record carrying the new watermark and the batch's
  writes (seq, priority and write, in seq order) and flushes the (single,
  long-lived) append handle.  An update that rolls back leaves nothing in
  the log.  Nothing is deleted at commit time: a segment stays until a
  *base* snapshot covers every watermark it records
  (:meth:`WriteLogSegments.drop_covered`).  :func:`replay_log` returns the
  logged writes of a priority range in seq order, reading each segment once,
  so ``base at B + replay_log(log, after=B, upto=W)`` is the committed store
  at any commit watermark ``W``.
* :func:`write_snapshot` / :func:`read_snapshot` — the committed store at a
  watermark, frozen into one codec-encoded file (schema, watermark, one row
  per tuple *identity*), replaced atomically.

A kill mid-append can cut the last record of the newest segment short; that
torn tail is dropped when the log is read and truncated away before the next
append.  No ``fsync`` is issued anywhere: a flush hands the bytes to the
operating system, which is what survives a killed process (not a power cut).

Consumed by :meth:`~repro.storage.versioned.VersionedDatabase.snapshot_to`,
the service-level checkpoint
(:meth:`~repro.service.repository.RepositoryService.checkpoint`) and
:func:`recover`, the one restore path.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple as PyTuple

from ..codec.wire import (
    CodecError,
    WIRE_VERSION,
    decode_schema,
    decode_tuple,
    decode_write,
    dumps,
    encode_schema,
    encode_tuple,
    encode_write,
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
            kind = record.get("t")
            if kind in ("write", "rollback"):
                raise CodecError(
                    "segment record type {!r} in {!r}: the log predates commit "
                    "records, so only the build that wrote it can restore "
                    "it".format(kind, path)
                )
            if kind != "commit":
                raise CodecError("unknown segment record type {!r}".format(kind))
            records.append(record)
        intact += len(line) + 1
    return records, intact


def _segment_path(directory: str, index: int) -> str:
    return os.path.join(
        directory, "{}{:08d}{}".format(_SEGMENT_PREFIX, index, _SEGMENT_SUFFIX)
    )


def _scan(directory: str) -> Iterator[PyTuple[int, List[Dict], int]]:
    """``(index, intact records, intact bytes)`` per segment file, oldest first."""
    indexes = sorted(
        int(name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
        for name in os.listdir(directory)
        if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
    )
    for index in indexes:
        yield (index,) + _read_segment(
            _segment_path(directory, index), newest=index == indexes[-1]
        )


class _Segment:
    """What the log remembers about one segment file."""

    __slots__ = ("top", "entries", "size")

    def __init__(self, top: int = 0, entries: int = 0, size: int = 0):
        #: Highest watermark its commit records carry.
        self.top = top
        #: Logged writes its commit records carry.
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
        for index, records, intact in _scan(directory):
            segment = self._segments[index] = _Segment(size=intact)
            for record in records:
                segment.top = max(segment.top, record["w"])
                segment.entries += len(record["e"])
            self._watermark = max(self._watermark, segment.top)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _writable(self) -> _Segment:
        """The newest segment with room, its append handle open."""
        newest = next(reversed(self._segments), None)
        if newest is not None and self._handle is None:
            self._handle = open(_segment_path(self.directory, newest), "ab")
            # A predecessor killed mid-append left a torn tail: cut it off
            # before anything lands behind it.
            self._handle.truncate(self._segments[newest].size)
        if newest is None or (
            self._segments[newest].entries >= self.max_entries_per_segment
        ):
            self.close()
            newest = 1 if newest is None else newest + 1
            self._segments[newest] = _Segment()
            self._handle = open(_segment_path(self.directory, newest), "ab")
        return self._segments[newest]

    def append(self, entries: Sequence[VersionedWrite], watermark: int) -> None:
        """Append one commit record and flush: the log's only write path.

        *entries* are the writes a commit batch made durable (seq-ascending,
        every priority at or below *watermark*); the caller guarantees (as
        for the in-memory
        :meth:`~repro.storage.versioned.VersionedDatabase.compact_below`)
        that every priority at or below *watermark* is committed or fully
        rolled back.  The flush makes the record the durability point: what
        a killed process leaves on disk ends at its last whole commit
        record.  A record goes whole into the newest segment; a segment
        takes no new record once it holds ``max_entries_per_segment``
        writes.
        """
        self._watermark = max(self._watermark, watermark)
        data = dumps({
            "v": WIRE_VERSION,
            "t": "commit",
            "w": self._watermark,
            # What replay reads, and no more: the seq orders the replay,
            # the priority bounds it and sets what each write sees.
            "e": [
                [entry.seq, entry.priority, encode_write(entry.write)]
                for entry in entries
            ],
        }) + b"\n"
        segment = self._writable()
        self._handle.write(data)
        self._handle.flush()
        segment.entries += len(entries)
        segment.size += len(data)
        segment.top = self._watermark

    def close(self) -> None:
        """Release the append handle (a later append reopens it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def drop_covered(self, watermark: int) -> int:
        """Delete the segments a base snapshot at *watermark* makes redundant.

        A segment whose every commit record is at or below *watermark*
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
            os.remove(_segment_path(self.directory, index))
            del self._segments[index]
        return len(covered)


def replay_log(
    directory: str, after: int = 0, upto: Optional[int] = None
) -> List[VersionedWrite]:
    """The writes the log in *directory* holds for priorities in ``(after, upto]``.

    One read of each segment, in seq order.  *after* is the watermark of the
    base the replay is applied onto; *upto* bounds it to a commit watermark,
    and ``None`` reads up to the last commit record.  Every logged write is
    committed, so nothing is filtered but the range.  A replayed entry
    carries no tuple identity (its ``tid`` is 0, which no store hands out):
    replay applies writes by content.
    """
    replayed: List[VersionedWrite] = []
    for _, records, _ in _scan(directory):
        for record in records:
            for seq, priority, write in record["e"]:
                if priority > after and (upto is None or priority <= upto):
                    replayed.append(
                        VersionedWrite(seq, priority, 0, decode_write(write))
                    )
    replayed.sort(key=lambda entry: entry.seq)
    return replayed


# ----------------------------------------------------------------------
# Base snapshots
# ----------------------------------------------------------------------
def write_snapshot(
    path: str,
    schema: DatabaseSchema,
    relations: Mapping[str, Iterable[Tuple]],
    watermark: int,
    encoded: Dict[Tuple, bytes],
) -> int:
    """Freeze the committed store at *watermark* into one file, atomically.

    *relations* holds one row per tuple identity: two identities with equal
    content are two rows, so a replayed ``DELETE`` (which removes one
    identity) leaves the twin the live store still shows.  *encoded* maps
    rows to their encoded bytes; it is left holding exactly this snapshot's
    rows, so a caller that writes bases repeatedly through one dict encodes
    a row once for as long as it stays in the store.  The file holds what
    :func:`dumps` makes of the snapshot document, rows in the order of their
    bytes, assembled from those pieces.  Returns the number of bytes
    written.
    """
    rows_of: List[bytes] = []
    kept: Dict[Tuple, bytes] = {}
    for relation in sorted(relations):
        texts = []
        for row in relations[relation]:
            text = encoded.get(row)
            if text is None:
                text = dumps(encode_tuple(row))
            kept[row] = text
            texts.append(text)
        texts.sort()
        rows_of.append(dumps(relation) + b":[" + b",".join(texts) + b"]")
    encoded.clear()
    encoded.update(kept)
    data = b"".join((
        b'{"relations":{', b",".join(rows_of),
        b'},"schema":', dumps(encode_schema(schema)),
        b',"t":"snapshot","v":', dumps(WIRE_VERSION),
        b',"watermark":', dumps(watermark), b"}\n",
    ))
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

    The log's writes between the base's watermark and *watermark* are
    replayed onto the base by content
    (:meth:`~repro.storage.versioned.VersionedDatabase.apply_write`), in seq
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
        entries = replay_log(log_directory, base_watermark, watermark)
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
