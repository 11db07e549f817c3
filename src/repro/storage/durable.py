"""Durable storage: codec-encoded write-log segments and committed snapshots.

The multiversion store is an in-memory structure; this module gives it a disk
representation built entirely on the wire codec (:mod:`repro.codec`), so the
bytes on disk speak the same versioned, self-describing dialect as the bytes
on the federation transport:

* :class:`WriteLogSegments` — an append-only redo log of applied writes, cut
  into bounded segment files.  Every applied :class:`~repro.storage.versioned.VersionedWrite`
  is appended as one JSON line; rollbacks append a tombstone marker for the
  rolled-back priority; commit-time compaction records the watermark and
  deletes whole segment files once every priority they mention is at or below
  it.  :meth:`WriteLogSegments.replay` reconstructs exactly the writes still
  *live* above the recorded watermark (rolled-back priorities filtered out),
  which together with a committed snapshot at that watermark reproduces the
  store.
* :func:`write_snapshot` / :func:`read_snapshot` — the committed store below
  a watermark, frozen into one codec-encoded file (schema, watermark, rows).

Both are consumed by :meth:`~repro.storage.versioned.VersionedDatabase.snapshot_to`,
:meth:`~repro.storage.versioned.VersionedDatabase.restore_from` and the
service-level checkpoint (:meth:`~repro.service.repository.RepositoryService.checkpoint`).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Set, Tuple as PyTuple

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
)
from ..core.schema import DatabaseSchema
from .interface import DatabaseView
from .memory import FrozenDatabase
from .versioned import VersionedWrite

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".log"
_META_NAME = "segments-meta.json"


def _check_version(record: Dict) -> None:
    version = record.get("v")
    if version != WIRE_VERSION:
        raise CodecError(
            "unsupported durable-format version {!r} (this build speaks {})".format(
                version, WIRE_VERSION
            )
        )


class WriteLogSegments:
    """An append-only, compaction-aware redo log of applied writes."""

    def __init__(self, directory: str, max_entries_per_segment: int = 512):
        if max_entries_per_segment < 1:
            raise ValueError("a segment must hold at least one entry")
        self.directory = directory
        self.max_entries_per_segment = max_entries_per_segment
        os.makedirs(directory, exist_ok=True)
        self._watermark = 0
        #: Per segment index: every priority its entries/markers mention.
        self._segment_priorities: Dict[int, Set[int]] = {}
        self._segment_entries: Dict[int, int] = {}
        self._next_segment = 1
        #: The segment currently receiving appends (``None`` until needed).
        self._current: Optional[int] = None
        self._load_existing()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _segment_path(self, index: int) -> str:
        return os.path.join(
            self.directory, "{}{:08d}{}".format(_SEGMENT_PREFIX, index, _SEGMENT_SUFFIX)
        )

    def _meta_path(self) -> str:
        return os.path.join(self.directory, _META_NAME)

    def segment_indexes(self) -> List[int]:
        """The live segment indexes, oldest first."""
        return sorted(self._segment_priorities)

    @property
    def watermark(self) -> int:
        """The highest compaction watermark recorded so far."""
        return self._watermark

    def _load_existing(self) -> None:
        meta_path = self._meta_path()
        if os.path.exists(meta_path):
            with open(meta_path) as handle:
                meta = json.load(handle)
            _check_version(meta)
            self._watermark = meta.get("watermark", 0)
        for name in os.listdir(self.directory):
            if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
                continue
            index = int(name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
            priorities: Set[int] = set()
            entries = 0
            with open(os.path.join(self.directory, name), "rb") as handle:
                for line in handle:
                    if not line.strip():
                        continue
                    record = json.loads(line.decode("utf-8"))
                    _check_version(record)
                    entries += 1
                    if record["t"] == "write":
                        priorities.add(record["e"]["pri"])
                    elif record["t"] == "rollback":
                        priorities.add(record["p"])
            self._segment_priorities[index] = priorities
            self._segment_entries[index] = entries
            self._next_segment = max(self._next_segment, index + 1)
        if self._segment_priorities:
            newest = max(self._segment_priorities)
            if self._segment_entries[newest] < self.max_entries_per_segment:
                self._current = newest

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _current_segment(self) -> int:
        current = self._current
        if (
            current is not None
            and self._segment_entries[current] < self.max_entries_per_segment
        ):
            return current
        index = self._next_segment
        self._next_segment += 1
        self._segment_priorities[index] = set()
        self._segment_entries[index] = 0
        self._current = index
        # Touch the file so an empty current segment survives a scan.
        open(self._segment_path(index), "ab").close()
        return index

    def _append_records(self, records) -> None:
        """Append ``(record, priority)`` pairs, one file open per segment.

        This is the store's hottest durable path (every chase step's write
        batch lands here), so the segment handle is opened once per chunk
        rather than once per record, rolling to a fresh segment only when
        the current one fills.
        """
        position = 0
        total = len(records)
        while position < total:
            index = self._current_segment()
            room = self.max_entries_per_segment - self._segment_entries[index]
            chunk = records[position:position + room]
            priorities = self._segment_priorities[index]
            with open(self._segment_path(index), "ab") as handle:
                for record, priority in chunk:
                    handle.write(dumps(record) + b"\n")
                    priorities.add(priority)
            self._segment_entries[index] += len(chunk)
            position += len(chunk)

    def append(self, entries: Sequence[VersionedWrite]) -> None:
        """Append applied writes (seq-ascending, as the store logs them)."""
        self._append_records([
            (
                {"v": WIRE_VERSION, "t": "write", "e": encode_versioned_write(entry)},
                entry.priority,
            )
            for entry in entries
        ])

    def record_rollback(self, priority: int) -> None:
        """Append a tombstone: every logged write of *priority* is void."""
        self._append_records(
            [({"v": WIRE_VERSION, "t": "rollback", "p": priority}, priority)]
        )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact_below(self, watermark: int) -> int:
        """Record *watermark* and drop fully-covered segment files.

        The caller guarantees (exactly as for the in-memory
        :meth:`~repro.storage.versioned.VersionedDatabase.compact_below`) that
        every priority at or below *watermark* is committed or fully rolled
        back; such entries are represented by any snapshot taken at or above
        the watermark, so a segment whose every mentioned priority is covered
        carries no information a replay still needs.  Returns the number of
        segment files deleted.
        """
        self._watermark = max(self._watermark, watermark)
        with open(self._meta_path(), "w") as handle:
            json.dump({"v": WIRE_VERSION, "watermark": self._watermark}, handle)
            handle.write("\n")
        dropped = 0
        for index in self.segment_indexes():
            priorities = self._segment_priorities[index]
            if priorities and max(priorities) > self._watermark:
                continue
            # Keep the newest (possibly still-appending) segment alive even
            # when empty, so appends keep a stable target.
            if not priorities and index == max(self._segment_priorities):
                continue
            os.remove(self._segment_path(index))
            del self._segment_priorities[index]
            del self._segment_entries[index]
            if self._current == index:
                self._current = None
            dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> List[VersionedWrite]:
        """The live writes above the recorded watermark, in log order.

        Rolled-back priorities are filtered (their tombstone may live in a
        later segment than their writes), and so are priorities at or below
        the watermark — those are, by the compaction contract, represented by
        the snapshot a restore pairs this replay with.
        """
        raw: List[PyTuple[int, Dict]] = []
        rolled_back: Set[int] = set()
        for index in self.segment_indexes():
            with open(self._segment_path(index), "rb") as handle:
                for line in handle:
                    if not line.strip():
                        continue
                    record = json.loads(line.decode("utf-8"))
                    _check_version(record)
                    if record["t"] == "rollback":
                        rolled_back.add(record["p"])
                    elif record["t"] == "write":
                        raw.append((index, record))
                    else:
                        raise CodecError(
                            "unknown segment record type {!r}".format(record["t"])
                        )
        live: List[VersionedWrite] = []
        for _, record in raw:
            entry = decode_versioned_write(record["e"])
            if entry.priority in rolled_back:
                continue
            if entry.priority <= self._watermark:
                continue
            live.append(entry)
        live.sort(key=lambda entry: entry.seq)
        return live


# ----------------------------------------------------------------------
# Committed snapshots
# ----------------------------------------------------------------------
def encode_committed_state(view: DatabaseView, watermark: int) -> Dict:
    """The canonical committed-state body: schema + rows + watermark.

    The single definition shared by snapshot files and service checkpoints —
    one on-disk dialect, whatever document carries it.
    """
    return {
        "watermark": watermark,
        "schema": encode_schema(view.schema),
        # Rows in the flat row codec's order: deterministic (up to rows that
        # differ only in a constant's *type*, which that codec cannot tell
        # apart), and computed without serialising every row to compare it.
        "relations": {
            relation: [
                encode_tuple(row)
                for row in sorted(view.tuples(relation), key=encode_row)
            ]
            for relation in view.relations()
        },
    }


def decode_committed_state(body: Dict) -> PyTuple[DatabaseSchema, FrozenDatabase, int]:
    """Decode a committed-state body; the inverse of :func:`encode_committed_state`."""
    schema = decode_schema(body["schema"])
    contents = {
        relation: frozenset(decode_tuple(row) for row in rows)
        for relation, rows in body["relations"].items()
    }
    for relation in schema.relation_names():
        contents.setdefault(relation, frozenset())
    return schema, FrozenDatabase(schema, contents), body["watermark"]


def write_snapshot(path: str, view: DatabaseView, watermark: int) -> None:
    """Freeze *view* (the committed store at *watermark*) into one file."""
    body = dict(encode_committed_state(view, watermark))
    body["v"] = WIRE_VERSION
    body["t"] = "snapshot"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(dumps(body) + b"\n")


def read_snapshot(path: str) -> PyTuple[DatabaseSchema, FrozenDatabase, int]:
    """Load a snapshot file; returns ``(schema, frozen database, watermark)``."""
    with open(path, "rb") as handle:
        body = json.loads(handle.read().decode("utf-8"))
    _check_version(body)
    if body.get("t") != "snapshot":
        raise CodecError("not a snapshot file: {!r}".format(path))
    return decode_committed_state(body)
