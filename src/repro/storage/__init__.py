"""Storage package: the in-memory and multiversion stores and the redo log."""

from .index import PositionIndex
from .interface import DatabaseView, MutableDatabase, StorageError, dump_sorted
from .memory import FrozenDatabase, MemoryDatabase
from .overlay import OverlayView, view_without_write
from .versioned import (
    LATEST,
    Version,
    VersionedDatabase,
    VersionedTuple,
    VersionedView,
    VersionedWrite,
)
from .durable import WriteLogSegments, read_snapshot, write_snapshot

__all__ = [
    "DatabaseView",
    "FrozenDatabase",
    "LATEST",
    "MemoryDatabase",
    "MutableDatabase",
    "OverlayView",
    "PositionIndex",
    "StorageError",
    "Version",
    "VersionedDatabase",
    "VersionedTuple",
    "VersionedView",
    "VersionedWrite",
    "WriteLogSegments",
    "dump_sorted",
    "read_snapshot",
    "view_without_write",
    "write_snapshot",
]
