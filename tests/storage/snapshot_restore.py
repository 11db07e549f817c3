"""Rebuild a multiversion store from one ``snapshot_to`` file.

The system restores through :func:`repro.storage.durable.recover`; the store
tests restore a bare snapshot, with no log, through the same bulk path.
"""

from repro.storage.durable import read_snapshot
from repro.storage.versioned import VersionedDatabase


def restore_from(path):
    """``(store, watermark)``: the snapshot's rows loaded as priority-0
    contents, one tuple identity per row."""
    schema, relations, watermark = read_snapshot(path)
    store = VersionedDatabase(schema)
    for rows in relations.values():
        store.load_rows(rows)
    return store, watermark
