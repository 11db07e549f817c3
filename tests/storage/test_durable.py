"""Durable mode: codec-encoded segments + snapshots reproduce the store.

The contract under test: at any moment, ``snapshot_to(path, watermark)`` plus
replaying the surviving write-log segments onto the restored snapshot yields
a store whose every view matches the original — across rollbacks (tombstoned
priorities filtered), commit-time compaction (covered segment files deleted,
watermark recorded) and process "restarts" (a fresh
:class:`~repro.storage.durable.WriteLogSegments` over the same directory).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple
from repro.core.writes import delete, insert
from repro.storage.durable import WriteLogSegments, read_snapshot, write_snapshot
from repro.storage.interface import dump_sorted
from repro.storage.memory import FrozenDatabase
from repro.storage.versioned import LATEST, VersionedDatabase

SCHEMA = DatabaseSchema.from_dict({"R": ["a", "b"], "S": ["x"]})


def _initial():
    return FrozenDatabase(
        SCHEMA,
        {
            "R": frozenset({Tuple("R", ["r1", "r2"]), Tuple("R", ["r3", LabeledNull("n1")])}),
            "S": frozenset({Tuple("S", ["s1"])}),
        },
    )


def _store(tmp_path, name="segments"):
    store = VersionedDatabase(SCHEMA)
    store.load_initial(_initial())
    segments = WriteLogSegments(str(tmp_path / name), max_entries_per_segment=4)
    store.attach_segments(segments)
    return store, segments


def _replay_onto(snapshot_path, segments_dir):
    """A 'restarted process': restore the snapshot, replay fresh segments."""
    store, watermark = VersionedDatabase.restore_from(snapshot_path)
    reopened = WriteLogSegments(segments_dir)
    for entry in reopened.replay():
        store.apply_write(entry.write, entry.priority)
    return store, watermark


def _same_contents(a, b, priority=LATEST):
    return dump_sorted(a.view_for(priority)) == dump_sorted(b.view_for(priority))


def test_snapshot_round_trip():
    import tempfile

    path = os.path.join(tempfile.mkdtemp(), "snap.json")
    store = VersionedDatabase(SCHEMA)
    store.load_initial(_initial())
    store.apply_write(insert(Tuple("S", ["s2"])), priority=1)
    store.snapshot_to(path, 1)
    schema, frozen, watermark = read_snapshot(path)
    assert watermark == 1
    assert schema.relation_names() == SCHEMA.relation_names()
    assert set(frozen.tuples("S")) == {Tuple("S", ["s1"]), Tuple("S", ["s2"])}
    restored, restored_watermark = VersionedDatabase.restore_from(path)
    assert restored_watermark == 1
    assert dump_sorted(restored.latest_view()) == dump_sorted(store.view_for(1))


def test_segments_replay_applied_writes(tmp_path):
    store, _ = _store(tmp_path)
    store.apply_writes([insert(Tuple("S", ["w1"])), insert(Tuple("S", ["w2"]))], 1)
    store.apply_write(delete(Tuple("S", ["s1"])), 2)
    replayed = WriteLogSegments(str(tmp_path / "segments")).replay()
    assert [entry.write.describe() for entry in replayed] == [
        logged.write.describe() for logged in store.write_log()
    ]
    assert [entry.seq for entry in replayed] == [e.seq for e in store.write_log()]


def test_rollback_tombstones_filter_replay(tmp_path):
    store, _ = _store(tmp_path)
    store.apply_writes([insert(Tuple("S", ["keep"]))], 1)
    store.apply_writes([insert(Tuple("S", ["drop"])), insert(Tuple("R", ["q", "q"]))], 2)
    store.rollback(2)
    replayed = WriteLogSegments(str(tmp_path / "segments")).replay()
    assert {entry.priority for entry in replayed} == {1}


def test_compaction_drops_covered_segments_and_records_watermark(tmp_path):
    store, segments = _store(tmp_path)
    for priority in range(1, 9):
        store.apply_writes([insert(Tuple("S", ["v{}".format(priority)]))], priority)
    before = len(segments.segment_indexes())
    assert before >= 2  # small segments roll over
    store.compact_below(6)
    reopened = WriteLogSegments(str(tmp_path / "segments"))
    assert reopened.watermark == 6
    # Only entries above the watermark replay; covered files are gone.
    assert {entry.priority for entry in reopened.replay()} == {7, 8}
    assert len(reopened.segment_indexes()) < before


@pytest.mark.parametrize("seed", range(5))
def test_randomized_snapshot_plus_replay_reproduces_the_store(tmp_path, seed):
    """The durability contract, differentially, under a random history."""
    rng = random.Random(seed)
    store, _ = _store(tmp_path, name="segments{}".format(seed))
    committed = 0
    live_rows = [Tuple("S", ["s1"])]
    for priority in range(1, 25):
        action = rng.random()
        writes = []
        row = Tuple("S", ["t{}_{}".format(seed, priority)])
        if action < 0.6 or not live_rows:
            writes.append(insert(row))
            live_rows.append(row)
        else:
            victim = rng.choice(live_rows)
            writes.append(delete(victim))
        if rng.random() < 0.3:
            writes.append(insert(Tuple("R", ["r{}".format(priority), row.values[0]])))
        store.apply_writes(writes, priority)
        if rng.random() < 0.2:
            store.rollback(priority)
            if insert(row) in [w for w in writes]:
                if row in live_rows:
                    live_rows.remove(row)
        elif rng.random() < 0.3:
            committed = priority
            store.compact_below(committed)
    snapshot_path = str(tmp_path / "snap{}.json".format(seed))
    # Snapshot at the store's compaction watermark (the service always does).
    store.snapshot_to(snapshot_path, committed)
    rebuilt, _ = _replay_onto(snapshot_path, str(tmp_path / "segments{}".format(seed)))
    assert _same_contents(rebuilt, store)


def test_unknown_segment_version_is_rejected(tmp_path):
    directory = tmp_path / "bad"
    directory.mkdir()
    with open(directory / "segment-00000001.log", "w") as handle:
        handle.write('{"v": 99, "t": "write", "e": {}}\n')
    from repro.codec import CodecError

    with pytest.raises(CodecError, match="unsupported durable-format version"):
        WriteLogSegments(str(directory))


# What the previous wire dialect wrote: tagged terms, ``{"r", "vs"}`` tuples.
_V1_ROW = {"r": "R", "vs": [{"t": "const", "v": "a"}, {"t": "null", "n": "x1"}]}


def test_version_1_segments_and_snapshots_are_rejected_not_misread(tmp_path):
    """Compact terms and tuples bumped the dialect; old files fail the gate."""
    import json

    from repro.codec import CodecError

    directory = tmp_path / "v1"
    directory.mkdir()
    record = {"v": 1, "t": "write", "e": {
        "seq": 1, "pri": 1, "tid": 1, "w": {"k": "insert", "row": _V1_ROW},
    }}
    (directory / "segment-00000001.log").write_text(json.dumps(record) + "\n")
    with pytest.raises(CodecError, match="version 1 .this build speaks 2"):
        WriteLogSegments(str(directory))
    snapshot = tmp_path / "v1-snapshot.json"
    snapshot.write_text(json.dumps({
        "v": 1, "t": "snapshot", "watermark": 0,
        "schema": [["R", ["a", "b"]]], "relations": {"R": [_V1_ROW]},
    }))
    with pytest.raises(CodecError, match="version 1 .this build speaks 2"):
        read_snapshot(str(snapshot))


def test_snapshot_file_rejects_wrong_kind(tmp_path):
    from repro.codec import WIRE_VERSION, CodecError
    from repro.codec.wire import dumps

    path = tmp_path / "notsnap.json"
    path.write_bytes(dumps({"v": WIRE_VERSION, "t": "something-else"}) + b"\n")
    with pytest.raises(CodecError, match="not a snapshot file"):
        read_snapshot(str(path))
