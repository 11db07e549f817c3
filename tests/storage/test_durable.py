"""Durable mode: codec-encoded segments + snapshots reproduce the store.

The contract under test: at any moment, a base written by
``snapshot_to(path, watermark)`` plus replaying the redo log's entries above
that watermark onto the restored base yields the original's committed view —
across rollbacks (a rolled-back update writes nothing to the log), commits
(one commit record per batch carries the watermark and the batch's writes;
segments stay until a base covers them), writes that interleave out of
priority order (replay goes by seq), process "restarts" (a fresh
:class:`~repro.storage.durable.WriteLogSegments` over the same directory),
kills mid-append (a torn tail is dropped) and two tuple identities holding
equal content (the base keeps both).
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from snapshot_restore import restore_from
from repro.codec import WIRE_VERSION, CodecError
from repro.codec.wire import dumps, encode_schema, encode_tuple
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple
from repro.core.writes import delete, insert, modify
from repro.storage import durable
from repro.storage.durable import (
    WriteLogSegments,
    read_snapshot,
    recover,
    replay_log,
    write_snapshot,
)
from repro.storage.interface import dump_sorted
from repro.storage.memory import FrozenDatabase
from repro.storage.versioned import LATEST, VersionedDatabase, VersionedWrite

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
    store, watermark = restore_from(snapshot_path)
    reopened = WriteLogSegments(segments_dir)
    for entry in replay_log(reopened.directory, after=watermark):
        store.apply_write(entry.write, entry.priority)
    return store, watermark


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _same_contents(a, b, priority=LATEST):
    return dump_sorted(a.view_for(priority)) == dump_sorted(b.view_for(priority))


def test_snapshot_round_trip():
    import tempfile

    path = os.path.join(tempfile.mkdtemp(), "snap.json")
    store = VersionedDatabase(SCHEMA)
    store.load_initial(_initial())
    store.apply_write(insert(Tuple("S", ["s2"])), priority=1)
    store.snapshot_to(path, 1)
    schema, relations, watermark = read_snapshot(path)
    assert watermark == 1
    assert schema.relation_names() == SCHEMA.relation_names()
    assert sorted(relations) == ["R", "S"]
    assert set(relations["S"]) == {Tuple("S", ["s1"]), Tuple("S", ["s2"])}
    restored, restored_watermark = restore_from(path)
    assert restored_watermark == 1
    assert dump_sorted(restored.latest_view()) == dump_sorted(store.view_for(1))


def _base_document(watermark, relations):
    return dumps({
        "v": WIRE_VERSION,
        "t": "snapshot",
        "watermark": watermark,
        "schema": encode_schema(SCHEMA),
        "relations": {
            relation: sorted((encode_tuple(row) for row in rows), key=dumps)
            for relation, rows in relations.items()
        },
    }) + b"\n"


def test_a_base_is_what_dumps_makes_of_the_snapshot_document(tmp_path):
    """A base is assembled from per-row bytes, which the next base reuses."""
    path = str(tmp_path / "base.json")
    twin, typed = Tuple("S", ["s1"]), Tuple("S", [7])
    relations = {
        "R": [Tuple("R", ["r1", "r2"]), Tuple("R", ["é", LabeledNull("n1")])],
        "S": [twin, Tuple("S", ["7"]), typed, twin],
    }
    encoded = {}
    size = write_snapshot(path, SCHEMA, relations, 3, encoded)
    assert _read(path) == _base_document(3, relations) and size == len(_read(path))
    assert set(encoded) == {row for rows in relations.values() for row in rows}
    # The next base takes a kept row's bytes as they are, and forgets the
    # rows it no longer holds.
    relations["S"].remove(typed)
    encoded[twin] = dumps(encode_tuple(Tuple("S", ["kept"])))
    write_snapshot(path, SCHEMA, relations, 4, encoded)
    assert read_snapshot(path)[1]["S"].count(Tuple("S", ["kept"])) == 2
    assert typed not in encoded


def test_segments_replay_applied_writes(tmp_path):
    store, segments = _store(tmp_path)
    store.apply_writes([insert(Tuple("S", ["w1"])), insert(Tuple("S", ["w2"]))], 1)
    store.apply_write(delete(Tuple("S", ["s1"])), 2)
    applied = list(store.write_log())
    # Nothing is logged before its commit ...
    assert replay_log(str(tmp_path / "segments")) == []
    store.compact_below(2)
    # ... and the commit record, flushed, holds the batch as it was applied.
    replayed = replay_log(str(tmp_path / "segments"))
    assert [(entry.seq, entry.priority, entry.write) for entry in replayed] == [
        (logged.seq, logged.priority, logged.write) for logged in applied
    ]
    segments.close()


def test_rolled_back_writes_never_replay(tmp_path):
    store, segments = _store(tmp_path)
    store.apply_writes([insert(Tuple("S", ["keep"]))], 1)
    store.apply_writes([insert(Tuple("S", ["drop"])), insert(Tuple("R", ["q", "q"]))], 2)
    store.apply_writes([insert(Tuple("S", ["also"]))], 3)
    store.rollback(2)
    store.compact_below(3)
    segments.close()
    replayed = replay_log(str(tmp_path / "segments"))
    assert {entry.priority for entry in replayed} == {1, 3}


def _log_bytes(directory):
    return b"".join(
        _read(os.path.join(directory, name)) for name in sorted(os.listdir(directory))
    )


def test_a_rolled_back_update_leaves_no_byte_in_the_log(tmp_path):
    store, segments = _store(tmp_path)
    store.apply_writes([insert(Tuple("S", ["drop"])), insert(Tuple("R", ["q", "q"]))], 1)
    store.rollback(1)
    store.apply_writes([insert(Tuple("S", ["keep"]))], 2)
    store.compact_below(2)
    segments.close()
    data = _log_bytes(str(tmp_path / "segments"))
    assert b"keep" in data
    assert b"drop" not in data and b'"q"' not in data
    assert data.count(b"\n") == 1  # one commit record, nothing else


@pytest.mark.parametrize("batches", [[3], [1, 2, 3]], ids=["one-batch", "three-batches"])
def test_interleaved_priorities_replay_to_the_committed_view(tmp_path, batches):
    """Writes in seq order 2, 1, 3: replay goes by seq, not by record or priority.

    Priority 1 cannot see priority 2's ``S(y)``, so it inserts a second
    identity, and priority 3's delete removes the older one: the committed
    view still shows ``S(y)``.  Applied in priority order, the second insert
    would find the first and do nothing, and the delete would leave no
    ``S(y)``.
    """
    store, segments = _store(tmp_path)
    base = str(tmp_path / "base.json")
    store.snapshot_to(base, 0)
    y = Tuple("S", ["y"])
    store.apply_write(insert(y), 2)
    store.apply_write(insert(y), 1)
    store.apply_write(delete(y), 3)
    for watermark in batches:
        store.compact_below(watermark)
    segments.close()
    assert store.view_for(3).contains(y)
    rebuilt, _ = _replay_onto(base, str(tmp_path / "segments"))
    assert _same_contents(rebuilt, store, 3)
    assert y in set(recover(base, str(tmp_path / "segments"), 3).tuples("S"))


def test_commit_records_the_watermark_and_a_base_drops_covered_segments(tmp_path):
    store, segments = _store(tmp_path)
    for priority in range(1, 11):
        store.apply_writes([insert(Tuple("S", ["v{}".format(priority)]))], priority)
        store.compact_below(priority)  # the commit: one appended record, one flush
    store.apply_writes([insert(Tuple("S", ["in-flight"]))], 11)  # never commits
    before = len(segments.segment_indexes())
    assert before >= 3  # small segments roll over
    assert not os.path.exists(tmp_path / "segments" / "segments-meta.json")
    reopened = WriteLogSegments(str(tmp_path / "segments"))
    assert reopened.watermark == 10
    # Committing deletes nothing: the log alone still reproduces 1..10, and
    # the uncommitted 11 is not in it.
    assert len(reopened.segment_indexes()) == before
    assert {e.priority for e in replay_log(reopened.directory, upto=6)} == set(range(1, 7))
    assert {e.priority for e in replay_log(reopened.directory)} == set(range(1, 11))
    # Only a base snapshot at a watermark retires the segments it covers.
    store.snapshot_to(str(tmp_path / "base.json"), 6)
    retained_before = segments.retained_bytes()
    assert segments.drop_covered(6) >= 1
    assert segments.retained_bytes() < retained_before
    segments.close()
    reopened = WriteLogSegments(str(tmp_path / "segments"))
    assert len(reopened.segment_indexes()) < before
    assert {e.priority for e in replay_log(reopened.directory, after=6)} == {7, 8, 9, 10}


@pytest.mark.parametrize("seed", range(5))
def test_randomized_snapshot_plus_replay_reproduces_the_store(tmp_path, seed):
    """The durability contract, differentially, under a random history."""
    rng = random.Random(seed)
    store, segments = _store(tmp_path, name="segments{}".format(seed))
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
    segments.drop_covered(committed)
    segments.close()
    rebuilt, _ = _replay_onto(snapshot_path, str(tmp_path / "segments{}".format(seed)))
    # The log holds committed work only: the rest of the store is in flight.
    assert _same_contents(rebuilt, store, committed)


def _random_committed_history(store, rng, priorities):
    """Inserts/deletes with rollbacks; returns the watermark of each commit."""
    commits = []
    live_rows = [Tuple("S", ["s1"])]
    for priority in priorities:
        row = Tuple("S", ["c{}".format(priority)])
        if rng.random() < 0.65 or not live_rows:
            writes = [insert(row), insert(Tuple("R", ["r{}".format(priority), row.values[0]]))]
        else:
            writes = [delete(live_rows.pop(rng.randrange(len(live_rows))))]
        store.apply_writes(writes, priority)
        if rng.random() < 0.2:
            store.rollback(priority)
            if writes[0].kind.name == "DELETE":
                live_rows.append(writes[0].row)
        elif writes[0].kind.name == "INSERT":
            live_rows.append(row)
        if rng.random() < 0.4:
            # Everything up to here is committed or rolled back.
            store.compact_below(priority)
            commits.append(priority)
    return commits


@pytest.mark.parametrize("seed", range(5))
def test_reopening_after_an_unclean_stop_yields_the_last_committed_state(tmp_path, seed):
    """No snapshot, no close: the directory alone holds the committed state.

    A kill loses exactly what was still in the append handle's buffer, so the
    "killed" directory is a copy taken while the live log is still open.
    Replaying it up to its last commit record onto the initial database gives
    the live store's view at that watermark.
    """
    rng = random.Random(seed)
    store, segments = _store(tmp_path)
    commits = _random_committed_history(store, rng, range(1, 40))
    store.apply_writes([insert(Tuple("S", ["in-flight"]))], 40)  # never commits
    killed = str(tmp_path / "killed")
    shutil.copytree(str(tmp_path / "segments"), killed)
    reopened = WriteLogSegments(killed)
    assert reopened.watermark == commits[-1]
    rebuilt = VersionedDatabase(SCHEMA)
    rebuilt.load_initial(_initial())
    for entry in replay_log(reopened.directory, upto=reopened.watermark):
        rebuilt.apply_write(entry.write, entry.priority)
    assert dump_sorted(rebuilt.latest_view()) == dump_sorted(
        store.view_for(reopened.watermark)
    )
    segments.close()


def test_base_keeps_both_identities_of_equal_content(tmp_path):
    """The 3-row store of ``test_duplicate_identity_unify``, across a base.

    A unify leaves two identities holding ``R(a, n2)``; the base is written;
    a later ``DELETE`` removes one of them.  The live store still shows the
    row through its twin, so base + replay must too — a base written through
    a (content-deduplicating) view would lose it.
    """
    schema = DatabaseSchema.from_dict({"R": ["a", "b"], "S": ["a"]})
    first, second = LabeledNull("n1"), LabeledNull("n2")
    left = Tuple("R", [Constant("a"), first])
    right = Tuple("R", [Constant("a"), second])
    store = VersionedDatabase(schema)
    store.load_initial(FrozenDatabase(schema, {
        "R": frozenset({left, right}),
        "S": frozenset({Tuple("S", [second])}),
    }))
    segments = WriteLogSegments(str(tmp_path / "log"))
    store.attach_segments(segments)
    store.apply_writes([modify(left, right, first, second)], priority=1)
    store.compact_below(1)
    base = str(tmp_path / "base.json")
    store.snapshot_to(base, 1)
    assert read_snapshot(base)[1]["R"] == [right, right]
    store.apply_writes([delete(right)], priority=2)
    store.compact_below(2)
    assert list(store.view_for(2).tuples("R")) == [right]
    segments.close()
    rebuilt, _ = _replay_onto(base, str(tmp_path / "log"))
    assert list(rebuilt.latest_view().tuples("R")) == [right]
    assert set(recover(base, str(tmp_path / "log"), 2).tuples("R")) == {right}
    assert set(recover(base, None, 1).tuples("R")) == {right}
    with pytest.raises(CodecError, match="needs the redo log"):
        recover(base, None, 2)


# ----------------------------------------------------------------------
# Torn tails and atomic files
# ----------------------------------------------------------------------
def _three_segment_log(directory):
    """Eleven committed single-write priorities (five more roll back) over
    segments of four entries: commit records 4 + 4 + 3."""
    store = VersionedDatabase(SCHEMA)
    store.load_initial(_initial())
    segments = WriteLogSegments(directory, max_entries_per_segment=4)
    store.attach_segments(segments)
    for priority in range(1, 17):
        store.apply_writes([insert(Tuple("S", ["t{}".format(priority)]))], priority)
        if priority % 3 == 0:
            store.rollback(priority)
        store.compact_below(priority)
    segments.close()
    return sorted(name for name in os.listdir(directory) if name.endswith(".log"))


def test_recover_reads_each_segment_once(tmp_path, monkeypatch):
    directory = str(tmp_path / "log")
    names = _three_segment_log(directory)
    base = str(tmp_path / "base")
    initial = _initial()
    write_snapshot(
        base, SCHEMA, {name: list(initial.tuples(name)) for name in SCHEMA.relation_names()},
        0, {},
    )
    read = durable._read_segment
    reads = []

    def counted(path, newest):
        reads.append(os.path.basename(path))
        return read(path, newest)

    monkeypatch.setattr(durable, "_read_segment", counted)
    recovered = recover(base, directory, 16)
    assert sorted(reads) == names
    assert set(recovered.tuples("S")) == {Tuple("S", ["s1"])} | {
        Tuple("S", ["t{}".format(priority)])
        for priority in range(1, 17) if priority % 3
    }


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 2026])
def test_a_chopped_newest_segment_loses_only_its_torn_record(tmp_path, seed):
    """Seeded byte-chopper: cut the newest segment anywhere, reopen, go on."""
    rng = random.Random(seed)
    directory = str(tmp_path / "log")
    names = _three_segment_log(directory)
    assert len(names) >= 3
    newest = os.path.join(directory, names[-1])
    whole = _read(newest)
    complete = replay_log(directory)
    for _ in range(12):
        with open(newest, "wb") as handle:
            handle.write(whole[:rng.randrange(len(whole))])
        reopened = WriteLogSegments(directory, max_entries_per_segment=4)
        # Exactly the committed history up to the last commit record that
        # survived whole: nothing invented, nothing lost, nothing reordered.
        survived = reopened.watermark
        committed = replay_log(reopened.directory, upto=survived)
        assert committed == [e for e in complete if e.priority <= survived]
        # An append first truncates the torn record away, so the next reopen
        # (where this segment may no longer be the newest) reads cleanly.
        later = VersionedWrite(100, 99, 0, insert(Tuple("S", ["later"])))
        reopened.append([later], 99)
        reopened.close()
        again = WriteLogSegments(directory, max_entries_per_segment=4)
        assert again.watermark == 99
        assert replay_log(again.directory, upto=survived) == committed
        assert replay_log(again.directory, after=survived) == [later]
        for name in os.listdir(directory):
            if name > names[-1]:
                os.remove(os.path.join(directory, name))


def test_damage_anywhere_but_the_newest_tail_is_an_error(tmp_path):
    directory = str(tmp_path / "log")
    names = _three_segment_log(directory)
    oldest = os.path.join(directory, names[0])
    newest = os.path.join(directory, names[-1])
    whole = _read(oldest)
    with open(oldest, "wb") as handle:
        handle.write(whole[:-7])  # a sealed segment cut mid-record
    with pytest.raises(CodecError, match="unterminated record in sealed segment"):
        WriteLogSegments(directory)
    with open(oldest, "wb") as handle:
        handle.write(whole)
    lines = _read(newest).split(b"\n")
    lines[0] = lines[0][:-5]  # an undecodable record that is not the last one
    with open(newest, "wb") as handle:
        handle.write(b"\n".join(lines))
    with pytest.raises(CodecError, match="malformed wire bytes"):
        WriteLogSegments(directory)
    lines[0] = b'{"v": 2, "t": "checkpoint"}'
    with open(newest, "wb") as handle:
        handle.write(b"\n".join(lines))
    with pytest.raises(CodecError, match="unknown segment record type"):
        WriteLogSegments(directory)


def test_an_undecodable_terminated_last_record_is_dropped_too(tmp_path):
    directory = str(tmp_path / "log")
    names = _three_segment_log(directory)
    newest = os.path.join(directory, names[-1])
    before = [entry.seq for entry in replay_log(directory)]
    with open(newest, "ab") as handle:
        handle.write(b'{"v": 2, "t": "wri\x00\x00\n')
    assert [entry.seq for entry in replay_log(directory)] == before


def test_a_snapshot_write_that_dies_half_way_keeps_the_old_file(tmp_path, dying_write):
    path = str(tmp_path / "snap.json")
    store = VersionedDatabase(SCHEMA)
    store.load_initial(_initial())
    store.snapshot_to(path, 0)
    good = _read(path)
    store.apply_write(insert(Tuple("S", ["s2"])), priority=1)
    dying_write()
    with pytest.raises(OSError, match="disk full"):
        store.snapshot_to(path, 1)
    assert _read(path) == good
    assert os.listdir(str(tmp_path)) == ["snap.json"]  # no temp file left behind
    assert read_snapshot(path)[2] == 0


def test_a_log_from_before_commit_records_is_refused(tmp_path):
    """Per-write and rollback records were the log's shape before commit records."""
    legacy = {
        "write": {"e": {"seq": 1, "pri": 1, "tid": 1, "w": {"k": "insert", "row": ["S", "a"]}}},
        "rollback": {"p": 1},
    }
    for kind, body in legacy.items():
        directory = tmp_path / kind
        directory.mkdir()
        with open(directory / "segment-00000001.log", "wb") as handle:
            handle.write(dumps(dict(body, v=WIRE_VERSION, t=kind)) + b"\n")
            handle.write(dumps({"v": WIRE_VERSION, "t": "commit", "w": 1, "e": []}) + b"\n")
        with pytest.raises(
            CodecError, match="segment record type '{}'.*predates commit records".format(kind)
        ):
            WriteLogSegments(str(directory))


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
