"""Bulk write paths: extend_log ≡ per-row appends, PositionIndex bulk ops.

The bulk APIs exist for throughput only; these tests pin them to the per-row
paths they replace — same log contents, same indexes, same counters.
"""

from __future__ import annotations

import random

from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple, make_tuple
from repro.core.writes import delete, insert
from repro.storage.buckets import bucket_members
from repro.storage.index import PositionIndex
from repro.storage.memory import MemoryDatabase
from repro.storage.overlay import OverlayView
from repro.storage.versioned import VersionedDatabase

SCHEMA = DatabaseSchema.from_dict({"P": ["x", "y"], "Q": ["x"]})


def _random_writes(rng, count):
    writes = []
    live = []
    for _ in range(count):
        roll = rng.random()
        if live and roll < 0.3:
            writes.append(delete(live.pop(rng.randrange(len(live)))))
        elif roll < 0.8:
            row = Tuple(
                "P",
                (
                    Constant("c{}".format(rng.randrange(6))),
                    LabeledNull("n{}".format(rng.randrange(4)))
                    if rng.random() < 0.4
                    else Constant("d{}".format(rng.randrange(6))),
                ),
            )
            writes.append(insert(row))
            live.append(row)
        else:
            row = make_tuple("Q", "q{}".format(rng.randrange(8)))
            writes.append(insert(row))
            live.append(row)
    return writes


class TestExtendLog:
    def test_apply_writes_equals_per_write_application(self):
        for seed in range(6):
            rng = random.Random(seed)
            bulk_store = VersionedDatabase(SCHEMA)
            row_store = VersionedDatabase(SCHEMA)
            for priority in (1, 2, 3):
                writes = _random_writes(rng, rng.randrange(1, 12))
                bulk_logged = bulk_store.apply_writes(writes, priority)
                row_logged = [
                    logged
                    for logged in (
                        row_store.apply_write(write, priority) for write in writes
                    )
                    if logged is not None
                ]
                assert [e.write for e in bulk_logged] == [e.write for e in row_logged]
                assert [e.seq for e in bulk_logged] == [e.seq for e in row_logged]
            # Same global log, same per-priority buckets, same positions.
            assert [e.write for e in bulk_store.write_log()] == [
                e.write for e in row_store.write_log()
            ]
            for priority in (1, 2, 3):
                assert list(bulk_store.writes_by(priority)) == list(
                    row_store.writes_by(priority)
                )
                for entry in bulk_store.writes_by(priority):
                    assert bulk_store.log_position(
                        priority, entry.seq
                    ) == row_store.log_position(priority, entry.seq)
            # Same visible contents and index sizes.
            assert (
                bulk_store.latest_view().to_dict() == row_store.latest_view().to_dict()
            )
            assert bulk_store.index_entry_count() == row_store.index_entry_count()

    def test_extend_log_groups_relation_and_null_buckets(self):
        store = VersionedDatabase(SCHEMA)
        null = LabeledNull("n0")
        writes = [
            insert(Tuple("P", (Constant("a"), null))),
            insert(make_tuple("Q", "b")),
            insert(Tuple("P", (Constant("c"), Constant("d")))),
        ]
        logged = store.apply_writes(writes, 1)
        assert len(logged) == 3
        assert [e.write.relation for e in store.writes_by_touching_relations(1, ["P"])] == [
            "P",
            "P",
        ]
        assert len(store.writes_by_touching_relations(1, ["Q"])) == 1
        assert [e.write for e in store.writes_by_touching_null(1, null)] == [writes[0]]

    def test_failing_batch_keeps_applied_writes_rollbackable(self):
        # Regression: a write failing mid-batch must not leave the earlier
        # applied versions unlogged — rollback() undoes through the log.
        import pytest
        from repro.core.writes import Write, WriteKind

        store = VersionedDatabase(SCHEMA)
        good = insert(make_tuple("Q", "ok"))
        bad = Write(WriteKind.MODIFY, make_tuple("Q", "new"))  # old_row missing
        with pytest.raises(Exception):
            store.apply_writes([good, bad], 1)
        assert store.latest_view().contains(make_tuple("Q", "ok"))
        assert len(store.writes_by(1)) == 1  # the applied write is logged
        removed = store.rollback(1)
        assert len(removed) == 1
        assert not store.latest_view().contains(make_tuple("Q", "ok"))

    def test_rollback_after_bulk_apply_is_clean(self):
        store = VersionedDatabase(SCHEMA)
        store.apply_writes(
            [insert(make_tuple("Q", "keep"))], 1
        )
        store.apply_writes(
            [insert(make_tuple("Q", "drop1")), insert(make_tuple("Q", "drop2"))], 2
        )
        removed = store.rollback(2)
        assert len(removed) == 2
        assert store.latest_view().to_dict()["Q"] == frozenset(
            {make_tuple("Q", "keep")}
        )
        assert store.log_size() == 1


class TestPositionIndexBulk:
    def test_len_is_a_running_row_count(self):
        index = PositionIndex()
        rows = [make_tuple("P", "a", "b"), make_tuple("P", "a", "c")]
        index.add(rows[0])
        assert len(index) == 1
        index.add(rows[0])  # idempotent
        assert len(index) == 1
        index.add(rows[1])
        assert len(index) == 2
        index.remove(rows[0])
        assert len(index) == 1
        index.remove(rows[0])  # no-op
        assert len(index) == 1
        index.remove(rows[1])
        assert len(index) == 0

    def test_add_many_matches_per_row_adds(self):
        rng = random.Random(0)
        rows = []
        for _ in range(40):
            rows.append(
                make_tuple(
                    "P", "a{}".format(rng.randrange(5)), "b{}".format(rng.randrange(5))
                )
            )
        bulk, single = PositionIndex(), PositionIndex()
        bulk.add_many(rows)
        for row in rows:
            single.add(row)
        assert len(bulk) == len(single) == len(set(rows))
        for row in set(rows):
            for position in (0, 1):
                # Same members in the same order: the join probe walks buckets.
                assert list(bucket_members(bulk.bucket("P", position, row[position]))) == list(
                    bucket_members(single.bucket("P", position, row[position]))
                )

    def test_add_many_indexes_nulls(self):
        # Regression: add_many used to build the null groups and drop them —
        # bulk-loaded stores lost their entire null index (and with it
        # tuples_containing_null).
        null = LabeledNull("n9")
        row = Tuple("P", (Constant("a"), null))
        index = PositionIndex()
        index.add_many([row])
        assert bucket_members(index.null_bucket(null)) == {row}
        index.rebuild([row])
        assert bucket_members(index.null_bucket(null)) == {row}

    def test_bulk_loaded_memory_database_replaces_nulls(self):
        null = LabeledNull("n1")
        source = MemoryDatabase(SCHEMA)
        source.insert(Tuple("P", (Constant("a"), null)))
        loaded = MemoryDatabase(SCHEMA)
        loaded.load_from(source)
        for row in list(loaded.tuples_containing_null(null)):
            loaded.delete(row)
            loaded.insert(row.substitute({null: Constant("v")}))
        assert loaded.snapshot().to_dict()["P"] == {Tuple("P", (Constant("a"), Constant("v")))}
        assert not list(loaded.tuples_containing_null(null))

    def test_remove_many(self):
        rows = [make_tuple("P", "a", "b"), make_tuple("P", "c", "d")]
        index = PositionIndex()
        index.add_many(rows)
        for row in rows:
            index.remove(row)
        assert len(index) == 0
        assert bucket_members(index.bucket("P", 0, Constant("a"))) == set()

    def test_rebuild_resets_the_counter(self):
        index = PositionIndex()
        index.add_many([make_tuple("P", "a", "b"), make_tuple("P", "c", "d")])
        index.rebuild([make_tuple("P", "e", "f")])
        assert len(index) == 1


class TestCardinalityEstimates:
    def test_memory_database_estimate_is_exact(self):
        database = MemoryDatabase(SCHEMA)
        assert database.cardinality_estimate("P") == 0
        database.insert(make_tuple("P", "a", "b"))
        assert database.cardinality_estimate("P") == 1
        assert database.snapshot().cardinality_estimate("P") == 1

    def test_versioned_view_estimate_bounds_visible_count(self):
        store = VersionedDatabase(SCHEMA)
        store.apply_writes(
            [insert(make_tuple("Q", "a")), insert(make_tuple("Q", "b"))], 1
        )
        store.apply_write(delete(make_tuple("Q", "a")), 2)
        view = store.latest_view()
        estimate = view.cardinality_estimate("Q")
        assert estimate is not None
        assert estimate >= view.count("Q")

    def test_overlay_estimate_adds_added_rows(self):
        database = MemoryDatabase(SCHEMA)
        database.insert(make_tuple("Q", "a"))
        view = OverlayView(database, added={make_tuple("Q", "b")})
        assert view.cardinality_estimate("Q") == 2


class TestMoreSpecificFastPath:
    def test_stale_index_entries_do_not_leak_into_results(self):
        # Regression: the distinct-null fast path must re-check constants
        # against the *visible* content — the value index over-approximates
        # (a modified tuple stays bucketed under its old first value).
        from repro.core.writes import modify

        store = VersionedDatabase(SCHEMA)
        null = LabeledNull("x")
        old = Tuple("P", (Constant("a"), null))
        store.apply_write(insert(old), 1)
        new = Tuple("P", (Constant("b"), null))
        store.apply_write(modify(old, new, null, Constant("ignored")), 2)
        view = store.latest_view()
        pattern = Tuple("P", (Constant("a"), LabeledNull("free")))
        # R(b, x) is visible but does not match the pattern's constant; the
        # stale (P, 0, 'a') bucket entry must not surface it.
        assert bucket_members(store._value_index.get(("P", 0, Constant("a"))))  # stale entry exists
        assert view.more_specific_tuples(pattern) == []
        match_pattern = Tuple("P", (Constant("b"), LabeledNull("free")))
        assert view.more_specific_tuples(match_pattern) == [new]
