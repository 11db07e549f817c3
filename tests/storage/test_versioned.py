"""Tests for the multiversion store: visibility, write log, rollback."""

import pytest

from oracles.probe import assert_probe_matches_default, probes_for
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import make_tuple
from repro.core.writes import delete, insert, modify
from repro.storage.buckets import bucket_members
from repro.storage.memory import MemoryDatabase
from repro.storage.versioned import LATEST, VersionedDatabase


@pytest.fixture
def store():
    schema = DatabaseSchema.from_dict({"P": ["a"], "Q": ["a", "b"]})
    return VersionedDatabase(schema)


class TestVisibility:
    def test_initial_load_is_visible_to_everyone(self, store):
        initial = MemoryDatabase(store.schema)
        initial.insert(make_tuple("P", "base"))
        store.load_initial(initial.snapshot())
        assert store.view_for(1).contains(make_tuple("P", "base"))
        assert store.view_for(99).contains(make_tuple("P", "base"))
        # The initial load is not attributed to any update.
        assert store.write_log() == []

    def test_writes_visible_only_to_same_or_higher_priorities(self, store):
        store.apply_write(insert(make_tuple("P", "v")), priority=5)
        assert not store.view_for(4).contains(make_tuple("P", "v"))
        assert store.view_for(5).contains(make_tuple("P", "v"))
        assert store.view_for(6).contains(make_tuple("P", "v"))
        assert store.latest_view().contains(make_tuple("P", "v"))

    def test_deletion_hides_the_tuple_for_higher_priorities_only(self, store):
        store.apply_write(insert(make_tuple("P", "v")), priority=1)
        store.apply_write(delete(make_tuple("P", "v")), priority=3)
        assert store.view_for(2).contains(make_tuple("P", "v"))
        assert not store.view_for(3).contains(make_tuple("P", "v"))
        assert not store.view_for(10).contains(make_tuple("P", "v"))

    def test_later_version_of_same_update_wins(self, store):
        store.apply_write(insert(make_tuple("P", "v")), priority=2)
        store.apply_write(delete(make_tuple("P", "v")), priority=2)
        assert not store.view_for(2).contains(make_tuple("P", "v"))

    def test_modification_changes_content_for_viewers(self, store):
        old = make_tuple("Q", LabeledNull("x"), "b")
        new = make_tuple("Q", "filled", "b")
        store.apply_write(insert(old), priority=1)
        store.apply_write(modify(old, new, LabeledNull("x"), Constant("filled")), priority=4)
        assert store.view_for(2).contains(old)
        assert not store.view_for(2).contains(new)
        assert store.view_for(4).contains(new)
        assert not store.view_for(4).contains(old)

    def test_noop_writes_are_not_logged(self, store):
        store.apply_write(insert(make_tuple("P", "v")), priority=1)
        assert store.apply_write(insert(make_tuple("P", "v")), priority=2) is None
        assert store.apply_write(delete(make_tuple("P", "zzz")), priority=2) is None
        assert len(store.write_log()) == 1

    def test_lower_priority_cannot_delete_invisible_tuple(self, store):
        store.apply_write(insert(make_tuple("P", "v")), priority=7)
        assert store.apply_write(delete(make_tuple("P", "v")), priority=3) is None

    def test_materialize_freezes_a_view(self, store):
        store.apply_write(insert(make_tuple("P", "v")), priority=1)
        frozen = store.materialize()
        store.apply_write(delete(make_tuple("P", "v")), priority=2)
        assert frozen.contains(make_tuple("P", "v"))


class TestWriteLogAndRollback:
    def test_write_log_records_priority_and_order(self, store):
        store.apply_write(insert(make_tuple("P", "a")), priority=1)
        store.apply_write(insert(make_tuple("P", "b")), priority=2)
        log = store.write_log()
        assert [entry.priority for entry in log] == [1, 2]
        assert [entry.write.row for entry in log] == [make_tuple("P", "a"), make_tuple("P", "b")]
        assert store.writes_by(2)[0].write.row == make_tuple("P", "b")
        assert store.priorities_in_log() == {1, 2}

    def test_write_log_is_a_copy_free_live_view(self, store):
        view = store.write_log()
        assert len(view) == 0
        store.apply_write(insert(make_tuple("P", "a")), priority=1)
        # The view is a read-only window onto the live log, not a snapshot
        # copy: it sees later appends and rejects mutation.
        assert len(view) == 1
        assert list(view) == list(store.write_log())
        assert view[0].priority == 1
        assert view == store.write_log()
        with pytest.raises(AttributeError):
            view.append("nope")
        # The window stays live across rollback too (the log is mutated in
        # place, not rebound): the rolled-back entry disappears from the
        # previously obtained view as well.
        store.apply_write(insert(make_tuple("P", "b")), priority=2)
        store.rollback(1)
        assert [entry.priority for entry in view] == [2]
        assert view == store.write_log()

    def test_writes_by_is_an_indexed_lookup(self, store):
        store.apply_write(insert(make_tuple("P", "a")), priority=1)
        store.apply_write(insert(make_tuple("P", "b")), priority=2)
        store.apply_write(insert(make_tuple("Q", "c", "d")), priority=2)
        assert [entry.write.row for entry in store.writes_by(2)] == [
            make_tuple("P", "b"),
            make_tuple("Q", "c", "d"),
        ]
        assert store.write_count_by(2) == 2
        assert store.write_count_by(9) == 0
        assert len(store.writes_by(9)) == 0
        assert [e.write.row for e in store.writes_by_touching_relations(2, ["Q"])] == [
            make_tuple("Q", "c", "d")
        ]
        merged = store.writes_by_touching_relations(2, {"P", "Q"})
        assert [entry.seq for entry in merged] == sorted(entry.seq for entry in merged)
        assert len(merged) == 2

    def test_rollback_removes_versions_and_log_entries(self, store):
        store.apply_write(insert(make_tuple("P", "keep")), priority=1)
        store.apply_write(insert(make_tuple("P", "drop")), priority=2)
        removed = store.rollback(2)
        assert [entry.write.row for entry in removed] == [make_tuple("P", "drop")]
        assert not store.latest_view().contains(make_tuple("P", "drop"))
        assert store.latest_view().contains(make_tuple("P", "keep"))
        assert store.priorities_in_log() == {1}

    def test_rollback_of_a_delete_restores_visibility(self, store):
        store.apply_write(insert(make_tuple("P", "v")), priority=1)
        store.apply_write(delete(make_tuple("P", "v")), priority=2)
        assert not store.latest_view().contains(make_tuple("P", "v"))
        store.rollback(2)
        assert store.latest_view().contains(make_tuple("P", "v"))

    def test_rollback_of_unknown_priority_is_noop(self, store):
        store.apply_write(insert(make_tuple("P", "v")), priority=1)
        assert store.rollback(9) == []
        assert store.latest_view().contains(make_tuple("P", "v"))

    def test_counts(self, store):
        store.apply_write(insert(make_tuple("P", "a")), priority=1)
        store.apply_write(delete(make_tuple("P", "a")), priority=2)
        assert store.tuple_count() == 1
        assert store.version_count() == 2


class TestVersionedView:
    def test_view_reports_schema_and_relations(self, store):
        view = store.view_for(1)
        assert view.schema is store.schema
        assert set(view.relations()) == {"P", "Q"}
        assert view.priority == 1

    def test_unknown_relation_rejected(self, store):
        from repro.core.schema import SchemaError

        with pytest.raises(SchemaError):
            list(store.view_for(1).tuples("Nope"))

    def test_duplicate_contents_collapse_in_iteration(self, store):
        # Two different updates insert the same tuple value (the second one is
        # a no-op only if it can see the first; with a lower priority it cannot).
        store.apply_write(insert(make_tuple("P", "v")), priority=5)
        store.apply_write(insert(make_tuple("P", "v")), priority=3)
        assert list(store.view_for(10).tuples("P")) == [make_tuple("P", "v")]


class TestIndexedCorrectionQueries:
    """The view's indexed correction queries must match the interface defaults.

    The chase-hot queries (``more_specific_tuples``, ``tuples_containing_null``,
    ``tuples_matching``) are index-accelerated on :class:`VersionedView`;
    the store's indexes over-approximate across versions and rollbacks, so
    these tests exercise modified, deleted and rolled-back tuples at several
    priorities and compare against the scanning defaults.
    """

    @pytest.fixture
    def busy_store(self, store):
        from repro.core.tuples import Tuple

        null = LabeledNull("n1")
        store.apply_write(insert(make_tuple("P", "x")), priority=1)
        store.apply_write(insert(Tuple("Q", ("x", null))), priority=1)
        store.apply_write(insert(make_tuple("Q", "x", "y")), priority=2)
        store.apply_write(
            modify(Tuple("Q", ("x", null)), make_tuple("Q", "x", "z"), null, Constant("z")),
            priority=3,
        )
        store.apply_write(insert(make_tuple("Q", "w", "y")), priority=4)
        store.apply_write(delete(make_tuple("Q", "x", "y")), priority=5)
        store.apply_write(insert(make_tuple("Q", "x", "rolled")), priority=6)
        store.rollback(6)
        return store, null

    def _assert_matches_defaults(self, view, pattern, null):
        from repro.storage.interface import DatabaseView

        assert set(view.more_specific_tuples(pattern)) == set(
            DatabaseView.more_specific_tuples(view, pattern)
        )
        assert set(view.tuples_containing_null(null)) == set(
            DatabaseView.tuples_containing_null(view, null)
        )
        for bound in probes_for(pattern, (Constant("y"), null)):
            assert_probe_matches_default(view, "Q", bound, ordered=True)

    def test_indexed_queries_match_defaults_at_every_priority(self, busy_store):
        from repro.core.tuples import Tuple

        store, null = busy_store
        pattern = Tuple("Q", (Constant("x"), LabeledNull("probe")))
        for priority in (0, 1, 2, 3, 4, 5, 6, LATEST):
            self._assert_matches_defaults(store.view_for(priority), pattern, null)

    def test_all_null_pattern_matches_default(self, busy_store):
        from repro.core.tuples import Tuple
        from repro.storage.interface import DatabaseView

        store, _ = busy_store
        pattern = Tuple("Q", (LabeledNull("a"), LabeledNull("b")))
        view = store.view_for(LATEST)
        assert set(view.more_specific_tuples(pattern)) == set(
            DatabaseView.more_specific_tuples(view, pattern)
        )

    def test_rolled_back_tuples_never_surface(self, busy_store):
        from repro.core.tuples import Tuple

        store, _ = busy_store
        view = store.view_for(LATEST)
        pattern = Tuple("Q", (Constant("x"), LabeledNull("p")))
        assert make_tuple("Q", "x", "rolled") not in view.more_specific_tuples(pattern)

    def test_rollback_purges_index_entries_of_dead_tids(self, store):
        from repro.core.tuples import Tuple

        null = LabeledNull("gone")
        store.apply_write(insert(Tuple("Q", ("a", null))), priority=7)
        assert bucket_members(store._value_index.get(("Q", 0, Constant("a"))))
        assert bucket_members(store._null_index.get(null))
        store.rollback(7)
        # The identity died with the rollback; an abort-heavy service must
        # not accumulate dead tids (or dead keys) in the hot-path buckets.
        assert ("Q", 0, Constant("a")) not in store._value_index
        assert null not in store._null_index
