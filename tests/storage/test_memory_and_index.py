"""Tests for the in-memory store, its index, snapshots and overlay views."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles.probe import assert_probe_matches_default, probes_for
from repro.core.schema import DatabaseSchema, SchemaError
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple, make_tuple
from repro.core.writes import delete, insert, modify
from repro.storage.buckets import bucket_members
from repro.storage.index import PositionIndex
from repro.storage.interface import DatabaseView, dump_sorted
from repro.storage.memory import MemoryDatabase
from repro.storage.overlay import OverlayView, view_without_write


@pytest.fixture
def small_db():
    schema = DatabaseSchema.from_dict({"P": ["a", "b"], "Q": ["a"]})
    return MemoryDatabase(schema)


class TestMemoryDatabase:
    def test_insert_and_contains(self, small_db):
        row = make_tuple("P", "x", "y")
        assert small_db.insert(row)
        assert small_db.contains(row)
        assert not small_db.insert(row), "duplicate insert is a no-op"
        assert small_db.count("P") == 1

    def test_delete(self, small_db):
        row = make_tuple("P", "x", "y")
        small_db.insert(row)
        assert small_db.delete(row)
        assert not small_db.delete(row)
        assert small_db.count("P") == 0

    def test_schema_violations_rejected(self, small_db):
        with pytest.raises(SchemaError):
            small_db.insert(make_tuple("P", "only-one"))
        with pytest.raises(SchemaError):
            small_db.insert(make_tuple("Unknown", "x"))
        with pytest.raises(SchemaError):
            list(small_db.tuples("Unknown"))

    def test_indexed_value_lookup(self, small_db):
        small_db.insert(make_tuple("P", "x", "y"))
        small_db.insert(make_tuple("P", "x", "z"))
        small_db.insert(make_tuple("P", "w", "y"))
        found = set(small_db.tuples_matching("P", [(0, Constant("x"))]))
        assert found == {make_tuple("P", "x", "y"), make_tuple("P", "x", "z")}
        both = list(small_db.tuples_matching("P", [(0, Constant("x")), (1, Constant("z"))]))
        assert both == [make_tuple("P", "x", "z")]

    def test_null_occurrence_lookup(self, small_db):
        null = LabeledNull("n1")
        small_db.insert(Tuple("P", [null, Constant("y")]))
        small_db.insert(make_tuple("Q", "v"))
        found = set(small_db.tuples_containing_null(null))
        assert found == {Tuple("P", [null, Constant("y")])}

    def test_snapshot_is_immutable_copy(self, small_db):
        row = make_tuple("Q", "v")
        small_db.insert(row)
        snapshot = small_db.snapshot()
        small_db.delete(row)
        assert snapshot.contains(row)
        assert not small_db.contains(row)
        assert snapshot.count("Q") == 1

    def test_copy_and_load_from(self, small_db):
        small_db.insert(make_tuple("Q", "v"))
        duplicate = MemoryDatabase(small_db.schema)
        duplicate.load_from(small_db)
        duplicate.insert(make_tuple("Q", "w"))
        assert small_db.count("Q") == 1
        fresh = MemoryDatabase(small_db.schema)
        fresh.load_from(duplicate)
        assert fresh.count("Q") == 2

    def test_insert_all_and_clear(self, small_db):
        inserted = sum(
            small_db.insert(row)
            for row in [make_tuple("Q", "a"), make_tuple("Q", "a"), make_tuple("Q", "b")]
        )
        assert inserted == 2
        small_db.clear()
        assert small_db.total_count() == 0

    def test_dump_sorted_is_stable(self, small_db):
        small_db.insert(make_tuple("Q", "b"))
        small_db.insert(make_tuple("Q", "a"))
        assert dump_sorted(small_db) == ["Q(a)", "Q(b)"]

    def test_more_specific_tuples_uses_index_and_matches_default(self, small_db):
        null_one = LabeledNull("n1")
        null_two = LabeledNull("n2")
        rows = [
            make_tuple("P", "x", "y"),
            make_tuple("P", "x", "z"),
            make_tuple("P", "w", "y"),
            Tuple("P", ("x", null_one)),
        ]
        for row in rows:
            small_db.insert(row)
        pattern = Tuple("P", ("x", null_two))
        indexed = small_db.more_specific_tuples(pattern)
        default = DatabaseView.more_specific_tuples(small_db, pattern)
        assert set(indexed) == set(default)
        # All three x-rows qualify (reflexively including the null variant);
        # the w-row must have been pruned by the position index.
        assert set(indexed) == {rows[0], rows[1], rows[3]}

    def test_more_specific_tuples_all_null_pattern_falls_back_to_relation(self, small_db):
        rows = [make_tuple("P", "x", "y"), make_tuple("P", "w", "z")]
        for row in rows:
            small_db.insert(row)
        pattern = Tuple("P", (LabeledNull("a1"), LabeledNull("a2")))
        assert set(small_db.more_specific_tuples(pattern)) == set(rows)

    def test_more_specific_tuples_no_constant_match_is_empty(self, small_db):
        small_db.insert(make_tuple("P", "x", "y"))
        pattern = Tuple("P", ("absent", LabeledNull("b1")))
        assert small_db.more_specific_tuples(pattern) == []

    def test_more_specific_tuples_repeated_null_consistency(self, small_db):
        # P(v, v) is more specific than P(n, n); P(v, u) is not (the map on
        # the repeated null would be inconsistent).  The index intersection
        # must not short-circuit that check.
        small_db.insert(make_tuple("P", "v", "v"))
        small_db.insert(make_tuple("P", "v", "u"))
        shared = LabeledNull("c1")
        pattern = Tuple("P", (shared, shared))
        assert set(small_db.more_specific_tuples(pattern)) == {make_tuple("P", "v", "v")}


class TestPositionIndex:
    def test_add_remove_lookup(self):
        index = PositionIndex()
        row = make_tuple("P", "x", LabeledNull("n"))
        index.add(row)
        assert bucket_members(index.bucket("P", 0, Constant("x"))) == {row}
        assert bucket_members(index.null_bucket(LabeledNull("n"))) == {row}
        index.remove(row)
        assert bucket_members(index.bucket("P", 0, Constant("x"))) == set()
        assert bucket_members(index.null_bucket(LabeledNull("n"))) == set()
        assert len(index) == 0

    def test_a_bucket_holds_one_row_bare_and_two_as_a_set(self):
        index = PositionIndex()
        first, second = make_tuple("P", "x", "y"), make_tuple("P", "x", "z")
        index.add(first)
        assert index.bucket("P", 0, Constant("x")) is first
        index.add(second)
        bucket = index.bucket("P", 0, Constant("x"))
        assert type(bucket) is set and bucket_members(bucket) == {first, second}
        index.remove(first)
        assert bucket_members(index.bucket("P", 0, Constant("x"))) == {second}
        index.remove(second)
        assert index.bucket("P", 0, Constant("x")) is None
        assert bucket_members(index.bucket("P", 0, Constant("x"))) == set()

    def test_remove_missing_row_is_noop(self):
        index = PositionIndex()
        index.remove(make_tuple("P", "x", "y"))

    def test_rebuild(self):
        index = PositionIndex()
        rows = [make_tuple("P", "a", "b"), make_tuple("P", "c", "d")]
        index.rebuild(rows)
        assert bucket_members(index.bucket("P", 1, Constant("d"))) == {rows[1]}


class TestOverlayViews:
    def test_overlay_adds_and_hides(self, travel_db):
        added = make_tuple("C", "NYC")
        hidden = make_tuple("C", "Ithaca")
        view = OverlayView(travel_db, added={added}, hidden={hidden})
        cities = set(view.tuples("C"))
        assert added in cities and hidden not in cities
        assert view.contains(added)
        assert not view.contains(hidden)
        assert view.count("C") == 2

    def test_view_without_insert_hides_the_row(self, travel_db):
        row = make_tuple("C", "NYC")
        travel_db.insert(row)
        view = view_without_write(travel_db, insert(row))
        assert not view.contains(row)
        assert travel_db.contains(row)

    def test_view_without_delete_restores_the_row(self, travel_db):
        row = make_tuple("C", "Ithaca")
        travel_db.delete(row)
        view = view_without_write(travel_db, delete(row))
        assert view.contains(row)

    def test_view_without_modify_restores_old_content(self, travel_db):
        old = make_tuple("C", "Ithaca")
        new = make_tuple("C", "Ithaca NY")
        travel_db.delete(old)
        travel_db.insert(new)
        write = modify(old, new, LabeledNull("z"), Constant("v"))
        view = view_without_write(travel_db, write)
        assert view.contains(old)
        assert not view.contains(new)

    def test_indexed_lookups_respect_the_overlay(self, travel_db):
        added = make_tuple("C", "NYC")
        view = OverlayView(travel_db, added={added})
        assert added in set(view.tuples_matching("C", [(0, Constant("NYC"))]))
        null_row = make_tuple("T", "Niagara Falls", LabeledNull("x1"), "Toronto")
        view = OverlayView(travel_db, hidden={null_row})
        assert null_row not in set(view.tuples_containing_null(LabeledNull("x1")))

    def test_multi_column_probe_matches_the_default_on_every_view(self, travel_db):
        hidden = make_tuple("T", "Niagara Falls", LabeledNull("x1"), "Toronto")
        added = make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
        overlay = OverlayView(
            travel_db, added={added, make_tuple("C", "NYC")}, hidden={hidden}
        )
        strangers = (Constant("nowhere"), LabeledNull("x1"))
        for view, ordered in (
            (travel_db, True), (travel_db.snapshot(), False), (overlay, False)
        ):
            rows = [row for name in view.relations() for row in view.tuples(name)]
            for row in rows + [hidden, added]:
                for bound in probes_for(row, strangers):
                    assert_probe_matches_default(view, row.relation, bound, ordered)
        two = [(0, Constant("Niagara Falls")), (2, Constant("Toronto"))]
        assert added in set(overlay.tuples_matching("T", two))
        assert hidden not in set(overlay.tuples_matching("T", two))
        assert hidden in set(travel_db.tuples_matching("T", two))


# ----------------------------------------------------------------------
# Property test: a sequence of random writes keeps store and model in sync.
# ----------------------------------------------------------------------
_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.sampled_from(["P", "Q"]),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
    ),
    max_size=30,
)


@settings(max_examples=50, deadline=None)
@given(_operations)
def test_memory_database_matches_a_python_set_model(operations):
    schema = DatabaseSchema.from_dict({"P": ["a", "b"], "Q": ["a", "b"]})
    database = MemoryDatabase(schema)
    model = {"P": set(), "Q": set()}
    for action, relation, first, second in operations:
        row = make_tuple(relation, first, second)
        if action == "insert":
            database.insert(row)
            model[relation].add(row)
        else:
            database.delete(row)
            model[relation].discard(row)
    for relation in ("P", "Q"):
        assert set(database.tuples(relation)) == model[relation]
        assert database.count(relation) == len(model[relation])
