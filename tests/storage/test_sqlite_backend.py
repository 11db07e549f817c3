"""Tests for the SQLite backend as a full MutableDatabase and chase substrate."""

import pytest

from oracles.probe import assert_probe_matches_default, probes_for
from oracles.sqlite_backend import SQLiteDatabase
from repro.core import ChaseEngine, DeleteOperation, InsertOperation, ScriptedOracle, satisfies_all
from repro.core.frontier import DeleteSubsetOperation, NegativeFrontierRequest
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import make_tuple
from repro.fixtures import travel_mappings, travel_schema, travel_tuples


@pytest.fixture
def sqlite_travel():
    database = SQLiteDatabase(travel_schema())
    for row in travel_tuples():
        database.insert(row)
    yield database
    database.close()


class TestMutableDatabaseConformance:
    def test_insert_contains_delete(self, sqlite_travel):
        row = make_tuple("C", "NYC")
        assert sqlite_travel.insert(row)
        assert not sqlite_travel.insert(row)
        assert sqlite_travel.contains(row)
        assert sqlite_travel.delete(row)
        assert not sqlite_travel.delete(row)
        assert not sqlite_travel.contains(row)

    def test_counts_and_iteration(self, sqlite_travel):
        assert sqlite_travel.count("C") == 2
        assert set(sqlite_travel.tuples("C")) == {
            make_tuple("C", "Ithaca"),
            make_tuple("C", "Syracuse"),
        }

    def test_indexed_lookup(self, sqlite_travel):
        found = set(sqlite_travel.tuples_matching("C", [(0, Constant("Ithaca"))]))
        assert found == {make_tuple("C", "Ithaca")}

    def test_multi_column_probe_matches_the_default(self, sqlite_travel):
        strangers = (Constant("nowhere"), LabeledNull("x1"))
        for row in travel_tuples():
            for bound in probes_for(row, strangers):
                assert_probe_matches_default(sqlite_travel, row.relation, bound)

    def test_replace_null(self, sqlite_travel):
        modified = sqlite_travel.replace_null(LabeledNull("x1"), Constant("ABC Tours"))
        assert make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto") in modified
        assert sqlite_travel.contains(
            make_tuple("R", "ABC Tours", "Niagara Falls", LabeledNull("x2"))
        )
        assert not any(
            row.contains_null(LabeledNull("x1"))
            for relation in sqlite_travel.relations()
            for row in sqlite_travel.tuples(relation)
        )

    def test_snapshot(self, sqlite_travel):
        snapshot = sqlite_travel.snapshot()
        sqlite_travel.delete(make_tuple("C", "Ithaca"))
        assert snapshot.contains(make_tuple("C", "Ithaca"))

    def test_schema_validation(self, sqlite_travel):
        from repro.core.schema import SchemaError

        with pytest.raises(SchemaError):
            sqlite_travel.insert(make_tuple("Nope", "x"))
        with pytest.raises(SchemaError):
            list(sqlite_travel.tuples("Nope"))


class TestChaseOnSQLite:
    """The chase engine runs unchanged on the SQLite backend."""

    def test_example_1_1_on_sqlite(self, sqlite_travel):
        mappings = travel_mappings()
        engine = ChaseEngine(sqlite_travel, mappings)
        record = engine.run(
            InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto"))
        )
        assert record.terminated
        assert satisfies_all(mappings, sqlite_travel)
        generated = [
            row
            for row in sqlite_travel.tuples("R")
            if row.values[0] == Constant("ABC Tours")
        ]
        assert len(generated) == 1
        assert generated[0].values[2].is_null

    def test_backward_chase_on_sqlite(self, sqlite_travel):
        mappings = travel_mappings()

        def choose_tour(request, view):
            assert isinstance(request, NegativeFrontierRequest)
            for candidate in request.candidates:
                if candidate.relation == "T":
                    return DeleteSubsetOperation((candidate,))
            return DeleteSubsetOperation((request.candidates[0],))

        engine = ChaseEngine(sqlite_travel, mappings, oracle=ScriptedOracle([choose_tour]))
        record = engine.run(
            DeleteOperation(make_tuple("R", "XYZ", "Geneva Winery", "Great!"))
        )
        assert record.terminated
        assert not sqlite_travel.contains(make_tuple("T", "Geneva Winery", "XYZ", "Syracuse"))
        assert satisfies_all(mappings, sqlite_travel)
