"""Backward-chase tests: Example 2.3 and cascading deletions."""

import pytest

from repro.core import (
    ChaseConfig,
    ChaseEngine,
    DeleteOperation,
    InsertOperation,
    ScriptedOracle,
    parse_tgds,
    satisfies_all,
)
from repro.core.frontier import DeleteSubsetOperation, NegativeFrontierRequest
from repro.core.schema import DatabaseSchema
from repro.core.tuples import make_tuple
from repro.storage.memory import MemoryDatabase


def choose(relation_name):
    """A scripted negative-frontier decision targeting a given relation."""

    def decide(request, view):
        assert isinstance(request, NegativeFrontierRequest)
        for candidate in request.candidates:
            if candidate.relation == relation_name:
                return DeleteSubsetOperation((candidate,))
        return DeleteSubsetOperation((request.candidates[0],))

    return decide


class TestExample23:
    """Deleting the Geneva Winery review forces a choice between A and T."""

    def test_user_chooses_to_delete_the_tour(self, travel):
        database, mappings = travel
        engine = ChaseEngine(database, mappings, oracle=ScriptedOracle([choose("T")]))
        record = engine.run(
            DeleteOperation(make_tuple("R", "XYZ", "Geneva Winery", "Great!"))
        )
        assert record.terminated
        assert not database.contains(make_tuple("T", "Geneva Winery", "XYZ", "Syracuse"))
        assert database.contains(make_tuple("A", "Geneva", "Geneva Winery"))
        assert satisfies_all(mappings, database)

    def test_user_chooses_to_delete_the_attraction(self, travel):
        database, mappings = travel
        engine = ChaseEngine(database, mappings, oracle=ScriptedOracle([choose("A")]))
        record = engine.run(
            DeleteOperation(make_tuple("R", "XYZ", "Geneva Winery", "Great!"))
        )
        assert record.terminated
        assert database.contains(make_tuple("T", "Geneva Winery", "XYZ", "Syracuse"))
        assert not database.contains(make_tuple("A", "Geneva", "Geneva Winery"))
        assert satisfies_all(mappings, database)

    def test_exactly_one_frontier_operation_needed(self, travel):
        database, mappings = travel
        engine = ChaseEngine(database, mappings, oracle=ScriptedOracle([choose("T")]))
        record = engine.run(
            DeleteOperation(make_tuple("R", "XYZ", "Geneva Winery", "Great!"))
        )
        assert record.frontier_operation_count == 1

    def test_deleting_a_tuple_nobody_depends_on_is_quiet(self, travel):
        database, mappings = travel
        engine = ChaseEngine(database, mappings)
        record = engine.run(
            DeleteOperation(make_tuple("E", "Science Conf", "Geneva Winery"))
        )
        assert record.terminated
        # E only occurs on the RHS of sigma4, whose LHS still matches, so a
        # violation does appear and must be repaired backward; the witness is
        # the V/T pair.
        assert record.frontier_operation_count <= 1
        assert satisfies_all(mappings, database)

    def test_deleting_missing_tuple_is_noop(self, travel):
        database, mappings = travel
        engine = ChaseEngine(database, mappings)
        record = engine.run(DeleteOperation(make_tuple("R", "nobody", "nothing", "n/a")))
        assert record.terminated
        assert record.write_count == 0


class TestCascadingDeletes:
    def _chain_repository(self):
        schema = DatabaseSchema.from_dict({"A": ["x"], "B": ["x"], "C": ["x"]})
        database = MemoryDatabase(schema)
        mappings = parse_tgds(["A(x) -> B(x)", "B(x) -> C(x)"])
        for relation in ("A", "B", "C"):
            database.insert(make_tuple(relation, "v"))
        return database, mappings

    def test_deletion_cascades_backward_through_the_chain(self):
        database, mappings = self._chain_repository()
        engine = ChaseEngine(database, mappings)
        record = engine.run(DeleteOperation(make_tuple("C", "v")))
        assert record.terminated
        # Deleting C(v) violates B(x) -> C(x); the only witness is B(v), which
        # is deleted deterministically; that in turn forces A(v) out.
        assert database.count("A") == 0
        assert database.count("B") == 0
        assert database.count("C") == 0
        assert satisfies_all(mappings, database)

    def test_deleting_the_middle_only_cascades_upstream(self):
        database, mappings = self._chain_repository()
        engine = ChaseEngine(database, mappings)
        engine.run(DeleteOperation(make_tuple("B", "v")))
        # A must go (its RHS match vanished); C stays (nothing requires its removal).
        assert database.count("A") == 0
        assert database.count("C") == 1
        assert satisfies_all(mappings, database)

    def test_backward_chase_always_terminates(self):
        # The backward chase can never delete more tuples than exist.
        database, mappings = self._chain_repository()
        engine = ChaseEngine(
            database, mappings, config=ChaseConfig(max_steps=50, raise_on_budget=True)
        )
        record = engine.run(DeleteOperation(make_tuple("C", "v")))
        assert record.terminated
