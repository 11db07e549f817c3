"""Unit tests for repair planning, frontier tuples and frontier operations."""

import pytest

from repro.core.frontier import (
    DeleteSubsetOperation,
    DeterministicRepair,
    ExpandOperation,
    FrontierError,
    NegativeFrontierRequest,
    PositiveFrontierRequest,
    UnifyOperation,
    plan_backward_repair,
    writes_for_operation,
)
from repro.core.planner import RepairPlanner
from repro.core.terms import LabeledNull, NullFactory
from repro.core.tuples import make_tuple
from repro.core.violations import violations_for_write
from repro.core.writes import WriteKind, delete, insert
from repro.fixtures import genealogy_repository


def _lhs_violation_after_insert(database, mappings, row):
    database.insert(row)
    violations = violations_for_write(insert(row), list(mappings), database)
    assert violations, "expected the insert to create a violation"
    return violations[0]


def _rhs_violation_after_delete(database, mappings, row):
    database.delete(row)
    violations = violations_for_write(delete(row), list(mappings), database)
    assert violations, "expected the delete to create a violation"
    return violations[0]


class TestForwardPlanning:
    def test_deterministic_repair_when_no_more_specific_tuple_exists(self, travel):
        database, mappings = travel
        violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
        )
        plan = RepairPlanner(mappings, NullFactory(prefix="f")).plan(violation, database)
        assert isinstance(plan, DeterministicRepair)
        assert len(plan.writes) == 1
        write = plan.writes[0]
        assert write.kind is WriteKind.INSERT
        assert write.row.relation == "R"
        assert write.row.values[0].value == "ABC Tours"
        assert write.row.values[2].is_null

    def test_frontier_when_more_specific_tuple_exists(self):
        database, mappings = genealogy_repository()
        violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("Person", "John")
        )
        plan = RepairPlanner(mappings, NullFactory(prefix="f")).plan(violation, database)
        assert isinstance(plan, PositiveFrontierRequest)
        rows = {frontier.row.relation for frontier in plan.frontier_tuples}
        assert rows == {"Father", "Person"}
        person_frontier = next(
            frontier for frontier in plan.frontier_tuples if frontier.row.relation == "Person"
        )
        assert make_tuple("Person", "John") in person_frontier.candidates

    def test_frontier_tuples_of_one_firing_share_fresh_nulls(self):
        database, mappings = genealogy_repository()
        violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("Person", "John")
        )
        plan = RepairPlanner(mappings, NullFactory(prefix="f")).plan(violation, database)
        all_fresh = set()
        for frontier in plan.frontier_tuples:
            all_fresh.update(frontier.fresh_nulls)
        assert len(all_fresh) == 1
        shared = next(iter(all_fresh))
        father = next(f for f in plan.frontier_tuples if f.row.relation == "Father")
        person = next(f for f in plan.frontier_tuples if f.row.relation == "Person")
        assert father.row.contains_null(shared)
        assert person.row.contains_null(shared)

    def test_plan_returns_none_when_violation_already_repaired(self, travel):
        database, mappings = travel
        violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
        )
        database.insert(make_tuple("R", "ABC Tours", "Niagara Falls", "Fine"))
        assert RepairPlanner(mappings, NullFactory()).plan(violation, database) is None

    def test_recorder_sees_more_specific_queries(self):
        database, mappings = genealogy_repository()
        violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("Person", "John")
        )
        seen = []
        RepairPlanner(mappings, NullFactory(prefix="f")).plan(
            violation, database, recorder=lambda q, a: seen.append(q.kind)
        )
        assert "more-specific" in seen


class TestBackwardPlanning:
    def test_negative_frontier_with_two_candidates(self, travel):
        database, mappings = travel
        violation = _rhs_violation_after_delete(
            database, mappings, make_tuple("R", "XYZ", "Geneva Winery", "Great!")
        )
        plan = plan_backward_repair(violation, database)
        assert isinstance(plan, NegativeFrontierRequest)
        assert set(plan.candidates) == {
            make_tuple("A", "Geneva", "Geneva Winery"),
            make_tuple("T", "Geneva Winery", "XYZ", "Syracuse"),
        }
        assert len(plan.alternatives()) == 2

    def test_deterministic_delete_with_single_witness(self):
        from repro.core import parse_tgds
        from repro.core.schema import DatabaseSchema
        from repro.storage.memory import MemoryDatabase

        schema = DatabaseSchema.from_dict({"A": ["x"], "B": ["x"]})
        database = MemoryDatabase(schema)
        database.insert(make_tuple("A", "v"))
        database.insert(make_tuple("B", "v"))
        mappings = parse_tgds(["A(x) -> B(x)"])
        violation = _rhs_violation_after_delete(database, mappings, make_tuple("B", "v"))
        plan = plan_backward_repair(violation, database)
        assert isinstance(plan, DeterministicRepair)
        assert [write.kind for write in plan.writes] == [WriteKind.DELETE]
        assert plan.writes[0].row == make_tuple("A", "v")

    def test_plan_repair_dispatches_on_kind(self, travel):
        database, mappings = travel
        lhs_violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
        )
        assert isinstance(
            RepairPlanner(mappings, NullFactory()).plan(lhs_violation, database), DeterministicRepair
        )


class TestWritesForOperations:
    def test_expand_inserts_the_frontier_tuple(self):
        database, mappings = genealogy_repository()
        violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("Person", "John")
        )
        plan = RepairPlanner(mappings, NullFactory(prefix="f")).plan(violation, database)
        father = next(f for f in plan.frontier_tuples if f.row.relation == "Father")
        writes = writes_for_operation(ExpandOperation(father), database)
        assert len(writes) == 1
        assert writes[0].kind is WriteKind.INSERT
        assert writes[0].row == father.row

    def test_unify_rewrites_every_occurrence_of_the_nulls(self):
        database, mappings = genealogy_repository()
        violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("Person", "John")
        )
        plan = RepairPlanner(mappings, NullFactory(prefix="f")).plan(violation, database)
        father = next(f for f in plan.frontier_tuples if f.row.relation == "Father")
        person = next(f for f in plan.frontier_tuples if f.row.relation == "Person")
        # Expand the father tuple, then unify the person frontier tuple with
        # Person(John): the shared null inside the stored Father tuple must be
        # rewritten.
        for write in writes_for_operation(ExpandOperation(father), database):
            database.insert(write.row)
        writes = writes_for_operation(
            UnifyOperation(person, make_tuple("Person", "John")), database
        )
        assert len(writes) == 1
        write = writes[0]
        assert write.kind is WriteKind.MODIFY
        assert write.old_row == father.row
        assert write.row == make_tuple("Father", "John", "John")

    def test_unify_with_no_stored_occurrences_produces_no_writes(self):
        database, mappings = genealogy_repository()
        violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("Person", "John")
        )
        plan = RepairPlanner(mappings, NullFactory(prefix="f")).plan(violation, database)
        person = next(f for f in plan.frontier_tuples if f.row.relation == "Person")
        writes = writes_for_operation(
            UnifyOperation(person, make_tuple("Person", "John")), database
        )
        assert writes == []

    def test_delete_subset_produces_deletes(self, travel):
        database, mappings = travel
        violation = _rhs_violation_after_delete(
            database, mappings, make_tuple("R", "XYZ", "Geneva Winery", "Great!")
        )
        plan = plan_backward_repair(violation, database)
        chosen = plan.candidates[0]
        writes = writes_for_operation(DeleteSubsetOperation((chosen,)), database)
        assert [write.kind for write in writes] == [WriteKind.DELETE]
        assert writes[0].row == chosen

    def test_empty_delete_subset_rejected(self):
        with pytest.raises(FrontierError):
            writes_for_operation(DeleteSubsetOperation(()), None)

    def test_alternatives_enumerate_expand_and_unifications(self):
        database, mappings = genealogy_repository()
        violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("Person", "John")
        )
        plan = RepairPlanner(mappings, NullFactory(prefix="f")).plan(violation, database)
        alternatives = plan.alternatives()
        kinds = [type(alternative).__name__ for alternative in alternatives]
        assert kinds.count("ExpandOperation") == len(plan.frontier_tuples)
        assert kinds.count("UnifyOperation") == sum(
            len(frontier.candidates) for frontier in plan.frontier_tuples
        )


class TestIndexOf:
    """``index_of`` is ``alternatives().index`` without building the list."""

    def test_positive_request_positions(self):
        database, mappings = genealogy_repository()
        violation = _lhs_violation_after_insert(
            database, mappings, make_tuple("Person", "John")
        )
        request = RepairPlanner(mappings, NullFactory(prefix="f")).plan(violation, database)
        alternatives = request.alternatives()
        assert any(isinstance(option, UnifyOperation) for option in alternatives)
        for position, option in enumerate(alternatives):
            assert request.index_of(option) == position

    def test_negative_request_positions(self, travel):
        database, mappings = travel
        violation = _rhs_violation_after_delete(
            database, mappings, make_tuple("R", "XYZ", "Geneva Winery", "Great!")
        )
        request = plan_backward_repair(violation, database)
        assert isinstance(request, NegativeFrontierRequest)
        for position, option in enumerate(request.alternatives()):
            assert request.index_of(option) == position

    def test_operations_that_are_not_alternatives_have_no_index(self, travel):
        database, mappings = travel
        violation = _rhs_violation_after_delete(
            database, mappings, make_tuple("R", "XYZ", "Geneva Winery", "Great!")
        )
        request = plan_backward_repair(violation, database)
        # A legal answer (any non-empty subset) that is not on the menu.
        assert request.index_of(DeleteSubsetOperation(request.candidates)) is None
        stranger = make_tuple("R", "nobody", "nowhere", "n/a")
        assert request.index_of(DeleteSubsetOperation((stranger,))) is None
        assert request.index_of(ExpandOperation(None)) is None
