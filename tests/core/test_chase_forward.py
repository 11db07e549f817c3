"""Forward-chase tests: Example 1.1, the JFK/NYC cycle of Section 2.2, null replacement."""

import pytest

from repro.core import (
    AlwaysUnifyOracle,
    ChaseConfig,
    ChaseEngine,
    InsertOperation,
    NullReplacementOperation,
    RandomOracle,
    ScriptedOracle,
    satisfies_all,
)
from repro.core.frontier import PositiveFrontierRequest, UnifyOperation
from repro.core.terms import LabeledNull
from repro.core.tuples import make_tuple
from repro.core.update import UpdateStatus


class TestExample11:
    """Example 1.1: a new tour generates a review tuple with a labeled null."""

    def test_new_tour_generates_review_with_fresh_null(self, travel_engine):
        engine = travel_engine
        record = engine.run(
            InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto"))
        )
        assert record.terminated
        assert record.status is UpdateStatus.TERMINATED
        assert record.frontier_operation_count == 0
        reviews = list(engine.database.tuples("R"))
        generated = [
            row
            for row in reviews
            if row.values[0] == make_tuple("R", "ABC Tours", "x", "y").values[0]
            and row.values[1] == make_tuple("R", "x", "Niagara Falls", "y").values[1]
        ]
        assert len(generated) == 1
        assert generated[0].values[2].is_null
        # Figure 2 already uses x1 and x2, so the fresh review null is x3.
        assert generated[0].values[2] == LabeledNull("x3")

    def test_database_satisfies_mappings_after_chase(self, travel_engine):
        engine = travel_engine
        engine.run(InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")))
        assert satisfies_all(engine.mappings, engine.database)

    def test_update_record_counts_writes(self, travel_engine):
        record = travel_engine.run(
            InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto"))
        )
        # The initial insert plus the generated review tuple.
        assert record.write_count == 2

    def test_inserting_existing_tuple_is_a_noop(self, travel_engine):
        record = travel_engine.run(InsertOperation(make_tuple("C", "Ithaca")))
        assert record.terminated
        assert record.write_count == 0


class TestCycleOfSection22:
    """Inserting S(JFK, NYC, Ithaca) would loop forever under the standard chase."""

    def test_chase_stops_at_frontier_instead_of_looping(self, travel):
        database, mappings = travel
        decisions = []

        def unify_city(request, view):
            assert isinstance(request, PositiveFrontierRequest)
            for frontier_tuple in request.frontier_tuples:
                if frontier_tuple.candidates:
                    decisions.append(frontier_tuple.row)
                    return UnifyOperation(frontier_tuple, frontier_tuple.candidates[0])
            raise AssertionError("expected a unification candidate")

        engine = ChaseEngine(database, mappings, oracle=ScriptedOracle([unify_city] * 3))
        record = engine.run(InsertOperation(make_tuple("S", "JFK", "NYC", "Ithaca")))
        assert record.terminated
        assert satisfies_all(mappings, database)
        # The deterministic stratum inserted C(NYC) and a suggested airport for
        # NYC before stopping: exactly the paper's narrative.
        assert database.contains(make_tuple("C", "NYC"))
        assert record.frontier_operation_count >= 1
        # The ambiguous tuple was a city tuple whose value was a labeled null.
        assert decisions and decisions[0].relation == "C"
        assert decisions[0].values[0].is_null

    def test_random_oracle_always_terminates_on_cyclic_mappings(self, travel):
        database, mappings = travel
        engine = ChaseEngine(
            database,
            mappings,
            oracle=RandomOracle(seed=5),
            config=ChaseConfig(max_steps=500, max_frontier_operations=500),
        )
        record = engine.run(InsertOperation(make_tuple("S", "JFK", "NYC", "Ithaca")))
        assert record.terminated
        assert satisfies_all(mappings, database)


class TestNullReplacement:
    def test_replacement_applies_to_every_occurrence(self, travel_engine):
        engine = travel_engine
        record = engine.run(NullReplacementOperation(LabeledNull("x1"), "ABC Tours"))
        assert record.terminated
        database = engine.database
        assert database.contains(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto"))
        assert database.contains(
            make_tuple("R", "ABC Tours", "Niagara Falls", LabeledNull("x2"))
        )
        assert not any(
            row.contains_null(LabeledNull("x1"))
            for relation in database.relations()
            for row in database.tuples(relation)
        )

    def test_replacement_cannot_violate_sigma3(self, travel_engine):
        engine = travel_engine
        engine.run(NullReplacementOperation(LabeledNull("x1"), "ABC Tours"))
        assert satisfies_all(engine.mappings, engine.database)

    def test_replacing_unknown_null_is_a_noop(self, travel_engine):
        record = travel_engine.run(NullReplacementOperation(LabeledNull("zz"), "value"))
        assert record.terminated
        assert record.write_count == 0


class TestBudgets:
    def test_step_budget_stops_runaway_chase(self, genealogy):
        from repro.core import AlwaysExpandOracle

        database, mappings = genealogy
        engine = ChaseEngine(
            database,
            mappings,
            oracle=AlwaysExpandOracle(),
            config=ChaseConfig(max_frontier_operations=3),
        )
        record = engine.run(InsertOperation(make_tuple("Person", "John")))
        assert not record.terminated
        assert record.frontier_operation_count == 3

    def test_budget_can_raise(self, genealogy):
        from repro.core import AlwaysExpandOracle
        from repro.core.chase import ChaseBudgetExceeded

        database, mappings = genealogy
        engine = ChaseEngine(
            database,
            mappings,
            oracle=AlwaysExpandOracle(),
            config=ChaseConfig(max_frontier_operations=2, raise_on_budget=True),
        )
        with pytest.raises(ChaseBudgetExceeded):
            engine.run(InsertOperation(make_tuple("Person", "John")))


class TestProvenance:
    def test_provenance_tree_records_chain_of_causes(self, travel_engine):
        engine = travel_engine
        engine.run(InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")))
        tree = engine.last_provenance
        assert tree is not None
        text = tree.to_text()
        assert "insert T(Niagara Falls, ABC Tours, Toronto)" in text
        assert "sigma3" in text
        assert "insert R(ABC Tours, Niagara Falls" in text

    def test_provenance_can_be_disabled(self, travel):
        database, mappings = travel
        engine = ChaseEngine(
            database,
            mappings,
            oracle=AlwaysUnifyOracle(),
            config=ChaseConfig(track_provenance=False),
        )
        engine.run(InsertOperation(make_tuple("C", "Corning")))
        assert engine.last_provenance is None
