"""The paper's Example 3.1: interference between u1 and u2, prevented by aborts."""

import pytest

from oracles.serial_orders import final_state_matches_some_serial_order
from repro.concurrency import (
    CoarseTracker,
    NaiveTracker,
    PreciseTracker,
    SerialExecutor,
    databases_isomorphic,
    run_concurrent_updates,
)
from repro.core import DeleteOperation, InsertOperation, ScriptedOracle, satisfies_all
from repro.core.frontier import DeleteSubsetOperation, NegativeFrontierRequest
from repro.core.tuples import make_tuple
from repro.fixtures import travel_database, travel_mappings
from repro.storage.memory import FrozenDatabase, MemoryDatabase


def delete_the_tour(request, view):
    """The frontier decision of step 4 in Example 3.1: delete the tour tuple."""
    assert isinstance(request, NegativeFrontierRequest)
    for candidate in request.candidates:
        if candidate.relation == "T":
            return DeleteSubsetOperation((candidate,))
    return DeleteSubsetOperation((request.candidates[0],))


@pytest.fixture
def scenario():
    database = travel_database()
    mappings = travel_mappings()
    u1 = DeleteOperation(make_tuple("R", "XYZ", "Geneva Winery", "Great!"))
    u2 = InsertOperation(make_tuple("V", "Syracuse", "Math Conf"))
    return database.snapshot(), mappings, u1, u2


class TestSerialReference:
    def test_serial_u1_then_u2_produces_no_stale_excursion(self, scenario):
        initial, mappings, u1, u2 = scenario
        serial = SerialExecutor(initial, mappings, oracle_factory=lambda: ScriptedOracle([delete_the_tour]))
        final = serial.run([u1, u2])
        # The tour is gone, so the new conference gets no Geneva Winery excursion.
        assert not final.contains(make_tuple("E", "Math Conf", "Geneva Winery"))
        assert not final.contains(make_tuple("T", "Geneva Winery", "XYZ", "Syracuse"))

    def test_serial_u2_then_u1_differs(self, scenario):
        initial, mappings, u1, u2 = scenario
        serial = SerialExecutor(initial, mappings, oracle_factory=lambda: ScriptedOracle([delete_the_tour]))
        final = serial.run([u2, u1])
        # In this order the excursion idea is created before the tour disappears,
        # and nothing forces its removal (E is only on a mapping RHS).
        assert final.contains(make_tuple("E", "Math Conf", "Geneva Winery"))


class TestConcurrentExecution:
    @pytest.mark.parametrize(
        "tracker_factory", [NaiveTracker, CoarseTracker, PreciseTracker]
    )
    def test_interference_is_resolved_by_aborting_u2(self, scenario, tracker_factory):
        initial, mappings, u1, u2 = scenario
        oracle = ScriptedOracle([delete_the_tour] * 3)
        scheduler = run_concurrent_updates(
            initial, mappings, [u1, u2], tracker=tracker_factory(), oracle=oracle
        )
        statistics = scheduler.statistics
        final = scheduler.final_database()
        # u2's premature read of the tours table is detected: exactly one abort.
        assert statistics.aborts == 1
        assert statistics.updates_executed == 3
        # The final state is the serial u1 -> u2 state: no stale excursion idea.
        assert not final.contains(make_tuple("E", "Math Conf", "Geneva Winery"))
        assert satisfies_all(mappings, final)

    def test_final_state_is_serializable(self, scenario):
        initial, mappings, u1, u2 = scenario
        oracle = ScriptedOracle([delete_the_tour] * 3)
        scheduler = run_concurrent_updates(
            initial, mappings, [u1, u2], tracker=PreciseTracker(), oracle=oracle
        )
        assert final_state_matches_some_serial_order(
            initial,
            mappings,
            [u1, u2],
            scheduler.final_database(),
            oracle_factory=lambda: ScriptedOracle([delete_the_tour]),
        )

    def test_unsafe_interleaving_without_concurrency_control_is_not_serializable(self, scenario):
        """Reconstruct the bad schedule of Example 3.1 by hand and check it."""
        initial, mappings, u1, u2 = scenario
        from repro.storage.memory import MemoryDatabase

        database = MemoryDatabase(initial.schema)
        database.load_from(initial)
        # Steps 1-4 of Example 3.1, without any concurrency control:
        database.delete(make_tuple("R", "XYZ", "Geneva Winery", "Great!"))        # u1 step 1
        database.insert(make_tuple("V", "Syracuse", "Math Conf"))                  # u2 step 2
        database.insert(make_tuple("E", "Math Conf", "Geneva Winery"))             # u2 step 3
        database.delete(make_tuple("T", "Geneva Winery", "XYZ", "Syracuse"))       # u1 frontier op
        observed = database.snapshot()
        # The interleaving is not serializable with respect to the priority
        # order u1 < u2 (the order Definition 3.4 is enforced against): the
        # stale excursion idea survives even though the tour is gone.
        serial = SerialExecutor(
            initial, mappings, oracle_factory=lambda: ScriptedOracle([delete_the_tour])
        )
        reference = serial.run([u1, u2])
        assert not databases_isomorphic(observed, reference)
        # (It does coincide with the other serial order, u2 -> u1, which is why
        # the paper pins serializability to the update numbering.)
        assert final_state_matches_some_serial_order(
            initial,
            mappings,
            [u1, u2],
            observed,
            oracle_factory=lambda: ScriptedOracle([delete_the_tour]),
        )


class TestIsomorphismChecker:
    def test_isomorphic_up_to_null_renaming(self, travel_db):
        from repro.core.terms import LabeledNull
        from repro.core.tuples import Tuple

        first = travel_db.snapshot()
        renaming = {LabeledNull("x1"): LabeledNull("y1")}
        renamed = FrozenDatabase(first.schema, {
            relation: frozenset(row.substitute(renaming) for row in first.tuples(relation))
            for relation in first.relations()
        })
        assert databases_isomorphic(first, renamed)

    def test_not_isomorphic_when_contents_differ(self, travel_db):
        first = travel_db.snapshot()
        other = MemoryDatabase(first.schema)
        other.load_from(first)
        other.insert(make_tuple("C", "NYC"))
        assert not databases_isomorphic(first, other.snapshot())

    def test_null_renaming_must_be_injective(self):
        from repro.core.schema import DatabaseSchema
        from repro.core.terms import LabeledNull
        from repro.core.tuples import Tuple

        schema = DatabaseSchema.from_dict({"P": ["a", "b"]})
        first = MemoryDatabase(schema)
        first.insert(Tuple("P", [LabeledNull("a1"), LabeledNull("a2")]))
        second = MemoryDatabase(schema)
        second.insert(Tuple("P", [LabeledNull("b1"), LabeledNull("b1")]))
        assert not databases_isomorphic(first, second)
        assert not databases_isomorphic(second, first)
