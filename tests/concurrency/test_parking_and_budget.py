"""Asynchronous frontier parking and budget-exhaustion status.

Covers the suspend/resume machinery the service layer is built on: updates
parking in ``WAITING_FRONTIER`` under a :class:`DeferredOracle` (with no
busy-stepping), resuming with posted answers, cancellation on abort — and the
``BUDGET_EXHAUSTED`` status stamped by both the single-version engine and the
scheduler's stall path.
"""

import pytest

from repro.core import (
    ChaseConfig,
    ChaseEngine,
    DeferredOracle,
    InsertOperation,
    RandomOracle,
    UpdateStatus,
    make_tuple,
)
from repro.core.frontier import UnifyOperation
from repro.core.oracle import AlwaysExpandOracle
from repro.concurrency import OptimisticScheduler, PreciseTracker, SchedulerStalled
from repro.fixtures import genealogy_repository
from repro.storage.versioned import VersionedDatabase


def _genealogy_scheduler(oracle, **kwargs):
    database, mappings = genealogy_repository()
    store = VersionedDatabase(database.schema)
    store.load_initial(database.snapshot())
    return OptimisticScheduler(
        store=store,
        mappings=mappings,
        tracker=PreciseTracker(),
        oracle=oracle,
        **kwargs
    )


def _unify_alternative(decision):
    return [
        alternative
        for alternative in decision.alternatives()
        if isinstance(alternative, UnifyOperation)
    ][0]


class TestParking:
    def test_update_parks_and_takes_no_steps_while_parked(self):
        oracle = DeferredOracle()
        scheduler = _genealogy_scheduler(oracle)
        priority = scheduler.submit(InsertOperation(make_tuple("Person", "John")))
        scheduler.pump()
        execution = scheduler.execution(priority)
        assert execution.is_parked
        assert execution.status is UpdateStatus.WAITING_FRONTIER
        assert not execution.is_active
        assert scheduler.parked_executions() == [execution]
        assert scheduler.is_idle
        assert len(oracle.pending()) == 1
        # Pumping again must do nothing: no busy-stepping while parked.
        steps_before = execution.steps_taken
        assert scheduler.pump() == 0
        assert scheduler.pump() == 0
        assert execution.steps_taken == steps_before
        assert scheduler.statistics.frontier_parks == 1

    def test_resume_continues_to_termination_and_commit(self):
        oracle = DeferredOracle()
        scheduler = _genealogy_scheduler(oracle)
        priority = scheduler.submit(InsertOperation(make_tuple("Person", "John")))
        scheduler.pump()
        decision = oracle.pending()[0]
        oracle.post(decision.decision_id, _unify_alternative(decision))
        scheduler.resume(priority, decision.answer)
        execution = scheduler.execution(priority)
        assert execution.is_active
        scheduler.pump()
        assert execution.is_terminated
        assert scheduler._committed == {priority}
        assert scheduler.commit_watermark() == priority
        final = scheduler.final_database()
        assert set(final.tuples("Person")) == {make_tuple("Person", "John")}
        assert set(final.tuples("Father")) == {make_tuple("Father", "John", "John")}
        assert scheduler.statistics.frontier_resumes == 1

    def test_resume_requires_a_parked_execution(self):
        oracle = DeferredOracle()
        scheduler = _genealogy_scheduler(oracle)
        priority = scheduler.submit(InsertOperation(make_tuple("Person", "John")))
        with pytest.raises(RuntimeError, match="not parked"):
            scheduler.resume(
                priority, UnifyOperation  # type: ignore[arg-type]
            )
        with pytest.raises(KeyError):
            scheduler.resume(42, None)  # type: ignore[arg-type]

    def test_batch_run_raises_on_unanswered_parks(self):
        oracle = DeferredOracle()
        scheduler = _genealogy_scheduler(oracle)
        scheduler.submit(InsertOperation(make_tuple("Person", "John")))
        with pytest.raises(SchedulerStalled, match="parked"):
            scheduler.run()

    def test_abort_of_parked_execution_cancels_its_decision(self):
        oracle = DeferredOracle()
        scheduler = _genealogy_scheduler(oracle)
        priority = scheduler.submit(InsertOperation(make_tuple("Person", "John")))
        scheduler.pump()
        execution = scheduler.execution(priority)
        decision = execution.pending_decision
        execution.abort()
        assert decision.cancelled
        assert oracle.pending() == []
        assert execution.pending_decision is None

    def test_commit_watermark_waits_for_the_lowest_parked_update(self):
        oracle = DeferredOracle()
        scheduler = _genealogy_scheduler(oracle)
        first = scheduler.submit(InsertOperation(make_tuple("Person", "Ada")))
        second = scheduler.submit(InsertOperation(make_tuple("Person", "Bea")))
        scheduler.pump()
        decisions = {d.decision_id: d for d in oracle.pending()}
        assert len(decisions) == 2
        # Answer only the *second* update's question: it terminates but must
        # not commit while the first still waits at the frontier.
        second_decision = oracle.pending()[1]
        oracle.post(second_decision.decision_id, _unify_alternative(second_decision))
        scheduler.resume(second, second_decision.answer)
        scheduler.pump()
        assert scheduler.execution(second).is_terminated
        assert scheduler._committed == set()
        assert scheduler.commit_watermark() == 0
        first_decision = oracle.pending()[0]
        oracle.post(first_decision.decision_id, _unify_alternative(first_decision))
        scheduler.resume(first, first_decision.answer)
        scheduler.pump()
        assert scheduler._committed == {first, second}

    def test_pump_respects_max_steps(self):
        oracle = RandomOracle(seed=0)
        scheduler = _genealogy_scheduler(oracle)
        scheduler.submit(InsertOperation(make_tuple("Person", "John")))
        taken = scheduler.pump(max_steps=1)
        assert taken == 1
        total = taken
        while not scheduler.is_idle:
            total += scheduler.pump(max_steps=1)
        assert scheduler.execution(1).is_terminated
        assert scheduler.statistics.steps == total


class TestBudgetExhausted:
    def test_engine_stamps_budget_exhausted_status(self):
        database, mappings = genealogy_repository()
        engine = ChaseEngine(
            database,
            mappings,
            oracle=AlwaysExpandOracle(),  # never terminates on the cyclic mapping
            config=ChaseConfig(max_steps=5),
        )
        record = engine.run(InsertOperation(make_tuple("Person", "John")))
        assert not record.terminated
        assert record.status is UpdateStatus.BUDGET_EXHAUSTED

    def test_frontier_budget_also_stamps_the_status(self):
        database, mappings = genealogy_repository()
        engine = ChaseEngine(
            database,
            mappings,
            oracle=AlwaysExpandOracle(),
            config=ChaseConfig(max_frontier_operations=2),
        )
        record = engine.run(InsertOperation(make_tuple("Person", "John")))
        assert not record.terminated
        assert record.status is UpdateStatus.BUDGET_EXHAUSTED

    def test_scheduler_stall_stamps_active_executions(self):
        oracle = AlwaysExpandOracle()  # endless expansion: the stall is real
        scheduler = _genealogy_scheduler(oracle, max_total_steps=10)
        priority = scheduler.submit(InsertOperation(make_tuple("Person", "John")))
        with pytest.raises(SchedulerStalled):
            scheduler.run()
        execution = scheduler.execution(priority)
        assert execution.status is UpdateStatus.BUDGET_EXHAUSTED
        assert not execution.is_active

    def test_budget_exhausted_is_not_active(self):
        # The scheduler must not keep stepping a budget-exhausted execution.
        oracle = AlwaysExpandOracle()
        scheduler = _genealogy_scheduler(oracle, max_total_steps=10)
        scheduler.submit(InsertOperation(make_tuple("Person", "John")))
        with pytest.raises(SchedulerStalled):
            scheduler.pump()
        assert scheduler.is_idle
        assert scheduler.pump() == 0
