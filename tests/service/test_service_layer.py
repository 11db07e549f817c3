"""Tests for the update-exchange service: sessions, admission, inbox, reads."""

import gc
import random
import weakref

import pytest

from drivers import run_until_blocked
from repro.core import InsertOperation, OracleError, make_tuple
from repro.core.frontier import UnifyOperation
from repro.fixtures import genealogy_repository, travel_repository
from repro.service import (
    AdmissionConfig,
    AdmissionError,
    RepositoryService,
    SessionError,
    ServiceError,
    TicketStatus,
)
from repro.workload import ExperimentConfig, build_environment
from repro.workload.closed_loop import conservative_answer
from repro.workload.workloads import mixed_workload


@pytest.fixture
def genealogy_service():
    database, mappings = genealogy_repository()
    return RepositoryService(database.snapshot(), mappings, tracker="PRECISE")


@pytest.fixture
def travel_service():
    database, mappings = travel_repository()
    return RepositoryService(database.snapshot(), mappings, tracker="PRECISE")


def _person_insert(name):
    return InsertOperation(make_tuple("Person", name))


def _unify(question):
    return [
        alternative
        for alternative in question.alternatives()
        if isinstance(alternative, UnifyOperation)
    ][0]


class TestSessions:
    def test_open_and_describe(self, genealogy_service):
        session = genealogy_service.open_session("ada")
        assert session.session_id == 1
        assert genealogy_service.session(1) is session
        assert "ada" in session.describe()

    def test_unknown_and_closed_sessions_are_rejected(self, genealogy_service):
        with pytest.raises(SessionError):
            genealogy_service.session(7)
        session = genealogy_service.open_session("ada")
        session.closed = True
        with pytest.raises(SessionError):
            genealogy_service.submit(session.session_id, _person_insert("Ada"))

    def test_sessions_are_listed_in_order(self, genealogy_service):
        names = ["a", "b", "c"]
        for name in names:
            genealogy_service.open_session(name)
        assert [s.name for s in genealogy_service.sessions()] == names


class TestSubmissionAndAdmission:
    def test_submit_queues_then_pump_admits(self, genealogy_service):
        session = genealogy_service.open_session("ada")
        ticket = genealogy_service.submit(session.session_id, _person_insert("Ada"))
        assert ticket.status is TicketStatus.QUEUED
        assert genealogy_service._queue.depth == 1
        report = genealogy_service.pump()
        assert ticket in report.admitted
        assert ticket.priority == 1
        assert genealogy_service._queue.depth == 0

    def test_admission_respects_max_in_flight(self):
        database, mappings = genealogy_repository()
        service = RepositoryService(
            database.snapshot(),
            mappings,
            admission=AdmissionConfig(max_in_flight=2, batch_size=2),
        )
        session = service.open_session("ada")
        tickets = [
            service.submit(session.session_id, _person_insert("P{}".format(i)))
            for i in range(5)
        ]
        service.pump()
        # Two admitted (and immediately parked on the cyclic mapping); the
        # other three must wait although the scheduler is idle.
        statuses = [ticket.status for ticket in tickets]
        assert statuses.count(TicketStatus.WAITING_FRONTIER) == 2
        assert statuses.count(TicketStatus.QUEUED) == 3
        assert service._queue.depth == 3
        # Parked updates hold their slots: more pumping admits nothing.
        assert service.pump().admitted == []
        # Answering one question lets that update commit; the freed slot is
        # handed out at the start of the following pump.
        question = service.inbox()[0]
        service.answer(session.session_id, question.decision_id, _unify(question))
        report = service.pump()
        assert len(report.committed) == 1
        report = service.pump()
        assert len(report.admitted) == 1

    def test_queue_overflow_raises_and_discards(self):
        database, mappings = genealogy_repository()
        service = RepositoryService(
            database.snapshot(),
            mappings,
            admission=AdmissionConfig(max_queue_depth=1),
        )
        session = service.open_session("ada")
        service.submit(session.session_id, _person_insert("A"))
        with pytest.raises(AdmissionError):
            service.submit(session.session_id, _person_insert("B"))
        # The rejected operation left no trace.
        assert session.submitted == 1
        assert len(service.tickets()) == 1

    def test_unknown_ticket_is_a_service_error(self, genealogy_service):
        with pytest.raises(ServiceError):
            genealogy_service.ticket(9)


class TestFrontierInbox:
    def test_park_answer_resume_commit(self, genealogy_service):
        ada = genealogy_service.open_session("ada")
        bo = genealogy_service.open_session("bo")
        ticket = genealogy_service.submit(ada.session_id, _person_insert("Ada"))
        report = genealogy_service.pump()
        assert len(report.parked) == 1
        assert ticket.status is TicketStatus.WAITING_FRONTIER
        assert ticket.parks == 1
        question = genealogy_service.inbox()[0]
        assert question.ticket is ticket
        # A *different* session answers — collaboration across clients.
        genealogy_service.answer(bo.session_id, question.decision_id, _unify(question))
        assert ticket.status is TicketStatus.RUNNING
        assert bo.frontier_answers == 1
        report = genealogy_service.pump()
        assert ticket in report.committed
        assert ticket.status is TicketStatus.COMMITTED
        assert ticket.frontier_wait_seconds > 0
        assert genealogy_service.is_quiescent

    def test_duplicate_answer_is_rejected(self, genealogy_service):
        ada = genealogy_service.open_session("ada")
        genealogy_service.submit(ada.session_id, _person_insert("Ada"))
        genealogy_service.pump()
        question = genealogy_service.inbox()[0]
        genealogy_service.answer(ada.session_id, question.decision_id, _unify(question))
        with pytest.raises(OracleError):
            genealogy_service.answer(ada.session_id, question.decision_id, 0)

    def test_answer_by_index(self, genealogy_service):
        ada = genealogy_service.open_session("ada")
        ticket = genealogy_service.submit(ada.session_id, _person_insert("Ada"))
        genealogy_service.pump()
        question = genealogy_service.inbox()[0]
        unify_index = question.alternatives().index(_unify(question))
        genealogy_service.answer(ada.session_id, question.decision_id, unify_index)
        genealogy_service.pump()
        assert ticket.status is TicketStatus.COMMITTED

    def test_no_busy_stepping_while_parked(self, genealogy_service):
        ada = genealogy_service.open_session("ada")
        ticket = genealogy_service.submit(ada.session_id, _person_insert("Ada"))
        genealogy_service.pump()
        execution = genealogy_service.scheduler.execution(ticket.priority)
        steps_before = execution.steps_taken
        for _ in range(5):
            assert genealogy_service.pump().steps == 0
        assert execution.steps_taken == steps_before


class TestSnapshotReads:
    def test_reads_see_only_committed_state(self, genealogy_service):
        ada = genealogy_service.open_session("ada")
        ticket = genealogy_service.submit(ada.session_id, _person_insert("Ada"))
        genealogy_service.pump()
        # The insert happened in the store, but the update is parked: the
        # committed snapshot must not show it.
        assert ticket.status is TicketStatus.WAITING_FRONTIER
        assert genealogy_service.read("Person") == []
        assert genealogy_service.count("Person") == 0
        question = genealogy_service.inbox()[0]
        genealogy_service.answer(ada.session_id, question.decision_id, _unify(question))
        genealogy_service.pump()
        assert genealogy_service.read("Person") == [make_tuple("Person", "Ada")]
        snapshot = genealogy_service.snapshot()
        assert snapshot.count("Father") == 1

    def test_travel_updates_commit_without_parking(self, travel_service):
        # Deterministic repairs never consult the oracle, so nothing parks.
        session = travel_service.open_session("ada")
        ticket = travel_service.submit(
            session.session_id,
            InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")),
        )
        run_until_blocked(travel_service)
        assert ticket.status is TicketStatus.COMMITTED
        assert travel_service.metrics.parks == 0
        assert travel_service.count("R") > 0


class TestMetricsAndRunUntilBlocked:
    def test_metrics_snapshot_contains_service_and_scheduler_keys(self, genealogy_service):
        ada = genealogy_service.open_session("ada")
        genealogy_service.submit(ada.session_id, _person_insert("Ada"))
        genealogy_service.pump()
        question = genealogy_service.inbox()[0]
        genealogy_service.answer(ada.session_id, question.decision_id, _unify(question))
        genealogy_service.pump()
        data = genealogy_service.metrics_snapshot()
        assert data["committed"] == 1
        assert data["parks"] == 1
        assert data["resumes"] == 1
        assert data["throughput_per_second"] > 0
        assert data["frontier_wait_p50_seconds"] > 0
        assert data["scheduler_steps"] >= 3
        assert data["scheduler_frontier_parks"] == 1

    def test_run_until_blocked_stops_at_open_questions(self, genealogy_service):
        ada = genealogy_service.open_session("ada")
        genealogy_service.submit(ada.session_id, _person_insert("Ada"))
        reports = run_until_blocked(genealogy_service)
        assert reports, "at least one pump happened"
        assert len(genealogy_service.inbox()) == 1
        assert not genealogy_service.is_quiescent

    def test_committed_executions_are_pruned_from_the_scheduler(self, travel_service):
        # A long-running service must not scan everything ever served on each
        # pump: committed executions are dropped, statistics still complete.
        session = travel_service.open_session("ada")
        for serial in range(3):
            travel_service.submit(
                session.session_id,
                InsertOperation(make_tuple("T", "Falls", "Tours-{}".format(serial), "Kingston")),
            )
        run_until_blocked(travel_service)
        assert session.committed == 3
        assert travel_service.scheduler.executions() == []
        assert travel_service.statistics.updates_terminated == 3
        assert len(travel_service.scheduler._committed) == 3

    def test_run_until_blocked_drains_deterministic_work(self, travel_service):
        session = travel_service.open_session("ada")
        for city in ("Toronto", "Ottawa"):
            travel_service.submit(
                session.session_id,
                InsertOperation(make_tuple("T", "Falls", "Tours-" + city, city)),
            )
        run_until_blocked(travel_service)
        assert travel_service.is_quiescent
        assert session.committed == 2


class TestSchedulerStall:
    def test_budget_stall_fails_tickets_and_frees_slots(self):
        from repro.concurrency import SchedulerStalled

        database, mappings = genealogy_repository()
        service = RepositoryService(
            database.snapshot(),
            mappings,
            admission=AdmissionConfig(max_in_flight=1),
            max_total_steps=2,
        )
        session = service.open_session("ada")
        ticket = service.submit(session.session_id, _person_insert("Ada"))
        service.pump()  # parks within the budget
        question = service.inbox()[0]
        service.answer(session.session_id, question.decision_id, 0)  # expand: more work
        with pytest.raises(SchedulerStalled):
            service.pump()
        # The stall must reach the ticket layer: FAILED, slot released,
        # failure counted — no zombie blocking admission forever.
        assert ticket.status is TicketStatus.FAILED
        assert ticket.is_done
        assert service.metrics.failed == 1
        assert service._in_flight_count() == 0
        follow_up = service.submit(session.session_id, _person_insert("Bea"))
        with pytest.raises(SchedulerStalled):
            # The lifetime budget is spent, but admission itself still works.
            service.pump()
        assert follow_up.priority is not None

    def test_tickets_parked_at_stall_are_failed_with_their_questions(self):
        from repro.concurrency import SchedulerStalled

        database, mappings = genealogy_repository()
        service = RepositoryService(
            database.snapshot(),
            mappings,
            admission=AdmissionConfig(max_in_flight=2, batch_size=2),
            max_total_steps=3,
        )
        session = service.open_session("ada")
        first = service.submit(session.session_id, _person_insert("Ada"))
        second = service.submit(session.session_id, _person_insert("Bea"))
        service.pump()  # both park (2 steps spent)
        assert first.is_parked and second.is_parked
        question = service.inbox()[0]
        service.answer(session.session_id, question.decision_id, 0)  # expand
        with pytest.raises(SchedulerStalled):
            service.pump()
        # Both the resumed and the still-parked ticket must fail: slots
        # freed, no ghost questions left in the inbox.
        assert first.status is TicketStatus.FAILED
        assert second.status is TicketStatus.FAILED
        assert service.inbox() == []
        assert service._in_flight_count() == 0
        assert service.metrics.failed == 2


def test_serve_cli_runs_a_small_closed_loop(capsys):
    from repro.service.cli import main

    assert main(["--clients", "2", "--updates", "1", "--answer-delay", "1"]) == 0
    output = capsys.readouterr().out
    assert "Closed-loop run over" in output
    assert "Service metrics" in output
    assert "1 submitted, 1 committed" in output


def test_serve_cli_snapshot_and_restore(tmp_path, capsys):
    from repro.service.cli import main

    path = str(tmp_path / "serve.ckpt")
    assert main([
        "--clients", "2", "--updates", "1", "--answer-delay", "1",
        "--snapshot-path", path,
    ]) == 0
    output = capsys.readouterr().out
    assert "Checkpoint written to {}".format(path) in output
    # Second serve restores from the checkpoint and runs a fresh workload.
    assert main([
        "--clients", "1", "--updates", "1", "--answer-delay", "1",
        "--snapshot-path", path, "--restore",
    ]) == 0
    output = capsys.readouterr().out
    assert "Restored service from {}".format(path) in output
    assert "Closed-loop run over" in output


def test_serve_cli_restore_requires_snapshot_path():
    from repro.service.cli import main

    with pytest.raises(SystemExit, match="--restore requires --snapshot-path"):
        main(["--restore"])


def _contended_service():
    """A small Section 6 run whose concurrent updates abort and restart."""
    environment = build_environment(
        ExperimentConfig(num_relations=6, max_mappings=10, num_initial_tuples=40, seed=11)
    )
    service = RepositoryService(environment.initial, list(environment.mappings))
    session = service.open_session("writer")
    tickets = [
        service.submit(session.session_id, operation)
        for operation in mixed_workload(
            environment.schema, environment.initial, 12, environment.constant_pool,
            rng=random.Random(11), delete_fraction=0.3,
        )
    ]
    for _ in range(100):
        run_until_blocked(service)
        questions = service.inbox()
        if not questions:
            break
        for question in questions:
            service.answer(
                session.session_id, question.decision_id, conservative_answer(question)
            )
    return service, tickets


def test_restarted_tickets_follow_their_fresh_priority():
    service, tickets = _contended_service()
    assert all(ticket.status is TicketStatus.COMMITTED for ticket in tickets)
    restarts = sum(ticket.attempts - 1 for ticket in tickets)
    assert restarts > 0, "the scenario must exercise abort-restarts"
    snapshot = service.metrics_snapshot()
    assert snapshot["restarts"] == restarts == snapshot["scheduler_aborts"]
    assert service.inbox() == []


def test_dropped_service_frees_its_store_by_refcount():
    """Nothing the service owns refers back to it: no cycle keeps the store."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        service, _ = _contended_service()
        service.metrics_snapshot()  # the producers run
        store = weakref.ref(service.scheduler.store)
        dropped = weakref.ref(service)
        del service
        assert dropped() is None
        assert store() is None
    finally:
        if enabled:
            gc.enable()
