"""Tests for step-wise update execution, policies and the optimistic scheduler."""

import pytest

from repro.concurrency import (
    CoarseTracker,
    LowestPriorityFirstPolicy,
    NaiveTracker,
    OptimisticScheduler,
    PreciseTracker,
    RoundRobinStepPolicy,
    RoundRobinStratumPolicy,
    databases_isomorphic,
    make_policy,
    run_concurrent_updates,
)
from repro.concurrency.conflicts import find_direct_conflicts
from repro.concurrency.execution import UpdateExecution
from repro.concurrency.readlog import ReadLog
from repro.core import (
    DeleteOperation,
    InsertOperation,
    RandomOracle,
    ScriptedOracle,
    satisfies_all,
)
from repro.core.oracle import AlwaysUnifyOracle
from repro.core.terms import NullFactory
from repro.core.tuples import make_tuple
from repro.core.update import UpdateStatus
from repro.core.writes import insert
from repro.storage.versioned import VersionedDatabase
from repro.fixtures import travel_database, travel_mappings


def _fresh_store(store_class=VersionedDatabase):
    database = travel_database()
    store = store_class(database.schema)
    store.load_initial(database.snapshot())
    return store


class _NeverCompacting(VersionedDatabase):
    """The no-compaction reference: commits leave every version and log entry."""

    def compact_below(self, watermark, priorities=None):
        return 0


class TestUpdateExecution:
    def test_single_step_insert_terminates_after_repair(self):
        store = _fresh_store()
        mappings = travel_mappings()
        execution = UpdateExecution(
            priority=1,
            operation=InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")),
            store=store,
            mappings=list(mappings),
            oracle=AlwaysUnifyOracle(),
            null_factory=NullFactory(prefix="c"),
        )
        first = execution.run_step()
        assert len(first.applied) == 1
        assert not first.terminated
        second = execution.run_step()
        assert len(second.applied) == 1  # the generated review tuple
        assert second.terminated
        assert execution.is_terminated
        # Further steps are no-ops once the update has terminated.
        third = execution.run_step()
        assert third.terminated and third.applied == []
        assert execution.steps_taken == 2
        assert store.latest_view().contains(
            make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
        )

    def test_noop_operation_terminates_immediately(self):
        store = _fresh_store()
        execution = UpdateExecution(
            priority=1,
            operation=InsertOperation(make_tuple("C", "Ithaca")),
            store=store,
            mappings=list(travel_mappings()),
            oracle=AlwaysUnifyOracle(),
            null_factory=NullFactory(prefix="c"),
        )
        result = execution.run_step()
        assert result.terminated
        assert result.applied == []

    def test_reads_are_reported_to_the_recorder(self):
        store = _fresh_store()
        execution = UpdateExecution(
            priority=1,
            operation=InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")),
            store=store,
            mappings=list(travel_mappings()),
            oracle=AlwaysUnifyOracle(),
            null_factory=NullFactory(prefix="c"),
        )
        seen = []
        execution.run_step(lambda query, answer: seen.append(query.kind))
        assert "violation" in seen

    def test_abort_and_restart(self):
        store = _fresh_store()
        execution = UpdateExecution(
            priority=1,
            operation=InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")),
            store=store,
            mappings=list(travel_mappings()),
            oracle=AlwaysUnifyOracle(),
            null_factory=NullFactory(prefix="c"),
        )
        execution.run_step()
        execution.abort()
        assert execution.status is UpdateStatus.ABORTED
        assert not execution.is_active
        restart = execution.restart_as(10)
        assert restart.priority == 10
        assert restart.attempt == 2
        assert restart.operation is execution.operation
        assert restart.is_active or restart.status is UpdateStatus.PENDING

    def test_frontier_consumption_is_reported(self):
        store = _fresh_store()
        execution = UpdateExecution(
            priority=1,
            operation=DeleteOperation(make_tuple("R", "XYZ", "Geneva Winery", "Great!")),
            store=store,
            mappings=list(travel_mappings()),
            oracle=RandomOracle(seed=0),
            null_factory=NullFactory(prefix="c"),
        )
        results = []
        while execution.is_active and len(results) < 10:
            results.append(execution.run_step())
        assert any(result.frontier_consumed for result in results)
        assert execution.frontier_operations >= 1


class TestDirectConflicts:
    def test_write_invalidating_a_logged_read_is_detected(self):
        store = _fresh_store()
        mappings = travel_mappings()
        log = ReadLog()
        # Update 2 logged sigma4's violation query (it reads V and T).
        from repro.query.violation_query import ViolationQuery

        query = ViolationQuery(mappings.by_name("sigma4"))
        log.record(2, query, set())
        # Update 1 inserts a new convention in Syracuse: together with the
        # existing tour it creates a fresh sigma4 witness, so the answer to
        # update 2's logged query changes retroactively.
        logged = store.apply_write(
            insert(make_tuple("V", "Syracuse", "Math Conf")), priority=1
        )
        report = find_direct_conflicts([logged], log, store, {1, 2})
        assert report.direct_conflicts == {2}
        assert report.pairs_checked >= 1

    def test_unrelated_write_is_ignored(self):
        store = _fresh_store()
        mappings = travel_mappings()
        log = ReadLog()
        from repro.query.violation_query import ViolationQuery

        log.record(2, ViolationQuery(mappings.by_name("sigma4")), set())
        logged = store.apply_write(insert(make_tuple("C", "Utica")), priority=1)
        report = find_direct_conflicts([logged], log, store, {1, 2})
        assert report.direct_conflicts == set()

    def test_writes_only_condemn_higher_numbered_readers(self):
        store = _fresh_store()
        mappings = travel_mappings()
        log = ReadLog()
        from repro.query.violation_query import ViolationQuery

        log.record(1, ViolationQuery(mappings.by_name("sigma4")), set())
        logged = store.apply_write(
            insert(make_tuple("T", "Geneva Winery", "New Co", "Syracuse")), priority=3
        )
        report = find_direct_conflicts([logged], log, store, {1, 3})
        assert report.direct_conflicts == set()


class TestPolicies:
    def test_round_robin_cycles_through_priorities(self):
        policy = RoundRobinStepPolicy()

        class Stub:
            def __init__(self, priority):
                self.priority = priority
                self.is_active = True

        ready = [Stub(1), Stub(2), Stub(3)]
        chosen = [policy.next_update(ready).priority for _ in range(4)]
        assert chosen == [1, 2, 3, 1]

    def test_make_policy_names(self):
        assert isinstance(make_policy("round-robin"), RoundRobinStepPolicy)
        assert isinstance(make_policy("stratum"), RoundRobinStratumPolicy)
        assert isinstance(make_policy("serial"), LowestPriorityFirstPolicy)
        with pytest.raises(ValueError):
            make_policy("nope")


class TestOptimisticScheduler:
    def _operations(self):
        return [
            InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")),
            InsertOperation(make_tuple("V", "Syracuse", "Math Conf")),
            InsertOperation(make_tuple("C", "Utica")),
            DeleteOperation(make_tuple("E", "Science Conf", "Geneva Winery")),
        ]

    @pytest.mark.parametrize("tracker_factory", [NaiveTracker, CoarseTracker, PreciseTracker])
    def test_all_updates_terminate_and_mappings_hold(self, tracker_factory):
        database = travel_database()
        mappings = travel_mappings()
        scheduler = run_concurrent_updates(
            database.snapshot(),
            mappings,
            self._operations(),
            tracker=tracker_factory(),
            oracle=RandomOracle(seed=2),
        )
        statistics = scheduler.statistics
        assert statistics.updates_submitted == 4
        assert statistics.updates_terminated == statistics.updates_executed
        final = scheduler.final_database()
        assert satisfies_all(mappings, final)

    def test_statistics_dictionary_is_complete(self):
        database = travel_database()
        scheduler = run_concurrent_updates(
            database.snapshot(),
            travel_mappings(),
            self._operations(),
            tracker=CoarseTracker(),
            oracle=RandomOracle(seed=2),
        )
        data = scheduler.statistics.as_dict()
        for key in ("aborts", "cascading_abort_requests", "per_update_seconds", "steps"):
            assert key in data

    def test_lowest_priority_first_policy_behaves_serially(self):
        database = travel_database()
        mappings = travel_mappings()
        scheduler = run_concurrent_updates(
            database.snapshot(),
            mappings,
            self._operations(),
            tracker=CoarseTracker(),
            oracle=RandomOracle(seed=2),
            policy=LowestPriorityFirstPolicy(),
        )
        assert scheduler.statistics.aborts == 0
        assert satisfies_all(mappings, scheduler.final_database())

    def test_concurrent_result_matches_serial_reference_without_conflicts(self):
        database = travel_database()
        mappings = travel_mappings()
        operations = [
            InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")),
            InsertOperation(make_tuple("C", "Utica")),
        ]
        scheduler = run_concurrent_updates(
            database.snapshot(),
            mappings,
            operations,
            tracker=PreciseTracker(),
            oracle=AlwaysUnifyOracle(),
        )
        from repro.concurrency import SerialExecutor

        serial = SerialExecutor(database.snapshot(), mappings, oracle_factory=AlwaysUnifyOracle)
        reference = serial.run(operations)
        assert databases_isomorphic(scheduler.final_database(), reference)

    def test_commit_compaction_preserves_results_and_empties_the_log(self):
        database = travel_database()
        mappings = travel_mappings()

        def run_with(store_class):
            store = _fresh_store(store_class)
            scheduler = OptimisticScheduler(
                store=store,
                mappings=mappings,
                tracker=PreciseTracker(),
                oracle=RandomOracle(seed=6),
                null_factory=NullFactory(prefix="c"),
            )
            scheduler.submit_all(self._operations())
            statistics = scheduler.run()
            return store, scheduler, statistics

        compacted_store, compacted, with_compaction = run_with(VersionedDatabase)
        plain_store, plain, without_compaction = run_with(_NeverCompacting)
        # Compaction must not change any decision: identical statistics and
        # identical final contents.
        assert with_compaction.aborts == without_compaction.aborts
        assert (
            with_compaction.cascading_abort_requests
            == without_compaction.cascading_abort_requests
        )
        assert with_compaction.tracker_cost_units == without_compaction.tracker_cost_units
        compacted_final = compacted.final_database()
        plain_final = plain.final_database()
        for relation in compacted_final.relations():
            assert set(compacted_final.tuples(relation)) == set(
                plain_final.tuples(relation)
            )
        # Everything committed, so the compacting store's log is empty and
        # its version chains are collapsed; the plain store keeps history.
        assert compacted_store.log_size() == 0
        assert plain_store.log_size() > 0
        assert compacted_store.version_count() <= plain_store.version_count()
        assert compacted_store.compactions > 0
        assert satisfies_all(mappings, compacted.final_database())

    def test_committed_updates_are_never_aborted(self):
        database = travel_database()
        mappings = travel_mappings()
        scheduler = OptimisticScheduler(
            store=_fresh_store(),
            mappings=mappings,
            tracker=CoarseTracker(),
            oracle=RandomOracle(seed=4),
            policy=LowestPriorityFirstPolicy(),
        )
        scheduler.submit_all(self._operations())
        statistics = scheduler.run()
        # With serial execution every update commits in order, so no aborts and
        # every read log entry is eventually discarded.
        assert statistics.aborts == 0
        assert len(scheduler.read_log) == 0
