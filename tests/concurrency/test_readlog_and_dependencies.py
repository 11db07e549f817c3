"""Tests for the read log, dependency trackers and abort consolidation."""

import pytest

from oracles.conflicts_scan import records_with_reader_above

from repro.concurrency.aborts import consolidate_aborts
from repro.concurrency.dependencies import (
    CoarseTracker,
    HybridTracker,
    NaiveTracker,
    PreciseTracker,
    make_tracker,
)
from repro.concurrency.readlog import ReadLog
from repro.core.terms import Constant, LabeledNull, Variable
from repro.core.tuples import Tuple, make_tuple
from repro.core.writes import insert
from repro.query.correction_query import MoreSpecificQuery, NullOccurrenceQuery
from repro.query.violation_query import ViolationQuery
from repro.storage.versioned import VersionedDatabase
from repro.fixtures import travel_database, travel_mappings


class TestReadLog:
    def test_record_and_lookup(self):
        log = ReadLog()
        query = NullOccurrenceQuery(LabeledNull("x1"))
        log.record(5, query, {2, 3})
        log.record(7, query, {5})
        assert log.readers() == [5, 7]
        assert {
            dependency
            for record in records_with_reader_above(log, 4) if record.reader == 5
            for dependency in record.dependencies
        } == {2, 3}
        assert log.readers_depending_on(5) == {7}
        assert log.readers_depending_on(1) == set()
        assert log.total_records() == 2

    def test_records_with_reader_above(self):
        log = ReadLog()
        query = NullOccurrenceQuery(LabeledNull("x1"))
        log.record(2, query, set())
        log.record(9, query, set())
        readers = {record.reader for record in records_with_reader_above(log, 5)}
        assert readers == {9}

    def test_remove_reader(self):
        log = ReadLog()
        query = NullOccurrenceQuery(LabeledNull("x1"))
        log.record(4, query, set())
        assert log.remove_reader(4) == 1
        assert log.remove_reader(4) == 0
        assert len(log) == 0


@pytest.fixture
def conflict_setup():
    """A store where update 1 wrote a tour and update 3 wrote a city."""
    database = travel_database()
    mappings = travel_mappings()
    store = VersionedDatabase(database.schema)
    store.load_initial(database.snapshot())
    store.apply_write(insert(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")), priority=1)
    store.apply_write(insert(make_tuple("C", "Utica")), priority=3)
    return store, mappings


class TestTrackers:
    def test_naive_records_nothing(self, conflict_setup):
        store, mappings = conflict_setup
        tracker = NaiveTracker()
        query = ViolationQuery(mappings.by_name("sigma3"))
        assert tracker.dependencies(query, 5, store, store.view_for(5), {1, 3, 5}) == set()
        assert tracker.aborts_all_younger

    def test_coarse_uses_relation_overlap(self, conflict_setup):
        store, mappings = conflict_setup
        tracker = CoarseTracker()
        sigma3_query = ViolationQuery(mappings.by_name("sigma3"))  # reads A, T, R
        deps = tracker.dependencies(sigma3_query, 5, store, store.view_for(5), {1, 3, 5})
        assert deps == {1}
        sigma1_query = ViolationQuery(mappings.by_name("sigma1"))  # reads C, S
        deps = tracker.dependencies(sigma1_query, 5, store, store.view_for(5), {1, 3, 5})
        assert deps == {3}

    def test_coarse_only_counts_abortable_lower_numbered_updates(self, conflict_setup):
        store, mappings = conflict_setup
        tracker = CoarseTracker()
        query = ViolationQuery(mappings.by_name("sigma3"))
        # Update 1 is not abortable any more (e.g. committed): no dependency.
        assert tracker.dependencies(query, 5, store, store.view_for(5), {3, 5}) == set()
        # A reader numbered below the writer records no dependency either.
        assert tracker.dependencies(query, 1, store, store.view_for(1), {1, 3}) == set()

    def test_precise_only_reports_writes_that_change_the_answer(self, conflict_setup):
        store, mappings = conflict_setup
        tracker = PreciseTracker()
        # The sigma3 violation query's answer *is* changed by update 1's tour
        # insert (it creates a violation witness), so PRECISE agrees with COARSE.
        sigma3_query = ViolationQuery(mappings.by_name("sigma3"))
        assert tracker.dependencies(sigma3_query, 5, store, store.view_for(5), {1, 3, 5}) == {1}
        # The sigma1 violation query (every city has an airport) *is* changed by
        # update 3's insert of a new city with no airport.
        sigma1_query = ViolationQuery(mappings.by_name("sigma1"))
        assert tracker.dependencies(sigma1_query, 5, store, store.view_for(5), {1, 3, 5}) == {3}
        # A correction query about an unrelated null is influenced by neither.
        occurrence = NullOccurrenceQuery(LabeledNull("x2"))
        assert tracker.dependencies(occurrence, 5, store, store.view_for(5), {1, 3, 5}) == set()

    def test_precise_is_never_less_precise_than_coarse(self, conflict_setup):
        store, mappings = conflict_setup
        coarse, precise = CoarseTracker(), PreciseTracker()
        for tgd in mappings:
            query = ViolationQuery(tgd)
            coarse_deps = coarse.dependencies(query, 9, store, store.view_for(9), {1, 3, 9})
            precise_deps = precise.dependencies(query, 9, store, store.view_for(9), {1, 3, 9})
            assert precise_deps <= coarse_deps

    def test_precise_costs_more_than_coarse(self, conflict_setup):
        store, mappings = conflict_setup
        coarse, precise = CoarseTracker(), PreciseTracker()
        query = ViolationQuery(mappings.by_name("sigma3"))
        coarse.dependencies(query, 5, store, store.view_for(5), {1, 3, 5})
        precise.dependencies(query, 5, store, store.view_for(5), {1, 3, 5})
        assert precise.cost_units > coarse.cost_units

    def test_correction_queries_tracked_exactly_by_coarse(self, conflict_setup):
        store, mappings = conflict_setup
        tracker = CoarseTracker()
        # More-specific query over T: only update 1 wrote to T, and its tuple is
        # more specific than the fully-null pattern.
        pattern = make_tuple("T", LabeledNull("a"), LabeledNull("b"), LabeledNull("c"))
        query = MoreSpecificQuery(pattern)
        assert tracker.dependencies(query, 5, store, store.view_for(5), {1, 3, 5}) == {1}

    def test_hybrid_promotion_switches_to_precise(self, conflict_setup):
        store, mappings = conflict_setup
        tracker = HybridTracker()
        query = ViolationQuery(mappings.by_name("sigma3"))
        # Both sides read relation T, but only COARSE flags the unrelated C write.
        sigma2_query = ViolationQuery(mappings.by_name("sigma2"))
        coarse_result = tracker.dependencies(sigma2_query, 5, store, store.view_for(5), {1, 3, 5})
        tracker.promote(5)
        precise_result = tracker.dependencies(sigma2_query, 5, store, store.view_for(5), {1, 3, 5})
        assert precise_result <= coarse_result

    def test_hybrid_folds_both_sub_tracker_counters(self, conflict_setup):
        store, mappings = conflict_setup
        tracker = HybridTracker()
        query = ViolationQuery(mappings.by_name("sigma3"))
        tracker.dependencies(query, 5, store, store.view_for(5), {1, 3, 5})
        tracker.promote(5)
        tracker.dependencies(query, 5, store, store.view_for(5), {1, 3, 5})
        # One COARSE read plus one PRECISE read: both counters must aggregate
        # the sub-trackers (reads_processed used to count only the wrapper).
        assert tracker.reads_processed == 2
        assert tracker.reads_processed == (
            tracker._coarse.reads_processed + tracker._precise.reads_processed
        )
        assert tracker.cost_units == (
            tracker._coarse.cost_units + tracker._precise.cost_units
        )
        assert tracker._coarse.reads_processed == 1
        assert tracker._precise.reads_processed == 1

    def test_indexed_trackers_match_full_log_scan(self, conflict_setup):
        """COARSE/PRECISE on the indexed log ≡ the historical full-log filter."""
        store, mappings = conflict_setup
        # Add more writers, including nulls, to give the indexes something
        # real to partition.
        null = LabeledNull("zz")
        store.apply_write(
            insert(Tuple("T", (null, Constant("Tours R Us"), Constant("Lyon")))),
            priority=4,
        )
        store.apply_write(insert(make_tuple("C", "Lyon")), priority=6)
        abortable = {1, 3, 4, 6, 9}
        queries = [ViolationQuery(tgd) for tgd in mappings]
        queries.append(
            MoreSpecificQuery(
                make_tuple("T", LabeledNull("a"), LabeledNull("b"), LabeledNull("c"))
            )
        )
        queries.append(NullOccurrenceQuery(null))
        queries.append(NullOccurrenceQuery(LabeledNull("unused")))
        for reader in (2, 5, 9, 10):
            view = store.view_for(reader)
            for query in queries:
                coarse, precise = CoarseTracker(), PreciseTracker()
                coarse_deps = coarse.dependencies(query, reader, store, view, abortable)
                precise_deps = precise.dependencies(query, reader, store, view, abortable)
                # Reference: the historical scan over the full write log.
                legacy_coarse = set()
                legacy_precise = set()
                legacy_coarse_cost = 0
                legacy_precise_cost = 0
                for entry in store.write_log():
                    if entry.priority >= reader or entry.priority not in abortable:
                        continue
                    legacy_coarse_cost += 1
                    if query.kind in ("more-specific", "null-occurrence"):
                        if query.might_be_affected_by(entry.write):
                            legacy_coarse.add(entry.priority)
                    elif entry.write.relation in query.relations():
                        legacy_coarse.add(entry.priority)
                    if entry.priority in legacy_precise:
                        legacy_precise_cost += 1
                    else:
                        legacy_precise_cost += 2 * query.evaluation_cost()
                        if query.affected_by(entry.write, view):
                            legacy_precise.add(entry.priority)
                assert coarse_deps == legacy_coarse
                assert precise_deps == legacy_precise
                assert coarse.cost_units == legacy_coarse_cost
                assert precise.cost_units == legacy_precise_cost

    def test_make_tracker_names(self):
        assert isinstance(make_tracker("naive"), NaiveTracker)
        assert isinstance(make_tracker("COARSE"), CoarseTracker)
        assert isinstance(make_tracker("Precise"), PreciseTracker)
        assert isinstance(make_tracker("hybrid"), HybridTracker)
        with pytest.raises(ValueError):
            make_tracker("unknown")

    def test_reset_clears_counters(self, conflict_setup):
        store, mappings = conflict_setup
        tracker = PreciseTracker()
        tracker.dependencies(
            ViolationQuery(mappings.by_name("sigma3")), 5, store, store.view_for(5), {1, 3, 5}
        )
        assert tracker.cost_units > 0
        tracker.reset()
        assert tracker.cost_units == 0
        assert tracker.reads_processed == 0


class TestConsolidateAborts:
    def test_no_direct_conflicts_means_no_aborts(self):
        decision = consolidate_aborts(set(), ReadLog(), CoarseTracker(), {1, 2, 3})
        assert decision.all_victims() == set()
        assert decision.cascading_requests == 0

    def test_naive_aborts_every_younger_abortable_update(self):
        tracker = NaiveTracker()
        decision = consolidate_aborts({4}, ReadLog(), tracker, {2, 4, 5, 6})
        assert decision.direct == {4}
        assert decision.cascading == {5, 6}
        assert decision.cascading_requests == 2

    def test_dependency_based_cascade_is_transitive(self):
        log = ReadLog()
        query = NullOccurrenceQuery(LabeledNull("x"))
        log.record(5, query, {4})
        log.record(6, query, {5})
        log.record(7, query, {1})
        decision = consolidate_aborts({4}, log, CoarseTracker(), {4, 5, 6, 7})
        assert decision.cascading == {5, 6}
        assert 7 not in decision.all_victims()
        assert decision.cascading_requests == 2

    def test_requests_count_every_request_even_for_known_victims(self):
        log = ReadLog()
        query = NullOccurrenceQuery(LabeledNull("x"))
        # Update 6 depends on both 4 and 5, so it is requested twice.
        log.record(5, query, {4})
        log.record(6, query, {4, 5})
        decision = consolidate_aborts({4}, log, CoarseTracker(), {4, 5, 6})
        assert decision.cascading == {5, 6}
        assert decision.cascading_requests == 3

    def test_non_abortable_dependents_are_ignored(self):
        log = ReadLog()
        query = NullOccurrenceQuery(LabeledNull("x"))
        log.record(5, query, {4})
        decision = consolidate_aborts({4}, log, CoarseTracker(), {4})
        assert decision.cascading == set()
