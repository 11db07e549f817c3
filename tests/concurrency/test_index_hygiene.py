"""The read-log buckets and the transposed write log give back what they took.

Both indexes are keyed by data values and nulls, so an entry that outlives
its reader or writer is a leak that grows with everything a long-running
service ever served.  ``remove_reader``, ``rollback`` and ``compact_below``
(through ``_drop_priorities_log``) are the only ways out; these loops check
that each returns every index to the entry count it had before.
"""

from __future__ import annotations

from repro.concurrency.dependencies import make_tracker
from repro.concurrency.optimistic import OptimisticScheduler
from repro.concurrency.readlog import ReadLog
from repro.core.oracle import RandomOracle
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull, NullFactory, Variable
from repro.core.tgd import parse_tgd
from repro.core.tuples import Tuple
from repro.core.writes import delete, insert, modify
from repro.query.correction_query import MoreSpecificQuery, NullOccurrenceQuery
from repro.query.violation_query import ViolationQuery
from repro.storage.versioned import VersionedDatabase
from repro.workload.experiment import (
    ExperimentConfig,
    MIXED_WORKLOAD,
    build_environment,
    build_workload,
)
from repro.workload.mapping_gen import mapping_prefix

LOOP = 500


def _log_index_sizes(store, read_log):
    return (
        store.log_index_entry_count(),
        len(store._writers),
        len(store._keys_by_writer),
        read_log.index_entry_count(),
        len(read_log._buckets),
        len(read_log._keys_by_reader),
        len(read_log._charges),
    )


def test_abort_only_loop_returns_the_log_indexes_to_their_baseline():
    schema = DatabaseSchema.from_dict({"R": ["a", "b"], "S": ["a"]})
    tgd = parse_tgd("R(x, y), S(y) -> exists z . R(y, z)", name="sigma")
    store = VersionedDatabase(schema)
    read_log = ReadLog()
    null = LabeledNull("n")
    kept = Tuple("R", (Constant("k"), null))
    store.load_rows([kept])

    def work(priority):
        """What one update leaves in both logs: three writes, four tracked reads."""
        value = Constant("v{}".format(priority))
        filled = Tuple("R", (Constant("k"), value))
        logged = store.apply_writes(
            [insert(Tuple("S", (value,))), modify(kept, filled, null, value), delete(filled)],
            priority,
        )
        for query in (
            ViolationQuery(tgd, {Variable("y"): value}),
            ViolationQuery(tgd),
            MoreSpecificQuery(filled),
            NullOccurrenceQuery(null),
        ):
            # What a tracker does per read; the write log files on lookup ...
            store.writers_under(query.watch_keys())
            read_log.record(priority, query, set())
        # ... and the read log on the conflict check's probe.
        read_log.candidates(logged[0].write, above=0)

    # One update stays in flight throughout: the baseline is not "empty".
    work(1)
    baseline = _log_index_sizes(store, read_log)
    assert all(baseline)
    for priority in range(2, 2 + LOOP):
        work(priority)
        assert all(
            now > before
            for now, before in zip(_log_index_sizes(store, read_log), baseline)
        )
        store.rollback(priority)
        read_log.remove_reader(priority)
        assert _log_index_sizes(store, read_log) == baseline
    store.rollback(1)
    read_log.remove_reader(1)
    assert not any(_log_index_sizes(store, read_log))


def test_writes_nobody_looked_up_leave_with_their_writer_unfiled():
    schema = DatabaseSchema.from_dict({"R": ["a"]})
    store = VersionedDatabase(schema)
    for priority, leave in ((1, store.rollback), (2, lambda p: store.compact_below(p, [p]))):
        store.apply_writes(
            [insert(Tuple("R", (Constant("{}{}".format(priority, i)),))) for i in range(3)],
            priority,
        )
        # Filing waits for a lookup; until then the writes count as pending.
        assert store.log_index_entry_count() == 3 and not store._writers
        leave(priority)
        assert store.log_index_entry_count() == 0
        assert store.writers_under(["R"]) == set() and not store._keys_by_writer


def test_commit_and_compact_loop_returns_the_log_indexes_to_empty():
    # The Section 6 defaults: dense enough that some of the updates abort.
    config = ExperimentConfig().scaled(num_updates=20)
    environment = build_environment(config)
    store = VersionedDatabase(environment.schema)
    store.load_initial(environment.initial)
    scheduler = OptimisticScheduler(
        store=store,
        mappings=mapping_prefix(environment.mappings, config.max_mappings),
        tracker=make_tracker("PRECISE"),
        oracle=RandomOracle(seed=0),
        null_factory=NullFactory.avoiding_view(environment.initial, prefix="g"),
        max_total_steps=config.max_total_steps,
        prune_committed=True,
    )
    peak = 0
    for batch in range(LOOP // config.num_updates):
        scheduler.submit_all(build_workload(environment, MIXED_WORKLOAD, batch))
        scheduler.pump(max_steps=3 * config.num_updates)  # into the third round
        peak = max(peak, min(_log_index_sizes(store, scheduler.read_log)))
        scheduler.run()
        # Everything submitted has committed and been compacted away.
        assert not any(_log_index_sizes(store, scheduler.read_log))
        assert store.log_size() == 0
    assert peak > 0  # the indexes were in use between the empties
    assert scheduler.statistics.updates_submitted == LOOP
    assert scheduler.statistics.aborts > 0  # and aborts ran through them too


def test_write_log_views_handed_out_before_a_drop_stay_valid():
    schema = DatabaseSchema.from_dict({"R": ["a"]})
    store = VersionedDatabase(schema)
    for priority in (1, 2, 3):
        store.apply_writes(
            [insert(Tuple("R", (Constant("{}{}".format(priority, i)),))) for i in range(2)],
            priority,
        )
    whole = store.write_log()
    views = {
        priority: (
            store.writes_by(priority),
            store.writes_by_touching_relations(priority, ["R"]),
            list(store.writes_by(priority)),
        )
        for priority in (1, 2, 3)
    }
    store.compact_below(1, [1])
    store.rollback(2)
    # A dropped update's views keep showing what they showed ...
    for priority in (1, 2):
        by_priority, by_relation, entries = views[priority]
        assert list(by_priority) == list(by_relation) == entries
        assert store.write_count_by(priority) == 0
        assert priority not in store.writers_under(["R"])
    # ... a survivor's keep following its log, and so does the global one.
    store.apply_write(insert(Tuple("R", (Constant("late"),))), 3)
    by_priority, by_relation, entries = views[3]
    assert len(by_priority) == len(by_relation) == len(entries) + 1
    assert list(whole) == list(by_priority)
    assert store.writers_under(["R"]) == {3}
