"""Property-style tests for write-log compaction and content-index pruning.

A random driver interleaves writes at increasing priorities, rollbacks and
commit-watermark compactions, mimicking the optimistic scheduler's lifecycle.
After every mutation the store must satisfy two exact invariants:

* **visibility** — for every still-live priority, the indexed visibility
  answers (``contains``, ``more_specific_tuples``, ``tuples_containing_null``,
  ``tuples_matching`` with one, two and every position bound) equal
  brute-force recomputation over the relation scan (the
  :class:`DatabaseView` defaults), and compaction never changes the set of
  tuples such a priority sees;
* **index justification** — every entry of the over-approximate content
  indexes (per value, per null, per exact content) is justified by some
  remaining version, and every remaining version's content is fully indexed.
  Together these bound the indexes by the live version set: neither
  rollbacks nor compactions may leave residue, or a long-running service
  grows garbage without bound.
"""

import random

import pytest

from oracles.probe import assert_probe_matches_default, probes_for
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple
from repro.core.writes import delete, insert, modify
from repro.storage.buckets import bucket_members
from repro.storage.interface import DatabaseView
from repro.storage.versioned import LATEST, VersionedDatabase


def _assert_indexes_exact(store):
    """Both directions: indexed ⊆ justified and stored ⊆ indexed."""
    for (relation, position, value), bucket in store._value_index.items():
        for tid in bucket_members(bucket):
            record = store._tuples.get(tid)
            assert record is not None, "value-index bucket holds a dead tid"
            assert any(
                version.content is not None
                and version.content.relation == relation
                and version.content.values[position] == value
                for version in record.versions
            ), "value-index entry not justified by any remaining version"
    for null, bucket in store._null_index.items():
        for tid in bucket_members(bucket):
            record = store._tuples.get(tid)
            assert record is not None, "null-index bucket holds a dead tid"
            assert any(
                version.content is not None and version.content.contains_null(null)
                for version in record.versions
            ), "null-index entry not justified by any remaining version"
    for row, bucket in store._content_index.items():
        assert bucket_members(bucket), "content-index bucket left empty instead of removed"
        for tid in bucket_members(bucket):
            record = store._tuples.get(tid)
            assert record is not None, "content-index bucket holds a dead tid"
            assert any(
                version.content == row for version in record.versions
            ), "content-index entry not justified by any remaining version"
    for tid, record in store._tuples.items():
        for version in record.versions:
            row = version.content
            if row is None:
                continue
            assert tid in bucket_members(store._content_index.get(row))
            for position, value in enumerate(row.values):
                assert tid in bucket_members(
                    store._value_index.get((row.relation, position, value))
                )
            for null in row.null_set():
                assert tid in bucket_members(store._null_index.get(null))


def _assert_view_matches_bruteforce(store, priority, probe_rows, probe_nulls):
    view = store.view_for(priority)
    for relation in view.relations():
        scanned = set(view.tuples(relation))
        for row in scanned:
            assert view.contains(row)
    for row in probe_rows:
        expected = any(row == content for content in view.tuples(row.relation))
        assert view.contains(row) == expected
        pattern = Tuple(
            row.relation,
            tuple(
                value if index == 0 else LabeledNull("probe{}".format(index))
                for index, value in enumerate(row.values)
            ),
        )
        repeated = Tuple(
            row.relation, row.values[:1] + (probe_nulls[0],) * (len(row.values) - 1)
        )
        for each in (pattern, repeated, row):
            assert set(view.more_specific_tuples(each)) == set(
                DatabaseView.more_specific_tuples(view, each)
            )
        # A constant no row holds and a labeled null as bound values; rows
        # of rolled-back priorities and old versions of modified chains are
        # among the probes, read at whatever priority the caller picked.
        for bound in probes_for(row, (Constant("nowhere"), probe_nulls[0])):
            assert_probe_matches_default(view, row.relation, bound, ordered=True)
    for null in probe_nulls:
        assert set(view.tuples_containing_null(null)) == set(
            DatabaseView.tuples_containing_null(view, null)
        )


def _random_row(rng, schema, nulls):
    relation = rng.choice(schema.relation_names())
    values = []
    for index in range(schema.arity_of(relation)):
        if rng.random() < 0.25:
            values.append(rng.choice(nulls))
        else:
            values.append(Constant("c{}".format(rng.randrange(6))))
    return Tuple(relation, tuple(values))


@pytest.mark.parametrize("seed", [3, 11, 2009])
def test_random_lifecycle_preserves_visibility_and_prunes_indexes(seed):
    rng = random.Random(seed)
    schema = DatabaseSchema.from_dict({"R": ["a", "b"], "S": ["a"], "T": ["a", "b", "c"]})
    store = VersionedDatabase(schema)
    nulls = [LabeledNull("x{}".format(index)) for index in range(4)]

    active = []  # priorities that may still write, read, or roll back
    next_priority = 1
    watermark = 0
    probe_rows = []

    for step in range(240):
        choice = rng.random()
        if choice < 0.55 or not active:
            # A write by an active (or freshly admitted) priority.
            if not active or rng.random() < 0.3:
                active.append(next_priority)
                next_priority += 1
            priority = rng.choice(active)
            row = _random_row(rng, schema, nulls)
            kind = rng.random()
            if kind < 0.6:
                store.apply_write(insert(row), priority)
                probe_rows.append(row)
            elif kind < 0.8:
                visible = list(store.view_for(priority).tuples(row.relation))
                if visible:
                    store.apply_write(delete(rng.choice(visible)), priority)
            else:
                visible = [
                    candidate
                    for candidate in store.view_for(priority).tuples(row.relation)
                    if candidate.null_set()
                ]
                if visible:
                    old = rng.choice(visible)
                    null = sorted(old.null_set(), key=lambda n: n.name)[0]
                    new = old.substitute({null: Constant("filled{}".format(step))})
                    store.apply_write(modify(old, new, null, new.values[0]), priority)
                    probe_rows.append(new)
        elif choice < 0.7 and active:
            # Abort: roll a random active priority back.
            victim = rng.choice(active)
            active.remove(victim)
            store.rollback(victim)
        elif choice < 0.85 and active:
            # Commit a prefix of the active priorities and compact below it,
            # exactly like the scheduler's commit watermark.
            committed = sorted(active)[: rng.randrange(1, len(active) + 1)]
            watermark = committed[-1]
            for priority in committed:
                active.remove(priority)
            survivors = [priority for priority in active if priority > watermark]
            before = {
                priority: {
                    relation: frozenset(store.view_for(priority).tuples(relation))
                    for relation in schema.relation_names()
                }
                for priority in survivors + [watermark]
            }
            store.compact_below(watermark, committed)
            for priority, relations in before.items():
                after = {
                    relation: frozenset(store.view_for(priority).tuples(relation))
                    for relation in schema.relation_names()
                }
                assert after == relations, (
                    "compaction changed visibility for priority {}".format(priority)
                )
            # Committed log entries must be gone.
            for priority in committed:
                assert len(store.writes_by(priority)) == 0
            assert all(p > watermark for p in store.priorities_in_log())

        if step % 20 == 0:
            _assert_indexes_exact(store)
            sample = rng.sample(probe_rows, min(len(probe_rows), 8)) if probe_rows else []
            for priority in list(active[:3]) + [watermark, LATEST]:
                _assert_view_matches_bruteforce(store, priority, sample, nulls)

    _assert_indexes_exact(store)
    for priority in [watermark, next_priority, LATEST]:
        _assert_view_matches_bruteforce(
            store, priority, probe_rows[-10:], nulls
        )


def test_abort_only_loop_returns_the_indexes_to_their_baseline():
    schema = DatabaseSchema.from_dict({"R": ["a", "b"]})
    store = VersionedDatabase(schema)
    null = LabeledNull("n")
    kept = Tuple("R", (Constant("k"), null))
    store.load_rows([kept, Tuple("R", (Constant("k"), Constant("v")))])
    baseline = store.index_entry_count()
    contents = len(store._content_index)
    assert baseline == 4 + 1 + 2  # value, null and exact-content memberships
    for priority in range(1, 30):
        filled = Tuple("R", (Constant("k"), Constant("f{}".format(priority))))
        store.apply_writes(
            [
                insert(Tuple("R", (Constant("new"), Constant(str(priority))))),
                modify(kept, filled, null, filled.values[1]),
                delete(filled),
            ],
            priority,
        )
        assert store.index_entry_count() > baseline
        store.rollback(priority)
        assert store.index_entry_count() == baseline
        assert len(store._content_index) == contents
        assert store.view_for(priority).contains(kept)
    _assert_indexes_exact(store)


def test_delete_and_modify_of_a_shared_value_hit_the_lower_tid():
    schema = DatabaseSchema.from_dict({"R": ["a", "b"]})
    null = LabeledNull("n")
    shared = Tuple("R", (Constant("a"), null))
    for kind in ("delete", "modify"):
        store = VersionedDatabase(schema)
        store.load_rows([Tuple("R", (Constant("a"), Constant("other"))), shared, shared])
        twins = sorted(bucket_members(store._content_index.get(shared)))
        assert len(twins) == 2
        filled = Tuple("R", (Constant("a"), Constant("c")))
        write = (
            delete(shared) if kind == "delete"
            else modify(shared, filled, null, Constant("c"))
        )
        logged = store.apply_write(write, priority=1)
        assert logged.tid == twins[0]
        # The twin is untouched, so the value stays visible through it ...
        assert store._tuples[twins[1]].visible_content(1) == shared
        assert store.view_for(1).contains(shared)
        # ... and the next write of the same kind reaches it.
        assert store.apply_write(write, priority=2).tid == twins[1]
        assert not store.view_for(2).contains(shared)


def test_compaction_collapses_committed_chains_and_drops_tombstones():
    schema = DatabaseSchema.from_dict({"P": ["a"]})
    store = VersionedDatabase(schema)
    null = LabeledNull("n")
    first = Tuple("P", (null,))
    filled = Tuple("P", (Constant("v"),))
    store.apply_write(insert(first), priority=1)
    store.apply_write(modify(first, filled, null, Constant("v")), priority=2)
    store.apply_write(insert(Tuple("P", (Constant("dead"),))), priority=2)
    store.apply_write(delete(Tuple("P", (Constant("dead"),))), priority=3)
    assert store.version_count() == 4
    removed = store.compact_below(3)
    # The modified chain collapses to one version; the deleted identity (and
    # its tombstone) disappears entirely, indexes pruned with it.
    assert removed == 3
    assert store.version_count() == 1
    assert store.log_size() == 0
    assert list(store.view_for(5).tuples("P")) == [filled]
    assert ("P", 0, Constant("dead")) not in store._value_index
    assert null not in store._null_index
    _assert_indexes_exact(store)


def test_compaction_keeps_committed_state_under_uncommitted_versions():
    schema = DatabaseSchema.from_dict({"P": ["a"]})
    store = VersionedDatabase(schema)
    row = Tuple("P", (Constant("v"),))
    store.apply_write(insert(row), priority=1)
    store.apply_write(delete(row), priority=2)
    # Priority 4 re-inserts after the committed delete (a separate identity).
    store.apply_write(insert(row), priority=4)
    store.compact_below(2, [1, 2])
    # The committed tombstone's identity is gone, but priority-4 state stays.
    assert not store.view_for(2).contains(row)
    assert store.view_for(4).contains(row)
    assert store.view_for(3).contains(row) is False
    assert store.priorities_in_log() == {4}
    _assert_indexes_exact(store)


def test_rollback_prunes_partial_version_residue():
    schema = DatabaseSchema.from_dict({"Q": ["a", "b"]})
    store = VersionedDatabase(schema)
    null = LabeledNull("m")
    old = Tuple("Q", (Constant("k"), null))
    new = Tuple("Q", (Constant("k"), Constant("filled")))
    store.apply_write(insert(old), priority=1)
    store.apply_write(modify(old, new, null, Constant("filled")), priority=5)
    assert ("Q", 1, Constant("filled")) in store._value_index
    store.rollback(5)
    # The modification's content must leave the indexes (the surviving
    # version does not justify it), while the shared first-position value
    # stays (justified by the remaining version).
    assert ("Q", 1, Constant("filled")) not in store._value_index
    assert ("Q", 0, Constant("k")) in store._value_index
    assert null in store._null_index
    _assert_indexes_exact(store)
