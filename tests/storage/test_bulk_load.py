"""The multiversion store's bulk load and its O(1) size gauges.

``load_rows`` (and ``load_initial`` through it) hands out tuple identities,
version seqs and index buckets in one pass, without a write record per row.
It must leave exactly the store a per-row ``_new_tuple`` would, and every
later write, rollback and compaction must then behave identically on both.

``version_count()`` and ``index_entry_count()`` are kept current by every
mutation (telemetry reads them on every heartbeat); after any random mix of
writes, rollbacks, compactions and loads they must equal a recount.
"""

import random

import pytest

from repro.core.schema import DatabaseSchema, SchemaError
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple
from repro.core.writes import delete, insert, modify
from repro.storage.buckets import bucket_members
from repro.storage.memory import FrozenDatabase
from repro.storage.versioned import VersionedDatabase

SCHEMA = DatabaseSchema.from_dict({"R": ["a", "b"], "S": ["a"], "T": ["a", "b", "c"]})
NULLS = [LabeledNull("x{}".format(index)) for index in range(4)]


def _random_row(rng):
    relation = rng.choice(SCHEMA.relation_names())
    return Tuple(relation, tuple(
        rng.choice(NULLS) if rng.random() < 0.25 else Constant("c{}".format(rng.randrange(5)))
        for _ in range(SCHEMA.arity_of(relation))
    ))


def _recount(store):
    versions = sum(len(record.versions) for record in store._tuples.values())
    entries = sum(
        len(bucket_members(bucket))
        for index in (store._value_index, store._null_index, store._content_index)
        for bucket in index.values()
    )
    return versions, entries


def _assert_gauges(store):
    assert (store.version_count(), store.index_entry_count()) == _recount(store)


def _state(store):
    """Everything a bulk load must reproduce, stamps excepted."""
    return (
        {
            tid: (record.relation, [
                (version.seq, version.priority, version.content)
                for version in record.versions
            ])
            for tid, record in store._tuples.items()
        },
        # Buckets as lists: the join probe iterates them in their own order.
        {relation: list(tids) for relation, tids in store._by_relation.items()},
        {key: list(bucket_members(tids)) for key, tids in store._value_index.items()},
        {key: list(bucket_members(tids)) for key, tids in store._null_index.items()},
        {key: list(bucket_members(tids)) for key, tids in store._content_index.items()},
        store.latest_view().to_dict(),
        store.version_count(),
        store.index_entry_count(),
        store.log_size(),
    )


def _per_row_load(store, rows, priority=0):
    """The reference: one unlogged identity per row, as inserts create them."""
    for row in rows:
        store._new_tuple(insert(row), priority, defer=True)


@pytest.mark.parametrize("seed", [0, 4, 21])
def test_bulk_load_equals_per_row_loading_and_later_writes(seed):
    rng = random.Random(seed)
    rows = [_random_row(rng) for _ in range(80)]
    rows += rows[:5]  # equal rows become distinct identities
    bulk, single = VersionedDatabase(SCHEMA), VersionedDatabase(SCHEMA)
    bulk.load_rows(rows)
    _per_row_load(single, rows)
    assert _state(bulk) == _state(single)
    assert bulk.log_size() == 0
    stamp = bulk._mutation_stamp
    assert all(bulk.relation_stamp(name) == stamp for name in SCHEMA.relation_names())

    # Later writes, a rollback and a compaction land identically.
    for priority in (1, 2, 3):
        for _ in range(10):
            row = _random_row(rng)
            visible = sorted(bulk.view_for(priority).tuples(row.relation), key=repr)
            if visible and rng.random() < 0.4:
                old = rng.choice(visible)
                if old.null_set():
                    null = sorted(old.null_set(), key=lambda n: n.name)[0]
                    new = old.substitute({null: Constant("filled")})
                    write = modify(old, new, null, Constant("filled"))
                else:
                    write = delete(old)
            else:
                write = insert(row)
            assert (bulk.apply_write(write, priority) is None) == (
                single.apply_write(write, priority) is None
            )
        assert _state(bulk) == _state(single)
    assert bulk.rollback(2) == single.rollback(2)
    assert _state(bulk) == _state(single)
    assert bulk.compact_below(3) == single.compact_below(3)
    assert _state(bulk) == _state(single)
    _assert_gauges(bulk)


def test_load_initial_is_one_bulk_load_over_every_relation():
    rng = random.Random(8)
    contents = {name: set() for name in SCHEMA.relation_names()}
    for _ in range(40):
        row = _random_row(rng)
        contents[row.relation].add(row)
    view = FrozenDatabase(SCHEMA, {name: frozenset(rows) for name, rows in contents.items()})
    loaded, single = VersionedDatabase(SCHEMA), VersionedDatabase(SCHEMA)
    loaded.load_initial(view)
    _per_row_load(single, (row for name in view.relations() for row in view.tuples(name)))
    assert _state(loaded) == _state(single)
    assert loaded._mutation_stamp == 1


def test_bulk_load_stops_at_a_bad_row_and_keeps_the_rows_before():
    store = VersionedDatabase(SCHEMA)
    good = Tuple("S", [Constant("a")])
    with pytest.raises(SchemaError):
        store.load_rows([good, Tuple("S", [Constant("a"), Constant("b")]), good])
    assert store.latest_view().to_dict()["S"] == {good}
    assert store.tuple_count() == 1
    assert store.relation_stamp("S") > 0
    _assert_gauges(store)
    with pytest.raises(SchemaError):
        store.load_rows([Tuple("Unknown", [Constant("a")])])
    _assert_gauges(store)


@pytest.mark.parametrize("seed", [3, 11, 2009])
def test_gauges_equal_a_recount_after_every_mutation(seed, tmp_path):
    rng = random.Random(seed)
    store = VersionedDatabase(SCHEMA)
    store.load_rows(_random_row(rng) for _ in range(20))
    _assert_gauges(store)
    active, next_priority = [], 1
    for _ in range(300):
        choice = rng.random()
        if choice < 0.55 or not active:
            if not active or rng.random() < 0.3:
                active.append(next_priority)
                next_priority += 1
            priority = rng.choice(active)
            row = _random_row(rng)
            visible = sorted(store.view_for(priority).tuples(row.relation), key=repr)
            kind = rng.random()
            if kind < 0.5 or not visible:
                store.apply_write(insert(row), priority)
            elif kind < 0.75:
                store.apply_writes([delete(rng.choice(visible)), insert(row)], priority)
            else:
                old = rng.choice(visible)
                new = Tuple(old.relation, (Constant("m{}".format(rng.randrange(3))),) + old.values[1:])
                store.apply_write(modify(old, new, NULLS[0], new.values[0]), priority)
        elif choice < 0.7:
            victim = rng.choice(active)
            active.remove(victim)
            store.rollback(victim)
        elif choice < 0.9:
            committed = sorted(active)[: rng.randrange(1, len(active) + 1)]
            for priority in committed:
                active.remove(priority)
            store.compact_below(committed[-1], committed)
        else:
            store.load_rows(_random_row(rng) for _ in range(rng.randrange(1, 6)))
        _assert_gauges(store)
    assert store.version_count() >= store.tuple_count() > 0
    # A restore loads the snapshot's rows through the same bulk path.
    path = str(tmp_path / "store.snapshot")
    store.snapshot_to(path, next_priority)
    restored, _ = VersionedDatabase.restore_from(path)
    _assert_gauges(restored)
    assert restored.latest_view().to_dict() == store.view_for(next_priority).to_dict()
