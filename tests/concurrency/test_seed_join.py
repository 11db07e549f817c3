"""Seed-aware indexes against the scans they replaced, on randomized inputs.

Three claims, each checked on small random stores over a schema whose
mappings have what makes joining a seed non-trivial — a self-join, repeated
variables (on the LHS, and an existential one on the RHS), constants inside
atoms, a relation that occurs only on right-hand sides and one that occurs
only on left-hand sides — and on writes of all three kinds, unify-style
modifications included:

* a violation query's join tests never drop a write that changes its answer,
  its watch keys cover every row a join test admits, and ``affected_by`` is
  still exactly "the two full evaluations differ";
* ``find_direct_conflicts`` over the bucketed read log equals the full scan
  (``tests/oracles/conflicts_scan.py``) field by field;
* the trackers over the transposed write log equal the log-scanning replicas
  (``tests/oracles/precise_scan.py``) on dependencies and ``cost_units`` —
  PRECISE, COARSE, and HYBRID with promoted readers — across rollbacks and
  compactions.

Buckets are dicts of sets keyed by values and nulls; CI runs this directory
under three hash seeds.
"""

from __future__ import annotations

import random

import pytest

from oracles.conflicts_scan import find_direct_conflicts_scan
from oracles.precise_scan import (
    LegacyCoarseTracker,
    LegacyHybridTracker,
    LegacyPreciseTracker,
)
from repro.concurrency.conflicts import find_direct_conflicts
from repro.concurrency.dependencies import (
    CoarseTracker,
    HybridTracker,
    PreciseTracker,
)
from repro.concurrency.readlog import ReadLog
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tgd import parse_tgd
from repro.core.tuples import Tuple
from repro.core.writes import delete, insert, modify
from repro.query.base import ReadQuery
from repro.query.correction_query import MoreSpecificQuery, NullOccurrenceQuery
from repro.query.violation_query import (
    ViolationQuery,
    seeds_for_lhs_write,
    seeds_for_rhs_write,
)
from repro.storage.overlay import view_without_write
from repro.storage.versioned import VersionedDatabase, write_keys

ARITIES = {"A": 3, "B": 2, "C": 3, "D": 2, "E": 1}
SCHEMA = DatabaseSchema.from_dict(
    {name: ["c{}".format(i) for i in range(arity)] for name, arity in ARITIES.items()}
)
MAPPINGS = [
    # Self-join on the LHS.
    parse_tgd("A(x, y, z), A(z, y, w) -> B(x, w)", name="self_join"),
    # A variable repeated inside one atom, on both sides (the RHS one existential).
    parse_tgd("A(x, x, y) -> exists u . C(x, u, u)", name="repeats"),
    # Constants inside atoms; D occurs on right-hand sides only.
    parse_tgd("A(x, 'a', y), B(y, 'b') -> D(x, 'c')", name="constants"),
    # Self-join with swapped variables, two RHS atoms sharing an existential.
    parse_tgd("B(x, y), B(y, x) -> exists u . C(u, x, y), D(u, u)", name="swapped"),
    # E occurs on left-hand sides only; the RHS feeds back into A.
    parse_tgd("E(x), C(x, y, y) -> A(y, y, x)", name="cycle"),
]
VALUES = [Constant("a"), Constant("b"), Constant("c"), LabeledNull("n1"), LabeledNull("n2")]


def random_row(rng, relation=None):
    relation = relation or rng.choice(sorted(ARITIES))
    return Tuple(relation, [rng.choice(VALUES) for _ in range(ARITIES[relation])])


def random_write(rng, store, priority):
    """An insert, a delete of a visible row or one write of a unify, applied."""
    view = store.view_for(priority)
    visible = [row for relation in sorted(ARITIES) for row in view.tuples(relation)]
    kind = rng.choice(["insert", "insert", "delete", "modify"])
    if kind == "delete" and visible:
        write = delete(rng.choice(visible))
    elif kind == "modify" and any(row.null_set() for row in visible):
        old = rng.choice([row for row in visible if row.null_set()])
        null = rng.choice(sorted(old.null_set()))
        replacement = rng.choice([value for value in VALUES if value != null])
        write = modify(old, old.substitute({null: replacement}), null, replacement)
    else:
        write = insert(random_row(rng))
    return store.apply_write(write, priority)


def random_store(rng, writers=(1, 2, 3, 4), writes=12):
    store = VersionedDatabase(SCHEMA)
    store.load_rows({random_row(rng) for _ in range(rng.randint(4, 14))})
    for _ in range(writes):
        random_write(rng, store, rng.choice(writers))
    return store


def random_violation_queries(rng):
    """Every mapping unseeded, plus seeds off random rows through either side."""
    queries = [ViolationQuery(tgd) for tgd in MAPPINGS]
    for _ in range(12):
        tgd = rng.choice(MAPPINGS)
        row = random_row(rng, rng.choice(sorted(tgd.lhs_relations() | tgd.rhs_relations())))
        for seed in seeds_for_lhs_write(tgd, row) + seeds_for_rhs_write(tgd, row):
            queries.append(ViolationQuery(tgd, seed))
    return queries


class OddKindQuery(ReadQuery):
    """A kind no index knows: no watch keys, the base class's double evaluation."""

    kind = "odd"

    def __init__(self, relation):
        self._relation = relation

    def relations(self):
        return frozenset({self._relation})

    def evaluate(self, view):
        return frozenset(view.tuples(self._relation))


def random_queries(rng):
    queries = random_violation_queries(rng)
    for _ in range(6):
        queries.append(MoreSpecificQuery(random_row(rng)))
    queries.append(MoreSpecificQuery(Tuple("B", [LabeledNull("n1"), LabeledNull("n2")])))
    queries.extend(NullOccurrenceQuery(null) for null in VALUES[3:])
    queries.append(OddKindQuery(rng.choice(sorted(ARITIES))))
    rng.shuffle(queries)
    return queries


@pytest.mark.parametrize("seed", range(40))
def test_join_tests_drop_no_write_that_changes_the_answer(seed):
    rng = random.Random(seed)
    store = random_store(rng)
    queries = random_violation_queries(rng)
    for logged in list(store.write_log()):
        write = logged.write
        keys = set(write_keys(write))
        for reader in (logged.priority, 5):
            view = store.view_for(reader)
            for query in queries:
                differs = query.evaluate(view) != query.evaluate(
                    view_without_write(view, write)
                )
                admitted = any(
                    test.admits(row)
                    for row in write.rows_touched()
                    for test in query.join_tests(row.relation)
                )
                assert admitted or not differs, (query, write)
                assert not keys.isdisjoint(query.watch_keys()) or not admitted
                assert query.affected_by(write, view) == differs, (query, write)


@pytest.mark.parametrize("seed", range(10))
def test_a_join_test_admits_what_the_atom_matches_under_the_seed(seed):
    rng = random.Random(seed)
    for query in random_violation_queries(rng):
        tgd, bound = query.tgd, query.seed
        frontier = tgd.frontier_variables()
        for relation in sorted(tgd.lhs_relations() | tgd.rhs_relations()):
            atoms = [(atom, True) for atom in tgd.lhs if atom.relation == relation]
            atoms += [(atom, False) for atom in tgd.rhs if atom.relation == relation]
            tests = query.join_tests(relation)
            assert len(tests) == len(atoms)
            for (atom, on_lhs), test in zip(atoms, tests):
                key = (relation,) + test.pairs[0] if test.pairs else relation
                assert key in query.watch_keys()
                for _ in range(30):
                    row = random_row(rng, relation)
                    if on_lhs:
                        matches = atom.match(row, bound) is not None
                    else:
                        through = atom.match(row)
                        matches = through is not None and all(
                            bound.get(variable, value) == value
                            for variable, value in through.items()
                            if variable in frontier
                        )
                    assert test.admits(row) == matches, (atom, bound, row)


@pytest.mark.parametrize("seed", range(40))
def test_bucketed_conflict_check_equals_the_scan(seed):
    rng = random.Random(1000 + seed)
    store = random_store(rng, writers=(1, 2, 3))
    log = ReadLog()
    queries = random_queries(rng)
    for reader in (2, 3, 4, 5, 6):
        for _ in range(rng.randint(0, 12)):
            log.record(reader, rng.choice(queries), set())
    abortable = {reader for reader in range(1, 7) if rng.random() < 0.8}
    # One step's writes, then a whole group's (what group validation checks).
    batches = [list(store.writes_by(writer)) for writer in (1, 2, 3)]
    batches.append([entry for batch in batches for entry in batch])
    for writes in batches:
        indexed = find_direct_conflicts(writes, log, store, abortable)
        scanned = find_direct_conflicts_scan(writes, log, store, abortable)
        assert indexed.direct_conflicts == scanned.direct_conflicts
        assert indexed.pairs_checked == scanned.pairs_checked
        assert indexed.delta_evaluations == scanned.delta_evaluations
        assert indexed.cost_units == scanned.cost_units


def _tracker_pairs():
    promoted = (5, 7)
    hybrid, legacy_hybrid = HybridTracker(), LegacyHybridTracker()
    for reader in promoted:
        hybrid.promote(reader)
        legacy_hybrid.promote(reader)
    return [
        (PreciseTracker(), LegacyPreciseTracker()),
        (CoarseTracker(), LegacyCoarseTracker()),
        (hybrid, legacy_hybrid),
    ]


@pytest.mark.parametrize("seed", range(30))
def test_transposed_trackers_equal_the_log_scans(seed):
    rng = random.Random(2000 + seed)
    store = random_store(rng, writers=(1, 2, 3, 4, 6))
    pairs = _tracker_pairs()
    queries = random_queries(rng)

    def compare():
        abortable = {priority for priority in range(1, 8) if rng.random() < 0.8}
        for reader in (3, 5, 6, 7):
            view = store.view_for(reader)
            for query in queries:
                for tracker, replica in pairs:
                    assert tracker.dependencies(
                        query, reader, store, view, abortable
                    ) == replica.dependencies(query, reader, store, view, abortable)
                    assert tracker.cost_units == replica.cost_units, (tracker.name, query)

    compare()
    # The transposed index has to follow the log through an abort ...
    store.rollback(rng.choice((2, 3, 4)))
    compare()
    # ... a commit ...
    store.compact_below(1, [1])
    compare()
    # ... and whatever the survivors write next.
    for _ in range(6):
        random_write(rng, store, rng.choice((2, 3, 4, 6)))
    compare()
