"""Joins leave no reference cycle behind.

A join's candidate iterators, its view and its answer rows must be freed by
reference counting the moment the caller lets go of them.  A cycle — a
closure that refers to itself, say — keeps the view, and through it the whole
store, alive until the cyclic collector happens to run.  Each scenario runs
with the collector off on a fresh store: once its last reference is dropped
the store must already be gone, and a collection must then find nothing.
"""

import gc
import weakref

import pytest

from repro.concurrency import OptimisticScheduler, PreciseTracker
from repro.core import DeleteOperation, InsertOperation, RandomOracle
from repro.core.terms import NullFactory
from repro.core.tuples import make_tuple
from repro.core.writes import delete, insert
from repro.fixtures import travel_database, travel_mappings
from repro.query.compiled import get_plan
from repro.query.violation_query import ViolationQuery, violation_queries_for_write_row
from repro.storage.versioned import VersionedDatabase


def _fresh_store():
    database = travel_database()
    store = VersionedDatabase(database.schema)
    store.load_initial(database.snapshot())
    return store


def _matches(store):
    view = store.view_for(1)
    found = 0
    for tgd in travel_mappings():
        plan = get_plan(tgd)
        for assignment, witness in plan.lhs.find_matches(view):
            found += len(witness)
            plan.rhs.exists_match(view, plan.exported(assignment))
        plan.lhs.find_matches(view, limit=1)
    assert found > 0


def _violation_queries(store):
    row = make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
    store.apply_write(insert(row), 1)
    view = store.view_for(2)
    write = delete(make_tuple("E", "Science Conf", "Geneva Winery"))
    for tgd in travel_mappings():
        queries = [ViolationQuery(tgd)]
        queries += violation_queries_for_write_row(tgd, row, removed=False)
        for query in queries:
            query.evaluate(view)
            query.affected_by(write, view)


def _scheduler_run(store):
    scheduler = OptimisticScheduler(
        store=store,
        mappings=travel_mappings(),
        tracker=PreciseTracker(),
        oracle=RandomOracle(seed=6),
        null_factory=NullFactory(prefix="c"),
    )
    scheduler.submit_all(
        [
            InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")),
            InsertOperation(make_tuple("V", "Syracuse", "Math Conf")),
            InsertOperation(make_tuple("C", "Utica")),
            DeleteOperation(make_tuple("E", "Science Conf", "Geneva Winery")),
        ]
    )
    statistics = scheduler.run()
    assert statistics.updates_terminated >= 4


def _run_on_fresh_store(scenario):
    store = _fresh_store()
    scenario(store)
    return weakref.ref(store)


@pytest.mark.parametrize("scenario", [_matches, _violation_queries, _scheduler_run])
def test_join_frees_its_store_by_reference_counting(scenario):
    gc.collect()
    gc.disable()
    try:
        store = _run_on_fresh_store(scenario)
        assert store() is None, "a reference cycle keeps the store alive"
        assert gc.collect() == 0
    finally:
        gc.enable()
