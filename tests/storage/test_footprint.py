"""What a stored row costs: collector-tracked objects per row of both stores.

The initial database of the Section 6 generator at 600 initial tuples (the
durable benchmark's set-up; 1985 rows under most hash seeds) is loaded into
a ``VersionedDatabase`` and into a ``MemoryDatabase``.  Most index buckets
hold one member, which a bucket keeps bare (:mod:`repro.storage.buckets`),
and versions and tuple identities have slots, so Python before 3.11 gives
them no dict each.  With a one-member ``set`` per bucket the stores held
9.6 and 5.6 tracked objects per row (11.6 for the multiversion store before
3.11).  The count comes from ``gc.get_objects()``; no clock is read.
"""

import gc

import pytest

from repro.storage.memory import MemoryDatabase
from repro.storage.versioned import VersionedDatabase
from repro.workload import ExperimentConfig, build_environment


@pytest.fixture(scope="module")
def initial():
    return build_environment(ExperimentConfig().scaled(num_initial_tuples=600)).initial


def _tracked_per_row(initial, load):
    rows = sum(initial.count(relation) for relation in initial.relations())
    gc.collect()
    before = len(gc.get_objects())
    store = load()
    gc.collect()
    after = len(gc.get_objects())
    assert store is not None
    return (after - before) / rows


def test_a_versioned_row_costs_at_most_seven_tracked_objects(initial):
    def load():
        store = VersionedDatabase(initial.schema)
        store.load_initial(initial)
        return store

    assert _tracked_per_row(initial, load) <= 7.0


def test_a_memory_row_costs_at_most_four_tracked_objects(initial):
    def load():
        store = MemoryDatabase(initial.schema)
        store.load_from(initial)
        return store

    assert _tracked_per_row(initial, load) <= 4.0
