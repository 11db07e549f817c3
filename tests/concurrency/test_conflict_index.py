"""The indexed conflict check must be bit-identical to the historical scan.

``find_direct_conflicts`` consumes the read log's relation/null buckets and
charges skipped records arithmetically; ``find_direct_conflicts_scan`` is the
original full scan.  These tests run real concurrent workloads with the
scheduler's conflict check replaced by a wrapper that executes *both*
implementations on every batch of writes and asserts that the reports agree
counter for counter — so the Figure 3/4 conflict-cost panel inputs are pinned
while the hot path becomes sublinear.
"""

from __future__ import annotations

import random

import pytest

import repro.concurrency.optimistic as optimistic_module
from oracles.conflicts_scan import find_direct_conflicts_scan
from repro.concurrency.conflicts import find_direct_conflicts
from repro.concurrency.dependencies import make_tracker
from repro.concurrency.optimistic import OptimisticScheduler
from repro.core.oracle import RandomOracle
from repro.core.terms import NullFactory
from repro.storage.versioned import VersionedDatabase
from repro.workload.experiment import (
    ExperimentConfig,
    INSERT_WORKLOAD,
    MIXED_WORKLOAD,
    build_environment,
    build_workload,
)
from repro.workload.mapping_gen import mapping_prefix


def _run_with_checked_conflicts(monkeypatch, workload_name, tracker_name, seed):
    """Run a tiny-scale workload asserting scan/indexed agreement per step."""
    config = ExperimentConfig.tiny_scale().scaled(seed=seed)
    environment = build_environment(config)
    mappings = mapping_prefix(environment.mappings, config.mapping_counts[-1])
    operations = build_workload(environment, workload_name, seed)

    batches = [0]

    def checked(writes, read_log, store, abortable):
        indexed = find_direct_conflicts(writes, read_log, store, abortable)
        scanned = find_direct_conflicts_scan(writes, read_log, store, abortable)
        assert indexed.direct_conflicts == scanned.direct_conflicts
        assert indexed.pairs_checked == scanned.pairs_checked
        assert indexed.delta_evaluations == scanned.delta_evaluations
        assert indexed.cost_units == scanned.cost_units
        batches[0] += 1
        return indexed

    monkeypatch.setattr(optimistic_module, "find_direct_conflicts", checked)
    store = VersionedDatabase(environment.schema)
    store.load_initial(environment.initial)
    scheduler = OptimisticScheduler(
        store=store,
        mappings=mappings,
        tracker=make_tracker(tracker_name),
        oracle=RandomOracle(seed=seed),
        null_factory=NullFactory.avoiding_view(environment.initial, prefix="g"),
        max_total_steps=config.max_total_steps,
    )
    scheduler.submit_all(operations)
    statistics = scheduler.run()
    return statistics, batches[0]


@pytest.mark.parametrize("workload_name", [INSERT_WORKLOAD, MIXED_WORKLOAD])
@pytest.mark.parametrize("tracker_name", ["COARSE", "PRECISE"])
def test_indexed_conflicts_match_scan_on_real_workloads(
    monkeypatch, workload_name, tracker_name
):
    statistics, batches = _run_with_checked_conflicts(
        monkeypatch, workload_name, tracker_name, seed=2009
    )
    assert batches > 0
    assert statistics.steps > 0


def test_indexed_conflicts_match_scan_across_seeds(monkeypatch):
    for seed in random.Random(7).sample(range(10_000), 3):
        statistics, batches = _run_with_checked_conflicts(
            monkeypatch, INSERT_WORKLOAD, "PRECISE", seed=seed
        )
        assert batches > 0


def test_scheduler_statistics_unchanged_by_indexing():
    """End-to-end: a run with the indexed check equals a run with the scan."""
    config = ExperimentConfig.tiny_scale()
    environment = build_environment(config)
    mappings = mapping_prefix(environment.mappings, config.mapping_counts[-1])

    def run(conflict_function):
        original = optimistic_module.find_direct_conflicts
        optimistic_module.find_direct_conflicts = conflict_function
        try:
            store = VersionedDatabase(environment.schema)
            store.load_initial(environment.initial)
            scheduler = OptimisticScheduler(
                store=store,
                mappings=mappings,
                tracker=make_tracker("PRECISE"),
                oracle=RandomOracle(seed=config.seed),
                null_factory=NullFactory.avoiding_view(environment.initial, prefix="g"),
                max_total_steps=config.max_total_steps,
            )
            scheduler.submit_all(build_workload(environment, MIXED_WORKLOAD, config.seed))
            statistics = scheduler.run()
            return statistics, scheduler.final_database()
        finally:
            optimistic_module.find_direct_conflicts = original

    indexed_statistics, indexed_database = run(find_direct_conflicts)
    scanned_statistics, scanned_database = run(find_direct_conflicts_scan)
    assert indexed_statistics.aborts == scanned_statistics.aborts
    assert indexed_statistics.conflict_cost_units == scanned_statistics.conflict_cost_units
    assert indexed_statistics.cascading_aborts == scanned_statistics.cascading_aborts
    assert indexed_statistics.steps == scanned_statistics.steps
    for relation in indexed_database.relations():
        assert set(indexed_database.tuples(relation)) == set(
            scanned_database.tuples(relation)
        )
