"""Differential suite: the group-commit path ≡ the singleton commit path.

Group commit amortizes per-commit fixed costs — one watermark advance, one
batch-listener round, one compaction sweep per maximal run of terminated
updates — but must not change anything the paper measures: the committed
store, the abort/cascade counters and the cost-model panels have to be
bit-identical to committing every update as its own singleton batch.  These
tests run randomized workloads (insert-only and mixed, several trackers and
seeds) through both paths and compare everything.  The singleton path is
:class:`SingletonCommitScheduler` below; the scheduler itself always groups.
"""

from __future__ import annotations

import pytest

from repro.concurrency.dependencies import make_tracker
from repro.concurrency.optimistic import OptimisticScheduler
from repro.concurrency.policies import make_policy
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

#: The statistics fields that must be bit-identical between the two paths
#: (the Figure 3/4 panel inputs plus everything execution-order sensitive).
PANEL_FIELDS = (
    "updates_submitted",
    "updates_executed",
    "updates_terminated",
    "aborts",
    "direct_aborts",
    "cascading_aborts",
    "cascading_abort_requests",
    "steps",
    "writes",
    "read_queries",
    "frontier_operations",
    "tracker_cost_units",
    "conflict_cost_units",
    "chase_cost_units",
)


class SingletonCommitScheduler(OptimisticScheduler):
    """The reference path: every member commits as its own singleton batch.

    Each member gets its own watermark advance, listener round and compaction
    sweep; chase execution, conflict processing and abort semantics are the
    scheduler's own.
    """

    def _commit_batch(self, batch):
        for priority in batch:
            self._commit_members([priority])


def _run(environment, operations, mappings, tracker_name, seed,
         scheduler_class=OptimisticScheduler, **scheduler_kwargs):
    store = VersionedDatabase(environment.schema)
    store.load_initial(environment.initial)
    scheduler = scheduler_class(
        store=store,
        mappings=mappings,
        tracker=make_tracker(tracker_name),
        oracle=RandomOracle(seed=seed),
        policy=make_policy("round-robin-step"),
        null_factory=NullFactory.avoiding_view(environment.initial, prefix="g"),
        **scheduler_kwargs,
    )
    scheduler.submit_all(operations)
    statistics = scheduler.run()
    return scheduler, statistics


def _assert_identical(environment, operations, mappings, tracker_name, seed):
    grouped, grouped_stats = _run(environment, operations, mappings, tracker_name, seed)
    single, single_stats = _run(
        environment, operations, mappings, tracker_name, seed,
        scheduler_class=SingletonCommitScheduler,
    )
    # Same committed repository, exactly (same seeds => same nulls).
    assert grouped.final_database().to_dict() == single.final_database().to_dict()
    # Same panels, counter for counter.
    for field in PANEL_FIELDS:
        assert getattr(grouped_stats, field) == getattr(single_stats, field), field
    # Same commit order and watermark.
    assert grouped._committed == single._committed
    assert grouped.commit_watermark() == single.commit_watermark()
    # The batching itself: both commit the same number of members, the group
    # path in no more (usually fewer) batches and compaction sweeps.
    assert grouped_stats.group_commit_members == single_stats.group_commit_members
    assert grouped_stats.group_commits <= single_stats.group_commits
    assert grouped.store.compactions <= single.store.compactions
    assert grouped_stats.group_commit_fallbacks == 0
    return grouped_stats, single_stats


@pytest.mark.parametrize("tracker_name", ["PRECISE", "COARSE", "NAIVE"])
@pytest.mark.parametrize("seed", [0, 1])
def test_insert_workloads_are_bit_identical(tracker_name, seed):
    config = ExperimentConfig.tiny_scale().scaled(seed=2009 + seed)
    environment = build_environment(config)
    mappings = mapping_prefix(environment.mappings, 10)
    operations = build_workload(environment, INSERT_WORKLOAD, config.seed)
    _assert_identical(environment, operations, mappings, tracker_name, config.seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_workloads_are_bit_identical(seed):
    config = ExperimentConfig.tiny_scale().scaled(seed=7 + seed, num_updates=16)
    environment = build_environment(config)
    mappings = mapping_prefix(environment.mappings, 10)
    operations = build_workload(environment, MIXED_WORKLOAD, config.seed)
    grouped_stats, _ = _assert_identical(
        environment, operations, mappings, "PRECISE", config.seed
    )
    assert grouped_stats.group_commit_members == grouped_stats.updates_terminated


def test_batch_listener_sees_union_write_set_once_per_batch():
    config = ExperimentConfig.tiny_scale()
    environment = build_environment(config)
    mappings = mapping_prefix(environment.mappings, 10)
    operations = build_workload(environment, INSERT_WORKLOAD, config.seed)

    store = VersionedDatabase(environment.schema)
    store.load_initial(environment.initial)
    scheduler = OptimisticScheduler(
        store=store,
        mappings=mappings,
        tracker=make_tracker("COARSE"),
        oracle=RandomOracle(seed=0),
        null_factory=NullFactory.avoiding_view(environment.initial, prefix="g"),
    )
    per_priority = []
    batches = []
    scheduler.add_commit_listener(
        lambda priority, writes: per_priority.append((priority, list(writes)))
    )
    scheduler.add_batch_commit_listener(lambda commits: batches.append(list(commits)))
    scheduler.submit_all(operations)
    scheduler.run()

    # Flattening the batch stream reproduces the per-priority stream exactly:
    # the union write set is the same writes, delivered once per batch.
    flattened = [(priority, writes) for batch in batches for priority, writes in batch]
    assert [priority for priority, _ in flattened] == [p for p, _ in per_priority]
    for (_, batch_writes), (_, single_writes) in zip(flattened, per_priority):
        assert batch_writes == single_writes
    assert len(batches) == scheduler.statistics.group_commits
    assert all(batch for batch in batches)
    assert sum(len(batch) for batch in batches) == len(scheduler._committed)


def test_failed_validation_falls_back_to_singletons():
    """A vetoed batch commits member-by-member with identical results."""

    class VetoingScheduler(OptimisticScheduler):
        def _validate_group(self, batch):
            return False

    config = ExperimentConfig.tiny_scale()
    environment = build_environment(config)
    mappings = mapping_prefix(environment.mappings, 10)
    operations = build_workload(environment, INSERT_WORKLOAD, config.seed)

    vetoed, vetoed_stats = _run(
        environment, operations, mappings, "PRECISE", config.seed,
        scheduler_class=VetoingScheduler,
        # The proof-carrying fast path would bypass the vetoed validation
        # entirely; this test is about the fallback, so force validation.
        proof_carrying_commit=False,
    )
    single, single_stats = _run(
        environment, operations, mappings, "PRECISE", config.seed,
        scheduler_class=SingletonCommitScheduler,
    )
    assert vetoed.final_database().to_dict() == single.final_database().to_dict()
    for field in PANEL_FIELDS:
        assert getattr(vetoed_stats, field) == getattr(single_stats, field), field
    # Every multi-member batch was vetoed and fell back.
    assert vetoed_stats.group_commits == single_stats.group_commits
    assert vetoed_stats.group_commit_fallbacks >= 0


@pytest.mark.parametrize("workload", [INSERT_WORKLOAD, MIXED_WORKLOAD])
@pytest.mark.parametrize("seed", [0, 1])
def test_proof_carrying_commit_skips_redundant_validation(workload, seed):
    """The fast path skips read-log re-checks with bit-identical semantics.

    Proof-carrying commit tracks "validated since the last conflict" per
    execution; when a whole batch carries the proof, the group-commit
    validation is skipped.  Both the committed store and every panel counter
    must match the always-validate path exactly, and on these workloads the
    fast path must actually fire (multi-member batches exist).
    """
    config = ExperimentConfig.tiny_scale()
    environment = build_environment(config)
    mappings = mapping_prefix(environment.mappings, 10)
    operations = build_workload(environment, workload, seed)

    fast, fast_stats = _run(
        environment, operations, mappings, "PRECISE", seed,
        proof_carrying_commit=True,
    )
    checked, checked_stats = _run(
        environment, operations, mappings, "PRECISE", seed,
        proof_carrying_commit=False,
    )
    assert fast.final_database().to_dict() == checked.final_database().to_dict()
    for field in PANEL_FIELDS:
        assert getattr(fast_stats, field) == getattr(checked_stats, field), field
    # Same batching either way; the only difference is validation work.
    assert fast_stats.group_commits == checked_stats.group_commits
    assert fast_stats.group_commit_members == checked_stats.group_commit_members
    assert fast_stats.group_commit_fallbacks == checked_stats.group_commit_fallbacks == 0
    if checked_stats.group_validation_cost_units > 0:
        # Every multi-member batch skipped its validation on the fast path.
        assert fast_stats.group_validation_skips > 0
        assert fast_stats.group_validation_cost_units == 0
    assert checked_stats.group_validation_skips == 0


def test_group_validation_passes_on_clean_runs():
    """Eager conflict processing leaves nothing for validation to find."""
    config = ExperimentConfig.tiny_scale()
    environment = build_environment(config)
    mappings = mapping_prefix(environment.mappings, 10)
    operations = build_workload(environment, INSERT_WORKLOAD, config.seed)
    grouped, stats = _run(environment, operations, mappings, "PRECISE", config.seed)
    assert stats.group_commit_fallbacks == 0
    # Validation cost is tracked, but outside the cost-model panels.
    assert stats.group_validation_cost_units >= 0
    assert stats.total_cost_units == (
        stats.tracker_cost_units + stats.conflict_cost_units + stats.chase_cost_units
    )
