"""Section 6's panels as shapes: Figures 3 and 4 and the scheduling ablation.

The paper's experimental claim is that PRECISE dependency tracking cuts aborts
and cascading aborts compared with NAIVE and COARSE, and pays for that in
tracker work.  One :meth:`ExperimentConfig.small_scale` environment, built
once for this module, runs both figures and the ablation in this process, and
every case asserts a panel's *shape* in abort counts, cascading abort requests
and cost units.  Nothing here reads a clock, and no exact count is pinned:
execution still walks sets in hash order, and making it independent of the
hash seed may move the counts.  The shapes must hold under any hash seed.

``repro-experiment --figure 3|4`` prints the same panels as tables, and
``bench/`` is where wall-clock performance is measured.
"""

from __future__ import annotations

import pytest

from repro.concurrency.dependencies import CoarseTracker, HybridTracker, PreciseTracker
from repro.concurrency.optimistic import OptimisticScheduler
from repro.concurrency.policies import (
    LowestPriorityFirstPolicy,
    RoundRobinStepPolicy,
    RoundRobinStratumPolicy,
)
from repro.core.oracle import RandomOracle
from repro.core.terms import NullFactory
from repro.storage.versioned import VersionedDatabase
from repro.workload import (
    ExperimentConfig,
    INSERT_WORKLOAD,
    MIXED_WORKLOAD,
    build_environment,
    build_workload,
    run_workload_experiment,
)
from repro.workload.mapping_gen import mapping_prefix
from repro.workload.metrics import mean

WORKLOADS = (INSERT_WORKLOAD, MIXED_WORKLOAD)

#: The seed of the ablation's one conflict-heavy cell.
ABLATION_SEED = 77


@pytest.fixture(scope="module")
def config():
    # Three runs per cell smooth single-run noise at small scale.
    return ExperimentConfig.small_scale().scaled(runs_per_cell=3)


@pytest.fixture(scope="module")
def environment(config):
    return build_environment(config)


@pytest.fixture(scope="module")
def figures(config, environment):
    """Every cell of Figure 3 (all-insert) and Figure 4 (mixed 80/20)."""
    return {
        workload: run_workload_experiment(workload, config, environment)
        for workload in WORKLOADS
    }


def _densest(series):
    """The value at the highest mapping density of a per-algorithm series."""
    return {algorithm: points[-1][1] for algorithm, points in series.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_abort_ordering_between_algorithms(figures, workload):
    """Panel (a): NAIVE >= COARSE >= PRECISE aborts at the densest setting."""
    series = figures[workload].abort_series()
    top = _densest(series)
    # The densest cell must conflict, or the ordering below shows nothing.
    assert top["COARSE"] > 0
    assert top["NAIVE"] >= top["COARSE"] >= top["PRECISE"]
    # Aborts grow (weakly) with mapping density for every algorithm.
    for points in series.values():
        assert points[0][1] <= points[-1][1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_precise_makes_the_fewest_cascading_requests(figures, workload):
    """Panel (b): NAIVE and COARSE request at least as many cascading aborts
    as PRECISE at the densest setting, and PRECISE almost none at the
    sparsest."""
    series = figures[workload].cascading_request_series()
    top = _densest(series)
    assert top["NAIVE"] >= top["PRECISE"]
    assert top["COARSE"] >= top["PRECISE"]
    assert series["PRECISE"][0][1] <= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_precise_pays_in_tracker_work(figures, workload):
    """Panel (c): PRECISE costs more per update than COARSE at the densest
    setting, in the cost model rather than on the clock."""
    result = figures[workload]
    (densest, slowdown) = result.precise_slowdown_series(use_cost_model=True)[-1]
    assert slowdown > 1.0

    def tracker_cost_units(algorithm):
        runs = result.cell(densest, algorithm).runs
        return mean([run.tracker_cost_units for run in runs])

    assert tracker_cost_units("PRECISE") > tracker_cost_units("COARSE")


def _ablation_run(environment, tracker, policy, promote):
    """One all-insert run at the densest mapping setting."""
    mappings = mapping_prefix(
        environment.mappings, max(environment.config.mapping_counts)
    )
    store = VersionedDatabase(environment.schema)
    store.load_initial(environment.initial)
    scheduler = OptimisticScheduler(
        store=store,
        mappings=mappings,
        tracker=tracker,
        oracle=RandomOracle(seed=ABLATION_SEED),
        policy=policy,
        null_factory=NullFactory.avoiding_view(environment.initial, prefix="g"),
        promote_restarts_to_precise=promote,
    )
    scheduler.submit_all(build_workload(environment, INSERT_WORKLOAD, ABLATION_SEED))
    return scheduler.run()


@pytest.fixture(scope="module")
def ablation_aborts(environment):
    """Aborts of one conflict-heavy cell per scheduling and dependency policy;
    ``step`` (COARSE, step-level round robin) is both ablations' baseline."""
    variants = {
        "step": (CoarseTracker(), RoundRobinStepPolicy(), False),
        "stratum": (CoarseTracker(), RoundRobinStratumPolicy(), False),
        "serial": (CoarseTracker(), LowestPriorityFirstPolicy(), False),
        "PRECISE": (PreciseTracker(), RoundRobinStepPolicy(), False),
        "HYBRID": (HybridTracker(), RoundRobinStepPolicy(), True),
    }
    return {
        name: _ablation_run(environment, tracker, policy, promote).aborts
        for name, (tracker, policy, promote) in variants.items()
    }


def test_ablation_scheduling_policy(ablation_aborts):
    """Sections 4.1 and 5.2: near-serial scheduling never aborts; step- and
    stratum-level interleaving pay for their concurrency in aborts."""
    assert ablation_aborts["serial"] == 0
    assert ablation_aborts["step"] >= ablation_aborts["serial"]
    assert ablation_aborts["stratum"] >= ablation_aborts["serial"]


def test_ablation_dependency_policy(ablation_aborts):
    """Section 6's hybrid, which promotes a restarted update to PRECISE,
    aborts little more than COARSE; PRECISE aborts no more than COARSE."""
    coarse = ablation_aborts["step"]
    assert ablation_aborts["PRECISE"] <= coarse
    assert ablation_aborts["HYBRID"] <= coarse * 1.5 + 5
