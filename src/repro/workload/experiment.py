"""The end-to-end experiment harness reproducing Figures 3 and 4.

The paper compares the NAIVE, COARSE and PRECISE cascading-abort algorithms on
synthetic data: 100 relations, mappings varying from 20 (sparse) to 100
(dense) in a monotone family, an initial database of 10,000 tuples generated
by update exchange itself, and workloads of 500 updates (all inserts, or 80%
inserts / 20% deletes), each point averaged over 100 runs, with a round-robin
step-level scheduling policy and frontier operations simulated by uniform
random choice.

Running that exact configuration in pure Python takes hours, so the harness is
parameterized: :meth:`ExperimentConfig.paper_scale` reproduces the paper's
parameters, :meth:`ExperimentConfig.small_scale` (the default) shrinks every
dimension while preserving the qualitative shape of the curves;
``tests/workload/test_paper_panels.py`` asserts those shapes at small scale.

Run from the command line (:mod:`repro.workload.__main__`, the
``repro-experiment`` entry point)::

    python -m repro.workload --figure 3 --scale small
    python -m repro.workload --figure 4 --scale small --runs 3
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple as PyTuple

from ..concurrency.aborts import RunStatistics
from ..concurrency.dependencies import make_tracker
from ..concurrency.optimistic import OptimisticScheduler
from ..concurrency.policies import make_policy
from ..core.oracle import RandomOracle
from ..core.schema import DatabaseSchema
from ..core.terms import NullFactory
from ..core.tgd import MappingSet
from ..core.update import UserOperation
from ..storage.memory import FrozenDatabase
from ..storage.versioned import VersionedDatabase
from .data_gen import generate_initial_database
from .mapping_gen import generate_mappings, mapping_prefix
from .metrics import CellResult, ExperimentResult
from .schema_gen import generate_constant_pool, generate_schema
from .workloads import insert_workload, mixed_workload

#: Workload identifiers.
INSERT_WORKLOAD = "all-insert"
MIXED_WORKLOAD = "mixed-80-20"


@dataclass
class ExperimentConfig:
    """All knobs of the Section 6 experiment."""

    #: Number of relations in the synthetic schema.
    num_relations: int = 20
    #: Total number of mappings generated (prefixes of this family are used).
    max_mappings: int = 25
    #: Mapping densities to evaluate (must be ≤ ``max_mappings``).
    mapping_counts: PyTuple[int, ...] = (5, 10, 15, 20, 25)
    #: Number of seed tuples inserted while generating the initial database.
    num_initial_tuples: int = 120
    #: Number of updates per workload.
    num_updates: int = 40
    #: Runs (with different seeds) averaged per cell.
    runs_per_cell: int = 2
    #: Algorithms compared.
    algorithms: PyTuple[str, ...] = ("NAIVE", "COARSE", "PRECISE")
    #: Scheduling policy name (the paper uses step-level round robin).
    policy: str = "round-robin-step"
    #: Size of the constant pool.
    constant_pool_size: int = 50
    #: Base random seed.
    seed: int = 2009
    #: Fraction of deletes in the mixed workload.
    delete_fraction: float = 0.2
    #: Safety valve on total scheduler steps per run.
    max_total_steps: int = 2_000_000

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The configuration reported in the paper (expensive in pure Python)."""
        return cls(
            num_relations=100,
            max_mappings=100,
            mapping_counts=(20, 40, 60, 80, 100),
            num_initial_tuples=10_000,
            num_updates=500,
            runs_per_cell=100,
        )

    @classmethod
    def small_scale(cls) -> "ExperimentConfig":
        """The default scaled-down configuration (seconds per cell)."""
        return cls()

    @classmethod
    def tiny_scale(cls) -> "ExperimentConfig":
        """An even smaller configuration for unit tests and CI."""
        return cls(
            num_relations=8,
            max_mappings=10,
            mapping_counts=(4, 10),
            num_initial_tuples=40,
            num_updates=12,
            runs_per_cell=1,
        )

    def scaled(self, **overrides) -> "ExperimentConfig":
        """A copy with selected fields overridden."""
        return replace(self, **overrides)


@dataclass
class ExperimentEnvironment:
    """Everything shared between the cells of one experiment run."""

    config: ExperimentConfig
    schema: DatabaseSchema
    mappings: MappingSet
    constant_pool: List[str]
    initial: FrozenDatabase


def build_environment(
    config: ExperimentConfig, seed: Optional[int] = None
) -> ExperimentEnvironment:
    """Generate schema, the full mapping family and the initial database."""
    seed = config.seed if seed is None else seed
    rng = random.Random(seed)
    schema = generate_schema(
        num_relations=config.num_relations, rng=random.Random(rng.random())
    )
    constant_pool = generate_constant_pool(
        size=config.constant_pool_size, rng=random.Random(rng.random())
    )
    mappings = generate_mappings(
        schema,
        config.max_mappings,
        rng=random.Random(rng.random()),
        constant_pool=constant_pool,
    )
    initial_db = generate_initial_database(
        schema,
        mappings,
        config.num_initial_tuples,
        constant_pool,
        rng=random.Random(rng.random()),
    )
    return ExperimentEnvironment(
        config=config,
        schema=schema,
        mappings=mappings,
        constant_pool=constant_pool,
        initial=initial_db.snapshot(),
    )


def build_workload(
    environment: ExperimentEnvironment, kind: str, seed: int
) -> List[UserOperation]:
    """The update operations for one run of the given workload kind."""
    config = environment.config
    rng = random.Random(seed)
    if kind == INSERT_WORKLOAD:
        return insert_workload(
            environment.schema,
            config.num_updates,
            environment.constant_pool,
            rng=rng,
        )
    if kind == MIXED_WORKLOAD:
        return mixed_workload(
            environment.schema,
            environment.initial,
            config.num_updates,
            environment.constant_pool,
            rng=rng,
            delete_fraction=config.delete_fraction,
        )
    raise ValueError("unknown workload kind {!r}".format(kind))


def run_cell_once(
    environment: ExperimentEnvironment,
    mapping_count: int,
    algorithm: str,
    workload_kind: str,
    seed: int,
) -> RunStatistics:
    """One concurrent run: one workload, one mapping density, one algorithm."""
    config = environment.config
    mappings = mapping_prefix(environment.mappings, mapping_count)
    operations = build_workload(environment, workload_kind, seed)
    store = VersionedDatabase(environment.schema)
    store.load_initial(environment.initial)
    tracker = make_tracker(algorithm)
    scheduler = OptimisticScheduler(
        store=store,
        mappings=mappings,
        tracker=tracker,
        oracle=RandomOracle(seed=seed),
        policy=make_policy(config.policy),
        null_factory=NullFactory.avoiding_view(environment.initial, prefix="g"),
        max_total_steps=config.max_total_steps,
    )
    scheduler.submit_all(operations)
    return scheduler.run()


def run_workload_experiment(
    workload_kind: str,
    config: Optional[ExperimentConfig] = None,
    environment: Optional[ExperimentEnvironment] = None,
    progress: Optional[callable] = None,
) -> ExperimentResult:
    """Run the full grid (mapping counts × algorithms × runs) for one workload."""
    config = config if config is not None else ExperimentConfig.small_scale()
    if environment is None:
        environment = build_environment(config)
    result = ExperimentResult(workload=workload_kind)
    for mapping_count in config.mapping_counts:
        for algorithm in config.algorithms:
            cell = CellResult(
                workload=workload_kind,
                mapping_count=mapping_count,
                algorithm=algorithm,
            )
            for run_index in range(config.runs_per_cell):
                seed = config.seed + 1000 * run_index + mapping_count
                statistics = run_cell_once(
                    environment, mapping_count, algorithm, workload_kind, seed
                )
                cell.runs.append(statistics)
                if progress is not None:
                    progress(workload_kind, mapping_count, algorithm, run_index, statistics)
            result.cells.append(cell)
    return result
