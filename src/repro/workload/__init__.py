"""Synthetic workloads, closed-loop service drivers, and the Section 6 harness."""

from .closed_loop import (
    ClientSpec,
    ClosedLoopClient,
    ClosedLoopDriver,
    DriverReport,
    conservative_answer,
)
from .data_gen import generate_initial_database, random_seed_tuple
from .experiment import (
    INSERT_WORKLOAD,
    MIXED_WORKLOAD,
    ExperimentConfig,
    ExperimentEnvironment,
    build_environment,
    build_workload,
    run_cell_once,
    run_workload_experiment,
)
from .mapping_gen import generate_mapping, generate_mappings, mapping_prefix
from .metrics import CellResult, ExperimentResult, mean
from .schema_gen import generate_constant_pool, generate_schema
from .workloads import insert_workload, mixed_workload

__all__ = [
    "CellResult",
    "ClientSpec",
    "ClosedLoopClient",
    "ClosedLoopDriver",
    "DriverReport",
    "conservative_answer",
    "ExperimentConfig",
    "ExperimentEnvironment",
    "ExperimentResult",
    "INSERT_WORKLOAD",
    "MIXED_WORKLOAD",
    "build_environment",
    "build_workload",
    "generate_constant_pool",
    "generate_initial_database",
    "generate_mapping",
    "generate_mappings",
    "generate_schema",
    "insert_workload",
    "mapping_prefix",
    "mean",
    "mixed_workload",
    "random_seed_tuple",
    "run_cell_once",
    "run_workload_experiment",
]
