"""Concurrency control: read logs, dependency trackers, optimistic scheduling.

This package implements Sections 4 and 5 of the paper: the chase-step system
model, the read-query log, direct-conflict detection, the optimistic scheduler
(Algorithm 4), the NAIVE / COARSE / PRECISE cascading-abort algorithms and the
final-state comparison of serial and concurrent runs.
"""

from .aborts import AbortDecision, RunStatistics, consolidate_aborts
from .conflicts import ConflictReport, find_direct_conflicts
from .dependencies import (
    CoarseTracker,
    DependencyTracker,
    HybridTracker,
    NaiveTracker,
    PreciseTracker,
    make_tracker,
)
from .execution import StepResult, UpdateExecution
from .optimistic import OptimisticScheduler, SchedulerStalled, run_concurrent_updates
from .policies import (
    LowestPriorityFirstPolicy,
    RoundRobinStepPolicy,
    RoundRobinStratumPolicy,
    SchedulingPolicy,
    make_policy,
)
from .readlog import ReadLog, ReadRecord
from .serializability import SerialExecutor, databases_isomorphic

__all__ = [
    "AbortDecision",
    "CoarseTracker",
    "ConflictReport",
    "DependencyTracker",
    "HybridTracker",
    "LowestPriorityFirstPolicy",
    "NaiveTracker",
    "OptimisticScheduler",
    "PreciseTracker",
    "ReadLog",
    "ReadRecord",
    "RoundRobinStepPolicy",
    "RoundRobinStratumPolicy",
    "RunStatistics",
    "SchedulerStalled",
    "SchedulingPolicy",
    "SerialExecutor",
    "StepResult",
    "UpdateExecution",
    "consolidate_aborts",
    "databases_isomorphic",
    "find_direct_conflicts",
    "make_policy",
    "make_tracker",
    "run_concurrent_updates",
]
