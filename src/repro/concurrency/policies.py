"""Scheduling policies: which update takes the next chase step, and for how long.

Section 5.2 leaves the scheduling policy open and discusses the trade-offs;
the experiments use "a round-robin policy that interleaves chases at the level
of individual steps".  That policy is the default here; a stratum-level policy
and a lowest-priority-first policy are provided for the scheduling ablation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from .execution import StepResult, UpdateExecution


class SchedulingPolicy(ABC):
    """Chooses the next update to run and how long it keeps the processor."""

    #: Machine-readable name used in experiment output.
    name: str = "abstract"

    @abstractmethod
    def next_update(self, ready: List[UpdateExecution]) -> UpdateExecution:
        """Pick the update that takes the next chase step (``ready`` is non-empty)."""

    def keep_running(self, execution: UpdateExecution, result: StepResult) -> bool:
        """``True`` when *execution* should immediately take another step."""
        return False

    def reset(self) -> None:
        """Reset internal state between runs."""


class RoundRobinStepPolicy(SchedulingPolicy):
    """Interleave updates at individual-step granularity (the paper's setting)."""

    name = "round-robin-step"

    def __init__(self) -> None:
        self._last_priority: Optional[int] = None

    def next_update(self, ready: List[UpdateExecution]) -> UpdateExecution:
        ordered = sorted(ready, key=lambda execution: execution.priority)
        if self._last_priority is None:
            chosen = ordered[0]
        else:
            after = [
                execution
                for execution in ordered
                if execution.priority > self._last_priority
            ]
            chosen = after[0] if after else ordered[0]
        self._last_priority = chosen.priority
        return chosen

    def reset(self) -> None:
        self._last_priority = None


class RoundRobinStratumPolicy(RoundRobinStepPolicy):
    """Round-robin, but let an update finish its deterministic stratum.

    The update keeps the processor until it terminates or consumes a frontier
    operation (the point where, with real humans, it would block).
    """

    name = "round-robin-stratum"

    def keep_running(self, execution: UpdateExecution, result: StepResult) -> bool:
        if result.terminated or result.frontier_consumed:
            return False
        return execution.is_active


class LowestPriorityFirstPolicy(SchedulingPolicy):
    """Always run the lowest-numbered active update.

    This drives execution close to serial order, which nearly eliminates
    conflicts at the price of no concurrency — a useful ablation baseline.
    """

    name = "lowest-priority-first"

    def next_update(self, ready: List[UpdateExecution]) -> UpdateExecution:
        return min(ready, key=lambda execution: execution.priority)

    def keep_running(self, execution: UpdateExecution, result: StepResult) -> bool:
        return execution.is_active and not result.terminated


def make_policy(name: str) -> SchedulingPolicy:
    """Build a policy from its name."""
    normalized = name.strip().lower()
    if normalized in ("round-robin-step", "step", "round-robin"):
        return RoundRobinStepPolicy()
    if normalized in ("round-robin-stratum", "stratum"):
        return RoundRobinStratumPolicy()
    if normalized in ("lowest-priority-first", "serial", "priority"):
        return LowestPriorityFirstPolicy()
    raise ValueError("unknown scheduling policy {!r}".format(name))
