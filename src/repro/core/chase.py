"""The Youtopia chase engine for a single update (Algorithm 1).

The engine runs the forward and backward chase variants interleaved, as
dictated by the kinds of the violations in its queue: LHS-violations are
repaired forward (generating tuples, possibly stopping at a positive
frontier), RHS-violations backward (deleting witness tuples, possibly stopping
at a negative frontier).  Whenever no deterministic repair is possible and
violations remain, the engine consults its :class:`~repro.core.oracle.FrontierOracle`
— the stand-in for the human user — and resumes with the writes the chosen
frontier operation implies.

This engine operates on a single-version :class:`~repro.storage.interface.MutableDatabase`
and is what the examples, fixtures and the initial-database generator use.
The concurrency-control layer drives the same repair logic step by step over
the multiversion store; see :mod:`repro.concurrency.execution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..query.compiled import compile_mappings
from ..storage.interface import MutableDatabase
from .frontier import writes_for_operation
from .oracle import AlwaysUnifyOracle, FrontierOracle
from .planner import RepairPlanner
from .provenance import ChaseTree
from .terms import NullFactory
from .tgd import Tgd
from .update import UpdateRecord, UpdateStatus, UserOperation
from .violations import Violation, violations_for_writes
from .writes import Write, WriteKind


class ChaseBudgetExceeded(RuntimeError):
    """Raised when ``raise_on_budget=True`` and the step budget runs out."""


@dataclass
class ChaseConfig:
    """Tunable limits and switches for a chase run."""

    #: Maximum number of chase steps (write-set applications) per update.
    max_steps: int = 10_000
    #: Maximum number of frontier operations per update.
    max_frontier_operations: int = 10_000
    #: Raise instead of returning an unterminated record when a budget is hit.
    raise_on_budget: bool = False
    #: Record a provenance tree for the run.
    track_provenance: bool = True


class ChaseEngine:
    """Runs complete Youtopia updates against a single-version database."""

    def __init__(
        self,
        database: MutableDatabase,
        mappings: Sequence[Tgd],
        oracle: Optional[FrontierOracle] = None,
        null_factory: Optional[NullFactory] = None,
        config: Optional[ChaseConfig] = None,
    ):
        self._database = database
        self._mappings: List[Tgd] = list(mappings)
        #: Shared compiled plans: one compilation per mapping per process.
        self._compiled = compile_mappings(self._mappings)
        self._oracle = oracle if oracle is not None else AlwaysUnifyOracle()
        if null_factory is None:
            # Start numbering past the nulls already stored so that "fresh"
            # really means fresh (Example 1.1 generates x3 because x1 and x2
            # are already taken in Figure 2).
            null_factory = NullFactory.avoiding_view(database)
        self._null_factory = null_factory
        self._config = config if config is not None else ChaseConfig()
        self.last_provenance: Optional[ChaseTree] = None

    @property
    def database(self) -> MutableDatabase:
        """The database the engine chases over."""
        return self._database

    @property
    def mappings(self) -> List[Tgd]:
        """The mappings maintained by the engine."""
        return list(self._mappings)

    @property
    def oracle(self) -> FrontierOracle:
        """The frontier oracle consulted when nondeterminism is reached."""
        return self._oracle

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, operation: UserOperation) -> UpdateRecord:
        """Execute the complete update induced by *operation* (Definition 2.6)."""
        record = UpdateRecord(operation=operation, status=UpdateStatus.RUNNING)
        planner = RepairPlanner(self._mappings, self._null_factory)
        tree = ChaseTree() if self._config.track_provenance else None
        root_id = tree.add_event(operation.describe()) if tree is not None else None
        self.last_provenance = tree

        write_set: List[Write] = operation.initial_writes(self._database)
        violation_queue: List[Violation] = []

        while True:
            # ---------------- deterministic stratum ----------------
            while write_set:
                if record.steps >= self._config.max_steps:
                    return self._budget_exhausted(record)
                record.steps += 1
                applied = self._apply_writes(write_set, record, tree, root_id)
                new_violations = violations_for_writes(
                    applied, self._compiled, self._database
                )
                if tree is not None:
                    for violation in new_violations:
                        tree.add_violation(
                            violation, caused_by=[root_id] if root_id else []
                        )
                violation_queue = planner.refresh_queue(
                    violation_queue, new_violations, self._database
                )
                write_set, violation_queue, examined = planner.next_deterministic_writes(
                    violation_queue, self._database
                )
                record.violations_processed += examined

            # ---------------- stratum ended ----------------
            violation_queue = planner.refresh_queue(violation_queue, [], self._database)
            if not violation_queue:
                record.terminated = True
                record.status = UpdateStatus.TERMINATED
                return record
            if record.frontier_operation_count >= self._config.max_frontier_operations:
                return self._budget_exhausted(record)

            record.status = UpdateStatus.WAITING_FRONTIER
            request = planner.build_request(violation_queue[0], self._database)
            if request is None:
                violation_queue = violation_queue[1:]
                continue
            chosen = self._oracle.decide(request, self._database)
            record.frontier_operations.append(chosen)
            record.status = UpdateStatus.RUNNING
            if tree is not None:
                tree.add_event(chosen.describe(), caused_by=[root_id] if root_id else [])
            write_set = writes_for_operation(chosen, self._database)
            planner.note_frontier_operation(chosen)
            if not write_set:
                # A unification whose nulls occur nowhere in the database
                # produces no writes; the planner bookkeeping above is the
                # progress, so fall through and re-plan.
                write_set, violation_queue, examined = planner.next_deterministic_writes(
                    violation_queue, self._database
                )
                record.violations_processed += examined

    def run_all(self, operations: Sequence[UserOperation]) -> List[UpdateRecord]:
        """Run several updates serially, in the order given."""
        return [self.run(operation) for operation in operations]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _budget_exhausted(self, record: UpdateRecord) -> UpdateRecord:
        record.terminated = False
        record.status = UpdateStatus.BUDGET_EXHAUSTED
        if self._config.raise_on_budget:
            raise ChaseBudgetExceeded(
                "chase exceeded its budget: {}".format(record.summary())
            )
        return record

    def _apply_writes(
        self,
        write_set: Sequence[Write],
        record: UpdateRecord,
        tree: Optional[ChaseTree],
        root_id: Optional[int],
    ) -> List[Write]:
        """Apply *write_set* to the database; return the writes that had effect."""
        applied: List[Write] = []
        for write in write_set:
            changed = False
            if write.kind is WriteKind.INSERT:
                changed = self._database.insert(write.row)
            elif write.kind is WriteKind.DELETE:
                changed = self._database.delete(write.row)
            else:
                if write.old_row is not None and self._database.contains(write.old_row):
                    self._database.delete(write.old_row)
                    self._database.insert(write.row)
                    changed = True
            if changed:
                applied.append(write)
                record.writes.append(write)
                if tree is not None:
                    tree.add_write(write, caused_by=[root_id] if root_id else [])
        return applied

