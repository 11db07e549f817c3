"""Step-wise execution of one update over the multiversion store (Algorithm 2).

The optimistic scheduler interleaves updates at chase-step granularity.  Each
:class:`UpdateExecution` holds the state of one running update: the writes its
next step will perform, its violation queue, its firing state (via the shared
:class:`~repro.core.planner.RepairPlanner`), and counters.  A step

1. performs the pending writes (tagged with the update's priority number),
2. asks violation queries to discover the new violations those writes caused,
3. chooses the next violation and generates the corrective writes for the
   following step — consulting the frontier oracle when the repair is
   nondeterministic (the simulated human of Section 6 answers immediately).

Every read query performed along the way is reported to the scheduler through
a recorder callback so it can be logged for conflict checking and dependency
tracking.

With an asynchronous oracle (:class:`~repro.core.oracle.DeferredOracle`) the
consultation does not return an operation: the oracle raises
:class:`~repro.core.oracle.FrontierPending` and the execution **parks** in
``WAITING_FRONTIER``.  A parked execution takes no further steps — it is
excluded from scheduling, so no busy-stepping — until
:meth:`UpdateExecution.resume_with` supplies the human's answer, whereupon the
next step turns that answer into writes exactly as the synchronous path would
have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..core.frontier import FrontierOperation, writes_for_operation
from ..core.oracle import FrontierOracle, FrontierPending, PendingDecision
from ..core.planner import RepairPlanner
from ..core.terms import NullFactory
from ..core.tgd import Tgd
from ..core.update import UpdateStatus, UserOperation
from ..core.violations import Violation, violations_for_writes
from ..core.writes import Write
from ..query.base import ReadQuery
from ..query.compiled import compile_mappings
from ..storage.versioned import VersionedDatabase, VersionedWrite

#: Scheduler-provided callback: ``recorder(query, answer)``.
ReadRecorderCallback = Callable[[ReadQuery, object], None]


@dataclass
class StepResult:
    """What one chase step did."""

    #: Writes that actually changed the store (already logged by the store).
    applied: List[VersionedWrite] = field(default_factory=list)
    #: ``True`` when the update terminated at the end of this step.
    terminated: bool = False
    #: ``True`` when a frontier operation was consumed during this step.
    frontier_consumed: bool = False
    #: ``True`` when the update parked in ``WAITING_FRONTIER`` during this step.
    parked: bool = False
    #: The pending decision the update parked on (set iff ``parked``).
    decision: Optional[PendingDecision] = None
    #: Number of read queries performed during this step.
    read_queries: int = 0
    #: Work units spent evaluating read queries during this step.
    cost_units: int = 0


class UpdateExecution:
    """The running state of one update under the optimistic scheduler."""

    def __init__(
        self,
        priority: int,
        operation: UserOperation,
        store: VersionedDatabase,
        mappings: Sequence[Tgd],
        oracle: FrontierOracle,
        null_factory: NullFactory,
        attempt: int = 1,
        compiled=None,
    ):
        self.priority = priority
        self.operation = operation
        self.attempt = attempt
        self.status = UpdateStatus.PENDING
        self.steps_taken = 0
        self.frontier_operations = 0
        self.writes_performed = 0
        self._store = store
        self._mappings = list(mappings)
        #: Compiled plans shared process-wide through the global plan cache.
        #: Callers running many executions over one mapping set (the
        #: scheduler) pass their shared ``CompiledMappings`` so the
        #: relation-keyed lookup tables are built once, not per execution.
        self._compiled = compiled if compiled is not None else compile_mappings(
            self._mappings
        )
        self._oracle = oracle
        self._null_factory = null_factory
        self._planner = RepairPlanner(self._mappings, null_factory)
        self._pending_writes: Optional[List[Write]] = None
        self._violation_queue: List[Violation] = []
        #: Proof-carrying commit state, maintained by the scheduler: the
        #: conflict epoch at which this execution's logged writes were last
        #: eagerly conflict-checked (``None`` while it has performed no
        #: writes — a vacuous proof).  Group commit skips re-validating a
        #: batch whose members all carry the current epoch.
        self.validated_conflict_epoch: Optional[int] = None
        #: The decision this execution is parked on (``None`` unless parked).
        self.pending_decision: Optional[PendingDecision] = None
        self._frontier_answer: Optional[FrontierOperation] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_terminated(self) -> bool:
        """``True`` once the update has finished all its work."""
        return self.status is UpdateStatus.TERMINATED

    @property
    def is_aborted(self) -> bool:
        """``True`` once the update has been aborted (its restart is separate)."""
        return self.status is UpdateStatus.ABORTED

    @property
    def is_active(self) -> bool:
        """``True`` while the update can still take steps."""
        return self.status in (UpdateStatus.PENDING, UpdateStatus.RUNNING)

    @property
    def is_parked(self) -> bool:
        """``True`` while the update awaits an asynchronous frontier answer."""
        return self.status is UpdateStatus.WAITING_FRONTIER

    def describe(self) -> str:
        """Short description for logs."""
        return "update #{} (attempt {}): {}".format(
            self.priority, self.attempt, self.operation.describe()
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_step(self, recorder: Optional[ReadRecorderCallback] = None) -> StepResult:
        """Execute one chase step (Algorithm 2); returns what happened."""
        result = StepResult()
        if self.is_parked:
            # Parked executions are excluded from scheduling; this guard makes
            # a stray call cheap and visibly a no-op (no busy-stepping).
            result.parked = True
            result.decision = self.pending_decision
            return result
        if not self.is_active:
            result.terminated = self.is_terminated
            return result
        self.status = UpdateStatus.RUNNING
        view = self._store.view_for(self.priority)

        def record(query: ReadQuery, answer: object) -> None:
            result.read_queries += 1
            result.cost_units += query.evaluation_cost()
            if recorder is not None:
                recorder(query, answer)

        # ----- consume a posted frontier answer (resume after parking) -----
        if self._frontier_answer is not None:
            chosen = self._frontier_answer
            self._frontier_answer = None
            self.steps_taken += 1
            self.frontier_operations += 1
            result.frontier_consumed = True
            self._pending_writes = writes_for_operation(chosen, view, record)
            self._planner.note_frontier_operation(chosen)
            return result

        # ----- perform the pending writes -----
        if self._pending_writes is None:
            self._pending_writes = self.operation.initial_writes(view)
        applied_logged = self._store.apply_writes(self._pending_writes, self.priority)
        self._pending_writes = []
        result.applied = applied_logged
        self.writes_performed += len(applied_logged)
        self.steps_taken += 1

        # ----- discover new violations -----
        applied_writes = [logged.write for logged in applied_logged]
        new_violations = violations_for_writes(
            applied_writes, self._compiled, view, record
        )
        self._violation_queue = self._planner.refresh_queue(
            self._violation_queue, new_violations, view
        )

        # ----- plan the next corrective writes -----
        writes, self._violation_queue, _ = self._planner.next_deterministic_writes(
            self._violation_queue, view, record
        )
        if writes:
            self._pending_writes = writes
            return result

        if not self._violation_queue:
            self.status = UpdateStatus.TERMINATED
            result.terminated = True
            return result

        # ----- nondeterministic repair: consult the (simulated) human -----
        request = self._planner.build_request(self._violation_queue[0], view, record)
        if request is None:
            # The head violation vanished while building the request; the next
            # step will re-examine the queue.
            self._violation_queue = self._violation_queue[1:]
            return result
        try:
            chosen = self._oracle.decide(request, view)
        except FrontierPending as pending:
            # Asynchronous oracle: park until a client answers.  The planner's
            # firing state is kept so the eventual answer resumes mid-repair.
            self.status = UpdateStatus.WAITING_FRONTIER
            self.pending_decision = pending.decision
            result.parked = True
            result.decision = pending.decision
            return result
        self.frontier_operations += 1
        result.frontier_consumed = True
        self._pending_writes = writes_for_operation(chosen, view, record)
        self._planner.note_frontier_operation(chosen)
        return result

    def resume_with(self, operation: FrontierOperation) -> None:
        """Supply the answer to the decision this execution is parked on.

        The execution becomes active again; its next step turns *operation*
        into writes exactly as the synchronous oracle path would have.
        """
        if not self.is_parked:
            raise RuntimeError(
                "cannot resume {}: it is not parked (status {})".format(
                    self.describe(), self.status.value
                )
            )
        self._frontier_answer = operation
        self.pending_decision = None
        self.status = UpdateStatus.RUNNING

    def mark_budget_exhausted(self) -> None:
        """Terminal stamp for the scheduler's stall path.

        A parked execution's open question is cancelled — it can never be
        resumed within the exhausted budget, so late answers must be rejected
        rather than silently consumed.
        """
        if self.pending_decision is not None:
            self._oracle.cancel(self.pending_decision.decision_id)
            self.pending_decision = None
        self._frontier_answer = None
        self.status = UpdateStatus.BUDGET_EXHAUSTED

    def abort(self) -> None:
        """Mark this execution aborted (the scheduler rolls back its writes)."""
        if self.pending_decision is not None:
            # A parked execution's question is now moot; cancel it so late
            # answers are rejected instead of resuming a dead update.
            self._oracle.cancel(self.pending_decision.decision_id)
        self.status = UpdateStatus.ABORTED
        self._pending_writes = None
        self._violation_queue = []
        self.pending_decision = None
        self._frontier_answer = None
        self._planner.reset()

    def restart_as(self, new_priority: int) -> "UpdateExecution":
        """A fresh execution of the same operation under a new priority number."""
        return UpdateExecution(
            priority=new_priority,
            operation=self.operation,
            store=self._store,
            mappings=self._mappings,
            oracle=self._oracle,
            null_factory=self._null_factory,
            attempt=self.attempt + 1,
            compiled=self._compiled,
        )
