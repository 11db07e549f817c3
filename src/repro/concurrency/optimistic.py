"""The optimistic scheduler (Algorithm 4) with pluggable cascading-abort policy.

Updates are admitted with increasing priority numbers and interleaved at chase
step granularity according to a :class:`~repro.concurrency.policies.SchedulingPolicy`.
After every step the scheduler checks the step's writes against the stored
read queries of higher-numbered updates; readers whose answers changed are
aborted together with (depending on the dependency tracker) the updates that
read from them.  Aborted updates are rolled back in the multiversion store and
restarted under a fresh, higher priority number.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple as PyTuple

from ..core.frontier import FrontierOperation
from ..core.oracle import FrontierOracle, RandomOracle
from ..core.terms import NullFactory
from ..core.tgd import Tgd
from ..core.update import UserOperation
from ..obs.trace import SpanContext, default_tracer
from ..query.base import ReadQuery
from ..query.compiled import compile_mappings
from ..storage.interface import DatabaseView
from ..storage.memory import FrozenDatabase
from ..storage.versioned import VersionedDatabase, VersionedWrite
from .aborts import RunStatistics, consolidate_aborts
from .conflicts import find_direct_conflicts
from .dependencies import DependencyTracker, HybridTracker
from .execution import StepResult, UpdateExecution
from .policies import RoundRobinStepPolicy, SchedulingPolicy
from .readlog import ReadLog


class SchedulerStalled(RuntimeError):
    """Raised when the scheduler exceeds its global step budget."""

    #: What the service pump had done, when ``RepositoryService.pump`` re-raises.
    report = None


class OptimisticScheduler:
    """Runs a batch of updates concurrently under optimistic concurrency control."""

    def __init__(
        self,
        store: VersionedDatabase,
        mappings: Sequence[Tgd],
        tracker: DependencyTracker,
        oracle: Optional[FrontierOracle] = None,
        policy: Optional[SchedulingPolicy] = None,
        null_factory: Optional[NullFactory] = None,
        max_total_steps: int = 1_000_000,
        promote_restarts_to_precise: bool = False,
        prune_committed: bool = False,
        proof_carrying_commit: bool = True,
        tracer=None,
        trace_peer: str = "",
    ):
        self._store = store
        self._tracer = tracer if tracer is not None else default_tracer()
        self._trace_peer = trace_peer
        #: Priority → parent span context of the traced update running under
        #: it (transferred to the restart priority on abort, dropped at
        #: commit).  Empty whenever tracing is disabled.
        self._trace_contexts: Dict[int, SpanContext] = {}
        self._mappings = list(mappings)
        #: One shared CompiledMappings for every execution this scheduler
        #: admits or restarts (the per-mapping plans are process-cached, but
        #: the relation-keyed lookup tables used to be rebuilt per execution).
        self._compiled_mappings = compile_mappings(self._mappings)
        self._tracker = tracker
        self._oracle = oracle if oracle is not None else RandomOracle(seed=0)
        self._policy = policy if policy is not None else RoundRobinStepPolicy()
        if null_factory is None:
            null_factory = NullFactory.avoiding_view(store.latest_view())
        self._null_factory = null_factory
        self._max_total_steps = max_total_steps
        self._promote_restarts = promote_restarts_to_precise
        #: Long-running callers (the service layer) drop committed executions
        #: so per-pump scans stay proportional to the in-flight set, not to
        #: everything ever served.  Batch callers keep them for inspection.
        self._prune_committed = prune_committed
        #: Proof-carrying commit (the default): group-commit validation is
        #: skipped when every batch member's writes were eagerly
        #: conflict-checked and no direct conflict has occurred anywhere
        #: since — the re-check could only repeat verdicts already rendered.
        #: ``False`` restores the unconditional safety-net validation (the
        #: reference the differential tests pin the fast path against).
        self._proof_carrying_commit = proof_carrying_commit
        #: Monotone count of conflict-processing rounds that found at least
        #: one direct conflict; executions stamp their last eager check with
        #: it (see :attr:`UpdateExecution.validated_conflict_epoch`).
        self._conflict_epoch = 0
        self._pruned_terminated = 0

        self._executions: Dict[int, UpdateExecution] = {}
        self._committed: Set[int] = set()
        self._commit_watermark = 0
        self._newly_committed: List[int] = []
        self._read_log = ReadLog()
        self._next_priority = 1
        self._total_steps = 0
        self._newly_restarted: List[PyTuple[int, int]] = []
        self._commit_listeners: List[Callable[[int, List[VersionedWrite]], None]] = []
        self._batch_commit_listeners: List[
            Callable[[List[PyTuple[int, List[VersionedWrite]]]], None]
        ] = []
        self.statistics = RunStatistics(algorithm=tracker.name)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, operation: UserOperation, trace: Optional[SpanContext] = None
    ) -> int:
        """Admit one update; returns its priority number.

        *trace* is the submitting ticket's root span context; chase-step,
        validation and commit spans of this priority (and of every restart
        priority it moves to after aborts) parent into it.
        """
        priority = self._next_priority
        self._next_priority += 1
        if trace is not None and self._tracer.enabled:
            self._trace_contexts[priority] = trace
        execution = UpdateExecution(
            priority=priority,
            operation=operation,
            store=self._store,
            mappings=self._mappings,
            oracle=self._oracle,
            null_factory=self._null_factory,
            compiled=self._compiled_mappings,
        )
        self._executions[priority] = execution
        self.statistics.updates_submitted += 1
        self.statistics.updates_executed += 1
        return priority

    def submit_all(self, operations: Sequence[UserOperation]) -> List[int]:
        """Admit several updates in order; returns their priority numbers."""
        return [self.submit(operation) for operation in operations]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> RunStatistics:
        """Run every admitted update to termination; returns the statistics.

        This is the batch entry point: with a synchronous oracle every update
        terminates (or the step budget trips).  With an asynchronous
        :class:`~repro.core.oracle.DeferredOracle` updates may park on frontier
        questions that batch mode can never answer, so leftover parked updates
        raise :class:`SchedulerStalled` — long-running callers should drive
        :meth:`pump` and :meth:`resume` instead (the service layer does).
        """
        started = time.perf_counter()
        self._policy.reset()
        self.pump()
        parked = self.parked_executions()
        if parked:
            raise SchedulerStalled(
                "{} update(s) parked on unanswered frontier decisions; "
                "batch run() cannot finish — drive pump()/resume() instead".format(
                    len(parked)
                )
            )
        self.statistics.wall_seconds = time.perf_counter() - started
        self.refresh_statistics()
        return self.statistics

    def pump(self, max_steps: Optional[int] = None) -> int:
        """Take chase steps until nothing is runnable (or *max_steps* taken).

        Returns the number of steps taken.  The scheduler is *drained* when
        this returns less than *max_steps*: every remaining execution is
        terminated or parked in ``WAITING_FRONTIER``, and progress requires
        either a new :meth:`submit` or a :meth:`resume` with a frontier
        answer.  Parked executions are never stepped (no busy-waiting).
        """
        taken = 0
        while True:
            ready = [
                execution
                for execution in self._executions.values()
                if execution.is_active
            ]
            if not ready:
                break
            execution = self._policy.next_update(ready)
            while True:
                if max_steps is not None and taken >= max_steps:
                    self._advance_commit_watermark()
                    return taken
                if self._total_steps >= self._max_total_steps:
                    self._mark_budget_exhausted()
                    raise SchedulerStalled(
                        "scheduler exceeded {} total steps".format(self._max_total_steps)
                    )
                self._total_steps += 1
                taken += 1
                result = self._run_one_step(execution)
                if not self._policy.keep_running(execution, result):
                    break
            self._advance_commit_watermark()
        return taken

    def resume(self, priority: int, operation: FrontierOperation) -> None:
        """Answer the frontier decision the update numbered *priority* parked on.

        The update becomes runnable again; the next :meth:`pump` continues it
        with the writes *operation* implies.
        """
        execution = self._executions.get(priority)
        if execution is None:
            raise KeyError("no execution with priority {}".format(priority))
        execution.resume_with(operation)
        self.statistics.frontier_resumes += 1

    def refresh_statistics(self) -> RunStatistics:
        """Fold current tracker/termination counters into the statistics."""
        self.statistics.tracker_cost_units = self._tracker.cost_units
        self.statistics.updates_terminated = self._pruned_terminated + sum(
            1 for execution in self._executions.values() if execution.is_terminated
        )
        return self.statistics

    def _mark_budget_exhausted(self) -> None:
        """Stall path: stamp unfinished updates with ``BUDGET_EXHAUSTED``.

        Parked updates are included — no remaining budget could run their
        resumption — and their open frontier questions get cancelled.
        """
        for execution in self._executions.values():
            if execution.is_active or execution.is_parked:
                execution.mark_budget_exhausted()

    def _run_one_step(self, execution: UpdateExecution) -> StepResult:
        reader = execution.priority
        # The abortable set and the reader's view are invariant within one
        # step (submissions, aborts and commits all happen between steps), so
        # they are computed once instead of once per recorded read.
        abortable = self._abortable()
        reader_view = self._store.view_for(reader)

        tracer = self._tracer
        step_span = None
        if tracer.enabled:
            context = self._trace_contexts.get(reader)
            if context is not None:
                step_span = tracer.start_span(
                    "chase-step",
                    phase="chase",
                    parent=context,
                    peer=self._trace_peer,
                    priority=reader,
                )

        if step_span is None:
            # The untraced recorder: byte-for-byte the pre-tracing hot path.
            def recorder(query: ReadQuery, answer: object) -> None:
                dependencies = self._tracker.dependencies(
                    query,
                    reader,
                    self._store,
                    reader_view,
                    abortable,
                )
                self._read_log.record(reader, query, dependencies)
                self.statistics.read_queries += 1

        else:
            # Traced: also meter the violation/dependency-query slice of the
            # step, reattributed chase → validate by the analysis layer.
            clock = tracer.clock
            tracker_box = [0.0]

            def recorder(query: ReadQuery, answer: object) -> None:
                before = clock()
                dependencies = self._tracker.dependencies(
                    query,
                    reader,
                    self._store,
                    reader_view,
                    abortable,
                )
                tracker_box[0] += clock() - before
                self._read_log.record(reader, query, dependencies)
                self.statistics.read_queries += 1

        result = execution.run_step(recorder)
        self.statistics.steps += 1
        self.statistics.writes += len(result.applied)
        self.statistics.chase_cost_units += result.cost_units
        if result.frontier_consumed:
            self.statistics.frontier_operations += 1
        if result.parked:
            self.statistics.frontier_parks += 1
        if result.applied:
            if step_span is not None:
                before = tracer.clock()
                self._process_conflicts(result, abortable)
                after = tracer.clock()
                # Phase-less on purpose: its time is accounted through the
                # parent step's ``tracker_seconds`` reattribution (a phased
                # nested span would be counted twice).
                tracer.record_span(
                    "conflict-check",
                    before,
                    after,
                    parent=step_span,
                    peer=self._trace_peer,
                    writes=len(result.applied),
                )
                # The check is nested inside the chase-step interval; fold
                # its duration into the reattribution attr so the analysis
                # layer moves it out of the chase phase (no double count).
                tracker_box[0] += after - before
            else:
                self._process_conflicts(result, abortable)
            # The step's writes have now been checked against every logged
            # read; stamp the execution with the current conflict epoch (its
            # earlier writes were stamped the same way by earlier steps).
            execution.validated_conflict_epoch = self._conflict_epoch
        if step_span is not None:
            tracer.end_span(step_span, tracker_seconds=tracker_box[0])
        return result

    def _process_conflicts(self, result: StepResult, abortable: Set[int]) -> None:
        """Check the step's writes against the read log; abort who they hit.

        *abortable* is the step's own set: nothing submits, aborts or commits
        between its computation and this call.
        """
        report = find_direct_conflicts(
            result.applied, self._read_log, self._store, abortable
        )
        self.statistics.conflict_cost_units += report.cost_units
        if not report.direct_conflicts:
            return
        # Conflicts change the in-flight picture (readers abort, restarts
        # appear); advance the epoch so proof-carrying commit re-validates
        # any batch containing writes checked before this round.
        self._conflict_epoch += 1
        decision = consolidate_aborts(
            report.direct_conflicts, self._read_log, self._tracker, abortable
        )
        self.statistics.cascading_abort_requests += decision.cascading_requests
        for victim in sorted(decision.all_victims(), reverse=True):
            self._abort(victim, direct=victim in decision.direct)

    def _abort(self, victim: int, direct: bool) -> None:
        execution = self._executions.get(victim)
        if execution is None or victim in self._committed:
            return
        self._store.rollback(victim)
        self._read_log.remove_reader(victim)
        execution.abort()
        del self._executions[victim]
        self.statistics.aborts += 1
        if direct:
            self.statistics.direct_aborts += 1
        else:
            self.statistics.cascading_aborts += 1
        restart_priority = self._next_priority
        self._next_priority += 1
        restart = execution.restart_as(restart_priority)
        self._executions[restart_priority] = restart
        self.statistics.updates_executed += 1
        context = self._trace_contexts.pop(victim, None)
        if context is not None:
            # The restart keeps the ticket's identity, so it keeps the trace.
            self._trace_contexts[restart_priority] = context
            self._tracer.event(
                "abort",
                parent=context,
                peer=self._trace_peer,
                priority=victim,
                restart_priority=restart_priority,
                direct=direct,
            )
        if self._promote_restarts and isinstance(self._tracker, HybridTracker):
            self._tracker.promote(restart_priority)
        self._newly_restarted.append((victim, restart_priority))

    def _abortable(self) -> Set[int]:
        return {
            priority
            for priority in self._executions
            if priority not in self._committed
        }

    def _advance_commit_watermark(self) -> None:
        """Commit terminated updates from the lowest priority upwards.

        An update can no longer be aborted once it has terminated and every
        lower-numbered update has committed: no future write can come from a
        lower-numbered update.  The maximal run of such updates forms one
        *commit batch*, committed by :meth:`_commit_batch` with one watermark
        advance, one batch-listener round and one compaction sweep — the
        per-commit fixed costs are paid once per batch instead of once per
        update.
        """
        # Cheap pre-check before sorting: most steps terminate nothing, and
        # the commit batch can only be non-empty when something did.
        if not any(
            execution.is_terminated for execution in self._executions.values()
        ):
            return
        batch: List[int] = []
        for priority in sorted(self._executions):
            if priority in self._committed:
                continue
            if not self._executions[priority].is_terminated:
                break
            batch.append(priority)
        if batch:
            self._commit_batch(batch)

    def _commit_batch(self, batch: List[int]) -> None:
        """Validate one commit batch against the read log and commit it.

        An intra-batch conflict (impossible under eager conflict processing,
        but validated anyway) falls back to committing each member as its
        own singleton batch, which is bit-identical in abort/cascade/cost
        semantics and differs only in amortization.
        """
        if len(batch) > 1 and self._batch_proof_carried(batch):
            # Proof-carrying fast path: every member's writes were eagerly
            # checked and nothing conflicted since — skip the redundant
            # read-log re-check entirely.
            self.statistics.group_validation_skips += 1
            self._commit_members(batch)
        elif len(batch) > 1 and not self._timed_validate_group(batch):
            self.statistics.group_commit_fallbacks += 1
            for priority in batch:
                self._commit_members([priority])
        else:
            self._commit_members(batch)

    def _batch_proof_carried(self, batch: List[int]) -> bool:
        """``True`` when the batch provably needs no read-log re-validation.

        An execution's writes were each conflict-checked (and conflicting
        readers aborted) the moment they were applied; only a *later*
        conflict round could change the picture its checks ran against.  So
        a batch is proof-carried when every member either performed no
        writes (a vacuous proof) or carries the current conflict epoch.
        """
        if not self._proof_carrying_commit:
            return False
        for priority in batch:
            epoch = self._executions[priority].validated_conflict_epoch
            if epoch is not None and epoch != self._conflict_epoch:
                return False
        return True

    def _timed_validate_group(self, batch: List[int]) -> bool:
        """Group validation wrapped in a ``group-validate`` span when traced."""
        tracer = self._tracer
        if not tracer.enabled:
            return self._validate_group(batch)
        before = tracer.clock()
        valid = self._validate_group(batch)
        after = tracer.clock()
        for priority in batch:
            context = self._trace_contexts.get(priority)
            if context is not None:
                tracer.record_span(
                    "group-validate",
                    before,
                    after,
                    phase="validate",
                    parent=context,
                    peer=self._trace_peer,
                    batch=len(batch),
                    valid=valid,
                )
                break  # one span per batch, parented into its first traced member
        return valid

    def _validate_group(self, batch: List[int]) -> bool:
        """Check the batch's union write set against its members' read logs.

        Every member's reads were already conflict-checked eagerly as the
        writes happened (and conflicting readers aborted), so a surviving
        intra-batch conflict would indicate a scheduler bug — the validation
        is the group-commit safety net, and its cost is accounted separately
        so the cost-model panels stay identical to the singleton path.
        """
        writes: List[VersionedWrite] = []
        for priority in batch:
            writes.extend(self._store.writes_by(priority))
        report = find_direct_conflicts(writes, self._read_log, self._store, set(batch))
        self.statistics.group_validation_cost_units += report.cost_units
        return not report.direct_conflicts

    def _commit_members(self, members: List[int]) -> None:
        """Commit *members* (contiguous, terminated) as one batch."""
        need_writes = bool(self._commit_listeners or self._batch_commit_listeners)
        commits: List[PyTuple[int, List[VersionedWrite]]] = []
        for priority in members:
            self._committed.add(priority)
            self._commit_watermark = priority
            self._newly_committed.append(priority)
            context = self._trace_contexts.pop(priority, None)
            if context is not None:
                self._tracer.event(
                    "commit",
                    parent=context,
                    peer=self._trace_peer,
                    priority=priority,
                    batch=len(members),
                )
            if need_writes:
                # The logged writes are about to be compacted away; hand the
                # listeners a stable copy, evaluated while ``view_for(priority)``
                # is still the exact committed snapshot of this update.
                writes = list(self._store.writes_by(priority))
            else:
                writes = []
            for listener in self._commit_listeners:
                listener(priority, writes)
            commits.append((priority, writes))
            self._read_log.remove_reader(priority)
            if self._prune_committed:
                # Committed executions can never be touched again; dropping
                # them keeps the per-pump ready/parked scans O(in-flight).
                del self._executions[priority]
                self._pruned_terminated += 1
        for listener in self._batch_commit_listeners:
            listener(commits)
        self.statistics.group_commits += 1
        self.statistics.group_commit_members += len(members)
        # Committed version chains collapse and committed write-log entries
        # drop out; no tracker, conflict check or rollback can ever touch them
        # again (they all filter on the abortable set), so this only bounds
        # storage growth.
        self._store.compact_below(self._commit_watermark, members)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def final_database(self) -> FrozenDatabase:
        """The repository contents after the run (all versions visible)."""
        return self._store.materialize()

    def executions(self) -> List[UpdateExecution]:
        """Every execution the scheduler currently tracks (terminated included)."""
        return [self._executions[priority] for priority in sorted(self._executions)]

    def execution(self, priority: int) -> Optional[UpdateExecution]:
        """The execution currently registered under *priority* (or ``None``)."""
        return self._executions.get(priority)

    def parked_executions(self) -> List[UpdateExecution]:
        """Executions waiting in ``WAITING_FRONTIER``, lowest priority first."""
        return [
            self._executions[priority]
            for priority in sorted(self._executions)
            if self._executions[priority].is_parked
        ]

    @property
    def is_idle(self) -> bool:
        """``True`` when no execution can take a step without outside input."""
        return not any(
            execution.is_active for execution in self._executions.values()
        )

    def add_commit_listener(
        self, listener: Callable[[int, List[VersionedWrite]], None]
    ) -> None:
        """Register ``listener(priority, writes)`` called as updates commit.

        The listener runs inside :meth:`pump`, immediately after *priority*
        enters the committed set and **before** its write-log entries are
        compacted away, so ``store.view_for(priority)`` is exactly the
        committed snapshot of the update and *writes* is the complete logged
        write set.  The federation layer uses this to package cross-peer
        exchange envelopes out of committed updates.
        """
        self._commit_listeners.append(listener)

    def add_batch_commit_listener(
        self,
        listener: Callable[[List[PyTuple[int, List[VersionedWrite]]]], None],
    ) -> None:
        """Register ``listener(commits)`` called once per commit batch.

        *commits* is the batch's union write set as ``(priority, writes)``
        pairs in commit order; like the per-priority listeners it fires
        **before** the batch is compacted, so every member's
        ``store.view_for(priority)`` is still its exact committed snapshot.
        Under group commit a listener round runs once per batch rather than
        once per update — the federation layer coalesces a whole batch's
        exchange envelopes here before anything reaches the transport.
        """
        self._batch_commit_listeners.append(listener)

    def committed_priorities(self) -> Set[int]:
        """The priorities that have committed so far."""
        return set(self._committed)

    def drain_newly_committed(self) -> List[int]:
        """Priorities committed since the last drain (in commit order).

        Long-running callers use this instead of re-scanning
        :meth:`committed_priorities`, whose size grows with service lifetime.
        """
        drained = self._newly_committed
        self._newly_committed = []
        return drained

    def drain_restarts(self) -> List[PyTuple[int, int]]:
        """``(old_priority, new_priority)`` of the abort-restarts since the last drain.

        In abort order, so a restart of a restart follows its first one.
        Polled rather than pushed: a callback registered here would tie the
        scheduler (and its store) into a reference cycle with its owner.
        """
        drained = self._newly_restarted
        self._newly_restarted = []
        return drained

    def commit_watermark(self) -> int:
        """The highest committed priority (0 before anything commits).

        Commits advance from the lowest priority upward, so every priority at
        or below the watermark is committed (or was rolled back entirely) and
        ``view_for(watermark)`` is a consistent committed snapshot.
        """
        return self._commit_watermark

    def committed_view(self) -> DatabaseView:
        """A snapshot containing exactly the committed state (plus the seed)."""
        return self._store.view_for(self.commit_watermark())

    @property
    def read_log(self) -> ReadLog:
        """The scheduler's read log (useful for inspection and tests)."""
        return self._read_log

    @property
    def store(self) -> VersionedDatabase:
        """The multiversion store the scheduler operates on."""
        return self._store


def run_concurrent_updates(
    initial: DatabaseView,
    mappings: Sequence[Tgd],
    operations: Sequence[UserOperation],
    tracker: DependencyTracker,
    oracle: Optional[FrontierOracle] = None,
    policy: Optional[SchedulingPolicy] = None,
    max_total_steps: int = 1_000_000,
) -> OptimisticScheduler:
    """Convenience wrapper: load *initial*, submit *operations*, run to completion.

    Returns the scheduler so callers can inspect statistics, the read log and
    the final database.
    """
    store = VersionedDatabase(initial.schema)
    store.load_initial(initial)
    scheduler = OptimisticScheduler(
        store=store,
        mappings=mappings,
        tracker=tracker,
        oracle=oracle,
        policy=policy,
        max_total_steps=max_total_steps,
    )
    scheduler.submit_all(operations)
    scheduler.run()
    return scheduler
