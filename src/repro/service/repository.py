"""The update-exchange service: sessions, admission, inbox, snapshot reads.

This is the long-running serving layer over the optimistic scheduler
(Algorithm 4).  Where the batch drivers submit a pre-assembled workload and
simulate humans with a synchronous oracle, the :class:`RepositoryService`
models the collaborative system the paper describes: clients open sessions,
submit updates at their own pace, and answer frontier questions at human
timescales while the scheduler keeps interleaving everyone else's chase steps.

The service is cooperatively scheduled and single-threaded, like the rest of
this reproduction: callers drive it by calling :meth:`RepositoryService.pump`,
which admits queued submissions (subject to admission control), lets the
scheduler take chase steps until every in-flight update is terminated or
parked, and reconciles ticket states.  Nothing ever busy-waits: a parked
update consumes no steps until a client answers its question.

Reads are served from the multiversion store without blocking writers:
:meth:`RepositoryService.read` snapshots the committed watermark (every
priority at or below it is committed, aborted writes are rolled back), so
clients never observe in-flight chase work.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Union

from ..codec.wire import (
    CodecError,
    WIRE_VERSION,
    decode_user_operation,
    dumps,
    encode_user_operation,
    loads,
)
from ..concurrency.aborts import RunStatistics
from ..concurrency.dependencies import DependencyTracker, make_tracker
from ..concurrency.optimistic import OptimisticScheduler, SchedulerStalled
from ..concurrency.policies import SchedulingPolicy
from ..core.frontier import FrontierOperation
from ..core.oracle import DeferredOracle
from ..core.terms import NullFactory
from ..core.tgd import Tgd
from ..core.tuples import Tuple
from ..core.update import UpdateStatus, UserOperation
from ..obs.trace import SpanContext, default_tracer
from ..storage.durable import WriteLogSegments, recover, replace_file
from ..storage.interface import DatabaseView
from ..storage.memory import FrozenDatabase
from ..storage.versioned import VersionedDatabase
from .admission import AdmissionConfig, AdmissionQueue
from .inbox import FrontierInbox, InboxQuestion
from .metrics import ServiceMetrics, store_metrics
from .session import ClientSession, SessionError
from .tickets import RemoteOrigin, TicketStatus, UpdateTicket


class ServiceError(RuntimeError):
    """Raised for invalid service requests (unknown tickets, bad answers...)."""


@dataclass
class PumpReport:
    """What one service pump did (returned by :meth:`RepositoryService.pump`)."""

    #: Tickets admitted from the queue into the scheduler.
    admitted: List[UpdateTicket] = field(default_factory=list)
    #: Chase steps the scheduler took.
    steps: int = 0
    #: Tickets that reached ``COMMITTED`` during this pump.
    committed: List[UpdateTicket] = field(default_factory=list)
    #: Questions that entered the inbox during this pump.
    parked: List[InboxQuestion] = field(default_factory=list)


@dataclass
class RestoredService:
    """What :meth:`RepositoryService.restore` hands back."""

    #: The freshly built service, seeded with the checkpoint's committed state.
    service: "RepositoryService"
    #: Old ticket id (at checkpoint time) → the re-submitted ticket.
    resubmitted: Dict[int, "UpdateTicket"] = field(default_factory=dict)
    #: The opaque extra dict the checkpointing caller stored.
    extra: Dict = field(default_factory=dict)


class _Base(NamedTuple):
    """The base snapshot a service's latest checkpoint manifest refers to."""

    path: str
    watermark: int
    #: Bytes of the base file: the retained log may grow to this before the
    #: base is rewritten (one fixed rule, deliberately not a knob).
    size: int


class RepositoryService:
    """A multi-client update-exchange service over one Youtopia repository."""

    def __init__(
        self,
        initial: DatabaseView,
        mappings: Sequence[Tgd],
        tracker: Union[DependencyTracker, str] = "PRECISE",
        policy: Optional[SchedulingPolicy] = None,
        admission: Optional[AdmissionConfig] = None,
        max_total_steps: int = 1_000_000,
        clock: Callable[[], float] = time.perf_counter,
        null_factory: Optional[NullFactory] = None,
        durable_dir: Optional[str] = None,
        first_decision_id: int = 1,
        tracer=None,
        trace_peer: str = "",
    ):
        if isinstance(tracker, str):
            tracker = make_tracker(tracker)
        self._clock = clock
        self._tracer = tracer if tracer is not None else default_tracer()
        self._trace_peer = trace_peer
        store = VersionedDatabase(initial.schema)
        store.load_initial(initial)
        if durable_dir is not None:
            # Durable mode: mirror the write log to codec-encoded segment
            # files so "base snapshot + the log's committed entries above
            # it" always reproduces this repository (repro.storage.durable).
            segments = WriteLogSegments(durable_dir)
            if segments.segment_indexes():
                # This service numbers its updates from 1; appended to a
                # predecessor's log they would be replayed as that one's.
                raise ServiceError(
                    "durable_dir {!r} already holds a redo log".format(durable_dir)
                )
            store.attach_segments(segments)
        #: The base snapshot the last checkpoint referred to (``None`` before
        #: the first one): what decides whether the next writes a new base.
        self._base: Optional[_Base] = None
        self._oracle = DeferredOracle(start=first_decision_id)
        if null_factory is None:
            null_factory = NullFactory.avoiding_view(initial, prefix="s")
        self._null_factory = null_factory
        self._scheduler = scheduler = OptimisticScheduler(
            store=store,
            mappings=mappings,
            tracker=tracker,
            oracle=self._oracle,
            policy=policy,
            null_factory=null_factory,
            max_total_steps=max_total_steps,
            prune_committed=True,
            tracer=self._tracer,
            trace_peer=trace_peer,
        )
        self._queue = AdmissionQueue(admission)
        self._inbox = FrontierInbox(self._oracle)
        self.metrics = ServiceMetrics(started_at=self._clock())
        # The store and scheduler publish into the service registry as
        # producers, so one ``collect()`` yields the whole historical
        # snapshot (``snapshot()`` skips its direct arguments when these
        # keys are already produced).  The producers close over the store
        # and the scheduler, never over the service: nothing the service
        # owns refers back to it, so a dropped service is freed by refcount.
        self.metrics.registry.register_producer(lambda: store_metrics(store))
        self.metrics.registry.register_producer(
            lambda: scheduler.refresh_statistics().as_dict(),
            prefix="scheduler_",
        )
        self._sessions: Dict[int, ClientSession] = {}
        self._tickets: Dict[int, UpdateTicket] = {}
        self._by_priority: Dict[int, UpdateTicket] = {}
        #: Ticket ids admitted and not yet committed/failed (they hold
        #: admission slots); kept as a set so pump cost does not grow with
        #: the total number of tickets ever served.
        self._in_flight: Set[int] = set()
        self._next_session_id = 1
        self._next_ticket_id = 1

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(self, name: str) -> ClientSession:
        """Connect a client; returns its session handle."""
        session = ClientSession(
            session_id=self._next_session_id, name=name, opened_at=self._clock()
        )
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        return session

    def session(self, session_id: int) -> ClientSession:
        """Look a session up; unknown or closed sessions are a :class:`SessionError`."""
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionError("unknown session #{}".format(session_id))
        if session.closed:
            raise SessionError("session #{} is closed".format(session_id))
        return session

    def sessions(self) -> List[ClientSession]:
        """Every session ever opened, in id order."""
        return [self._sessions[sid] for sid in sorted(self._sessions)]

    # ------------------------------------------------------------------
    # Submission and admission
    # ------------------------------------------------------------------
    def submit(
        self,
        session_id: int,
        operation: UserOperation,
        origin: Optional[RemoteOrigin] = None,
        trace: Optional[SpanContext] = None,
    ) -> UpdateTicket:
        """Accept an update from a client; it waits for admission in FIFO order.

        *origin* marks updates forwarded by the federation layer; their
        frontier questions are routed back to the originating peer instead of
        this repository's own inbox clients.  *trace* is the originating
        update's span context when this submission continues a remote trace
        (carried over the wire on the exchange envelope).
        """
        session = self.session(session_id)
        ticket = UpdateTicket(
            ticket_id=self._next_ticket_id,
            session_id=session_id,
            operation=operation,
            origin=origin,
            submitted_at=self._clock(),
        )
        self._next_ticket_id += 1
        self._queue.enqueue(ticket)  # may raise AdmissionError; ticket discarded
        self._tickets[ticket.ticket_id] = ticket
        session.tickets.append(ticket)
        self.metrics.record_submit()
        if self._tracer.enabled:
            ticket.trace_span = self._tracer.start_span(
                "update",
                parent=trace,
                peer=self._trace_peer,
                kind="remote" if origin is not None else "user",
                op_type=type(operation).__name__,
                op=operation.describe(),
                ticket=ticket.ticket_id,
            )
            ticket.wait_span = self._tracer.start_span(
                "queue", phase="queue", parent=ticket.trace_span, peer=self._trace_peer
            )
        return ticket

    def ticket(self, ticket_id: int) -> UpdateTicket:
        """Look a ticket up by id."""
        try:
            return self._tickets[ticket_id]
        except KeyError:
            raise ServiceError("unknown ticket #{}".format(ticket_id))

    def _in_flight_count(self) -> int:
        return len(self._in_flight)

    def _admit(self, ticket: UpdateTicket) -> None:
        now = self._clock()
        if ticket.wait_span is not None:
            self._tracer.end_span(ticket.wait_span)
            ticket.wait_span = None
        priority = self._scheduler.submit(ticket.operation, trace=ticket.trace_context)
        ticket.priority = priority
        ticket.status = TicketStatus.RUNNING
        ticket.admitted_at = now
        ticket.attempts = 1
        self._by_priority[priority] = ticket
        self._in_flight.add(ticket.ticket_id)
        self.metrics.record_admit(now - ticket.submitted_at)

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def pump(self, max_steps: Optional[int] = None) -> PumpReport:
        """Admit, step, reconcile: one turn of the service's cooperative loop.

        If the scheduler exhausts its lifetime step budget mid-pump, the
        affected tickets are marked ``FAILED`` (freeing their admission
        slots), everything that did commit is still reconciled, and the
        :class:`~repro.concurrency.optimistic.SchedulerStalled` is re-raised
        for the operator, carrying this pump's report as its ``report``.
        """
        report = PumpReport()
        for ticket in self._queue.take(self._in_flight_count()):
            self._admit(ticket)
            report.admitted.append(ticket)
        if not report.admitted and self._scheduler.is_idle:
            # Idle fast path: no admission and nothing runnable means no
            # steps, no commits and no new questions since the last pump —
            # reconciliation would be a no-op scan.  Federation networks pump
            # every peer every round, so idle pumps are the common case.
            return report
        try:
            report.steps = self._scheduler.pump(max_steps)
        except SchedulerStalled as stall:
            self._reconcile(report)
            self._fail_budget_exhausted()
            stall.report = report
            raise
        self._reconcile(report)
        return report

    def _fail_budget_exhausted(self) -> None:
        for execution in self._scheduler.executions():
            if execution.status is not UpdateStatus.BUDGET_EXHAUSTED:
                continue
            ticket = self._by_priority.pop(execution.priority, None)
            if ticket is None or ticket.is_done:
                continue
            if ticket.decision_id is not None:
                # The stall cancelled the underlying decision; withdraw the
                # inbox question too so operators don't see answerable ghosts.
                self._inbox.cancel(ticket.decision_id)
                ticket.decision_id = None
                ticket.parked_at = None
            ticket.status = TicketStatus.FAILED
            self._in_flight.discard(ticket.ticket_id)
            self.metrics.record_failure()
            if ticket.wait_span is not None:
                self._tracer.end_span(ticket.wait_span)
                ticket.wait_span = None
            if ticket.trace_span is not None:
                self._tracer.end_span(ticket.trace_span, status="failed")

    def _reconcile(self, report: PumpReport) -> None:
        self._apply_restarts()
        now = self._clock()
        for priority in self._scheduler.drain_newly_committed():
            ticket = self._by_priority.pop(priority, None)
            if ticket is None:
                continue
            ticket.status = TicketStatus.COMMITTED
            ticket.committed_at = now
            self._in_flight.discard(ticket.ticket_id)
            self.metrics.record_commit(now - ticket.submitted_at)
            if ticket.trace_span is not None:
                self._tracer.end_span(ticket.trace_span, status="committed")
            report.committed.append(ticket)
        for execution in self._scheduler.parked_executions():
            ticket = self._by_priority.get(execution.priority)
            if ticket is None or execution.pending_decision is None:
                continue
            decision = execution.pending_decision
            if ticket.decision_id == decision.decision_id:
                continue  # already filed in a previous pump
            ticket.status = TicketStatus.WAITING_FRONTIER
            ticket.decision_id = decision.decision_id
            ticket.parked_at = now
            ticket.parks += 1
            self.metrics.record_park()
            if ticket.trace_span is not None and self._tracer.enabled:
                ticket.wait_span = self._tracer.start_span(
                    "park",
                    phase="park",
                    parent=ticket.trace_span,
                    peer=self._trace_peer,
                    decision=decision.decision_id,
                )
            report.parked.append(self._inbox.register(decision, ticket, now))

    def _apply_restarts(self) -> None:
        """Move every ticket an abort restarted to its fresh priority."""
        for old_priority, new_priority in self._scheduler.drain_restarts():
            self._on_restart(old_priority, new_priority)

    def _on_restart(self, old_priority: int, new_priority: int) -> None:
        """An abort moved a ticket to a fresh priority."""
        ticket = self._by_priority.pop(old_priority, None)
        if ticket is None:
            return
        if ticket.decision_id is not None:
            # The parked question died with the aborted execution; reject
            # late answers rather than resuming a rolled-back update.
            self._inbox.cancel(ticket.decision_id)
            ticket.decision_id = None
            ticket.parked_at = None
        if ticket.wait_span is not None:
            self._tracer.end_span(ticket.wait_span, aborted=True)
            ticket.wait_span = None
        ticket.priority = new_priority
        ticket.status = TicketStatus.RUNNING
        ticket.attempts += 1
        self._by_priority[new_priority] = ticket
        self.metrics.record_restart()

    # ------------------------------------------------------------------
    # The frontier inbox
    # ------------------------------------------------------------------
    def inbox(self) -> List[InboxQuestion]:
        """Every open frontier question, oldest first."""
        return self._inbox.questions()

    def answer(
        self,
        session_id: int,
        decision_id: int,
        choice: Union[FrontierOperation, int],
    ) -> InboxQuestion:
        """A client answers an open question; the parked update resumes.

        Any session may answer any question (collaboration!); the first valid
        answer wins and later ones raise :class:`~repro.core.oracle.OracleError`.
        The resumed update continues on the next :meth:`pump`.
        """
        session = self.session(session_id)
        self._apply_restarts()  # a restart cancels the question it parked on
        question, operation = self._inbox.answer(decision_id, choice)
        ticket = question.ticket
        assert ticket.priority is not None
        self._scheduler.resume(ticket.priority, operation)
        now = self._clock()
        if ticket.parked_at is not None:
            wait = now - ticket.parked_at
            ticket.frontier_wait_seconds += wait
            self.metrics.record_resume(wait)
        if ticket.wait_span is not None:
            self._tracer.end_span(ticket.wait_span)
            ticket.wait_span = None
        ticket.status = TicketStatus.RUNNING
        ticket.decision_id = None
        ticket.parked_at = None
        session.frontier_answers += 1
        return question

    # ------------------------------------------------------------------
    # Snapshot reads (never block writers)
    # ------------------------------------------------------------------
    def read(self, relation: str) -> List[Tuple]:
        """The committed tuples of *relation* (in-flight work is invisible)."""
        return list(self._scheduler.committed_view().tuples(relation))

    def count(self, relation: str) -> int:
        """Number of committed tuples in *relation*."""
        return self._scheduler.committed_view().count(relation)

    def snapshot(self) -> FrozenDatabase:
        """An immutable snapshot of the committed repository state."""
        return self._scheduler.store.materialize(self._scheduler.commit_watermark())

    # ------------------------------------------------------------------
    # Checkpoint and restore (durability across restarts)
    # ------------------------------------------------------------------
    def checkpoint(self, path: str, extra: Optional[Dict] = None) -> Dict:
        """Persist everything a restarted service needs to resume this one.

        The file at *path* is a small manifest (wire-codec encoded, versioned,
        replaced atomically) holding:

        * the scheduler's commit **watermark** and the names of what holds
          the committed store below it: a **base** snapshot file plus, with a
          ``durable_dir``, the redo **log** whose committed entries between
          the base's watermark and this one :meth:`restore` replays onto it.
          In-flight chase work is deliberately *not* serialized: an
          uncommitted update is exactly re-executable from its initial
          operation, so
        * the **pending inbox**: every queued or admitted-but-uncommitted
          ticket's operation and federation origin, in submission order, for
          re-submission at restore;
        * the **null-factory state**, so post-restart fresh nulls can never
          collide with nulls this service already shipped elsewhere;
        * the **next decision id**, so post-restart frontier questions can
          never collide with question-routing envelopes still in flight;
        * an opaque *extra* dict for the caller (the federation peer stores
          its exchange bookkeeping there).

        The base is rewritten only when the log cannot cheaply supply what
        was committed since: there is no log, or the retained log has
        outgrown the base (the segments the new base covers are then
        dropped).  Checkpoint cost is O(in-flight) amortised and a restore
        never replays more log than it loads base.  A log backs its latest
        checkpoint only: a base rewrite retires what older manifests need.

        Returns the decoded manifest (handy for tests and logging).
        """
        store = self._scheduler.store
        segments = store.segments
        watermark = self._scheduler.commit_watermark()
        manifest_path = os.path.abspath(path)
        # The base lives with the log it is the floor of; without a log it
        # can only belong to this one manifest.  Named by watermark, so a
        # new base never touches the one the current manifest refers to.
        home = (
            manifest_path if segments is None
            else os.path.join(os.path.abspath(segments.directory), "snapshot")
        )
        base_path = "{}.base-{}".format(home, watermark)
        previous = base = self._base
        if (
            previous is None
            or not previous.path.startswith(home + ".base-")
            or (
                watermark != previous.watermark
                and (segments is None or segments.retained_bytes() > previous.size)
            )
        ):
            base = _Base(base_path, watermark, store.snapshot_to(base_path, watermark))
        pending = []
        for ticket in sorted(
            self._queue.peek_all()
            + [self._tickets[ticket_id] for ticket_id in self._in_flight],
            key=lambda ticket: ticket.ticket_id,
        ):
            entry: Dict = {
                "ticket": ticket.ticket_id,
                "op": encode_user_operation(ticket.operation),
            }
            if ticket.origin is not None:
                entry["origin"] = {
                    "peer": ticket.origin.peer,
                    "ticket": ticket.origin.ticket_id,
                }
            pending.append(entry)
        directory = os.path.dirname(manifest_path)
        body: Dict = {
            "v": WIRE_VERSION,
            "t": "service-checkpoint",
            "watermark": watermark,
            # Both relative to the manifest, so the state directory can move.
            "base": os.path.relpath(base.path, directory),
            "log": (
                None if segments is None
                else os.path.relpath(segments.directory, directory)
            ),
            "null_factory": list(self._null_factory.state()),
            "next_decision_id": self._oracle.next_decision_id,
            "pending": pending,
            "extra": extra or {},
        }
        # A commit batch that logged no write advances the watermark without
        # a commit record, so the manifest may name a watermark above the
        # log's: replaying up to it reads the same writes.
        replace_file(manifest_path, dumps(body) + b"\n")
        if base is not previous:
            # Only now does nothing refer to the old base and the segments
            # the new one covers: a crash before this line leaves the old
            # manifest and everything it needs in place.
            self._base = base
            for stale in glob.glob(glob.escape(home) + ".base-*"):
                if stale != base.path:
                    os.remove(stale)
            if segments is not None:
                segments.drop_covered(watermark)
        return body

    @classmethod
    def restore(
        cls,
        path: str,
        mappings: Sequence[Tgd],
        **service_arguments,
    ) -> "RestoredService":
        """Rebuild a service from a :meth:`checkpoint` file.

        The base snapshot the manifest names is loaded and the log's
        entries between the base's watermark and the manifest's are
        replayed onto it by content, in seq order; the
        result becomes the new service's initial database.  The checkpointed
        null-factory state and decision-id high-water mark carry over
        (unless the caller overrides ``null_factory`` /
        ``first_decision_id`` explicitly); every pending operation is
        re-submitted — with its federation origin — through a fresh
        ``"restore"`` session, in the original submission order.  Returns a
        :class:`RestoredService` with the old-ticket-id → new-ticket mapping
        so callers (the federation peer) can re-link their bookkeeping.
        """
        with open(path, "rb") as handle:
            body = loads(handle.read())
        if body.get("v") != WIRE_VERSION:
            raise CodecError(
                "unsupported checkpoint version {!r} (this build speaks {})".format(
                    body.get("v"), WIRE_VERSION
                )
            )
        if body.get("t") != "service-checkpoint" or "base" not in body:
            raise CodecError("not a service checkpoint: {!r}".format(path))
        directory = os.path.dirname(os.path.abspath(path))
        initial = recover(
            os.path.join(directory, body["base"]),
            None if body.get("log") is None else os.path.join(directory, body["log"]),
            body["watermark"],
        )
        service_arguments.setdefault(
            "null_factory", NullFactory.from_state(body["null_factory"])
        )
        service_arguments.setdefault("first_decision_id", body["next_decision_id"])
        service = cls(initial, mappings, **service_arguments)
        session = service.open_session("restore")
        resubmitted: Dict[int, UpdateTicket] = {}
        for entry in body["pending"]:
            origin = None
            if "origin" in entry:
                origin = RemoteOrigin(
                    peer=entry["origin"]["peer"], ticket_id=entry["origin"]["ticket"]
                )
            ticket = service.submit(
                session.session_id,
                decode_user_operation(entry["op"]),
                origin=origin,
            )
            resubmitted[entry["ticket"]] = ticket
        return RestoredService(
            service=service, resubmitted=resubmitted, extra=body.get("extra", {})
        )

    def close(self) -> None:
        """Release the redo log's append handle (a no-op without ``durable_dir``)."""
        segments = self._scheduler.store.segments
        if segments is not None:
            segments.close()

    @property
    def null_factory(self) -> NullFactory:
        """The factory minting this repository's fresh labeled nulls."""
        return self._null_factory

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> OptimisticScheduler:
        """The underlying optimistic scheduler (tests and benchmarks poke it)."""
        return self._scheduler

    @property
    def tracer(self):
        """The tracer this service records into (the noop when disabled)."""
        return self._tracer

    @property
    def statistics(self) -> RunStatistics:
        """The scheduler's run statistics, refreshed."""
        return self._scheduler.refresh_statistics()

    def tickets(self) -> List[UpdateTicket]:
        """Every ticket ever submitted, in id order."""
        return [self._tickets[ticket_id] for ticket_id in sorted(self._tickets)]

    def ticket_for_priority(self, priority: int) -> Optional[UpdateTicket]:
        """The not-yet-reconciled ticket running under *priority* (or ``None``).

        Commit listeners fire while the scheduler is still pumping, before the
        service reconciles ticket states, so the priority → ticket map is
        exactly right at that moment; afterwards committed priorities are
        dropped from it.  Restarts are applied first: an update that aborted
        and committed within one pump commits under its fresh priority.
        """
        self._apply_restarts()
        return self._by_priority.get(priority)

    def add_commit_listener(self, listener: Callable[[int, List], None]) -> None:
        """Register a scheduler commit listener (see the scheduler's docs)."""
        self._scheduler.add_commit_listener(listener)

    def add_batch_commit_listener(self, listener: Callable[[List], None]) -> None:
        """Register a scheduler batch commit listener (see the scheduler's docs)."""
        self._scheduler.add_batch_commit_listener(listener)

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat service+scheduler metrics dictionary (with store gauges)."""
        return self.metrics.snapshot(
            self.statistics, self._clock(), store=self._scheduler.store
        )

    @property
    def is_quiescent(self) -> bool:
        """``True`` when nothing is queued, running, or parked."""
        return (
            self._queue.depth == 0
            and self._scheduler.is_idle
            and self._inbox.open_count == 0
        )
