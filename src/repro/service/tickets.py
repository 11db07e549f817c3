"""Update tickets: the service-side lifecycle of one submitted operation.

A ticket is created the moment a client submits a :class:`~repro.core.update.UserOperation`
and survives admission, execution, abort-restarts (the scheduler assigns a new
priority; the ticket keeps its identity), parking on frontier questions, and
finally commit.  Tickets are what clients poll and what the service metrics
aggregate over.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.update import UserOperation


class TicketStatus(enum.Enum):
    """Where a submitted update currently is in the service pipeline."""

    #: In the admission queue, not yet handed to the scheduler.
    QUEUED = "queued"
    #: Admitted: the scheduler is interleaving its chase steps.
    RUNNING = "running"
    #: Parked on an unanswered frontier question in the inbox.
    WAITING_FRONTIER = "waiting-frontier"
    #: Terminated and durable: no lower-priority update can abort it anymore.
    COMMITTED = "committed"
    #: Stopped by a budget without completing (kept for post-mortems).
    FAILED = "failed"


@dataclass(frozen=True)
class RemoteOrigin:
    """Where a federated update ultimately came from.

    The federation layer submits exchange envelopes through a destination
    peer's admission queue like any client would; the resulting ticket carries
    the *originating* peer and that peer's federated ticket id, so frontier
    questions raised while chasing the forwarded update can be routed back to
    the humans who caused it.
    """

    peer: str
    ticket_id: int

    def describe(self) -> str:
        return "{}#{}".format(self.peer, self.ticket_id)


@dataclass
class UpdateTicket:
    """One submitted operation, tracked across restarts and frontier waits."""

    ticket_id: int
    session_id: int
    operation: UserOperation
    status: TicketStatus = TicketStatus.QUEUED
    #: Federation provenance (``None`` for ordinary local submissions).
    origin: Optional[RemoteOrigin] = None
    #: Current scheduler priority (changes on abort-restart; ``None`` while queued).
    priority: Optional[int] = None
    #: Number of executions started for this ticket (1 + restarts).
    attempts: int = 0
    #: Frontier decision id the ticket is parked on (``None`` unless parked).
    decision_id: Optional[int] = None
    #: Times the ticket parked on a frontier question.
    parks: int = 0
    #: Clock readings (service clock; ``None`` until the event happened).
    submitted_at: float = 0.0
    admitted_at: Optional[float] = None
    committed_at: Optional[float] = None
    parked_at: Optional[float] = None
    #: Total time spent parked, accumulated over every park/resume cycle.
    frontier_wait_seconds: float = 0.0
    #: Root tracing span for this ticket's lifecycle (``None`` when tracing
    #: is off); an :class:`~repro.obs.trace.Span`, typed loosely so the
    #: service layer stays importable without the tracer.
    trace_span: Optional[object] = field(default=None, repr=False)
    #: The currently open queue/park wait span, if any.
    wait_span: Optional[object] = field(default=None, repr=False)

    @property
    def trace_context(self):
        """The ticket's portable trace context (``None`` when untraced)."""
        if self.trace_span is None:
            return None
        return self.trace_span.context

    @property
    def is_done(self) -> bool:
        """``True`` once the ticket reached a terminal status."""
        return self.status in (TicketStatus.COMMITTED, TicketStatus.FAILED)

    @property
    def is_parked(self) -> bool:
        """``True`` while the ticket waits on a frontier answer."""
        return self.status is TicketStatus.WAITING_FRONTIER


    def describe(self) -> str:
        """One-line description for logs and the CLI."""
        suffix = ""
        if self.origin is not None:
            suffix = " (from {})".format(self.origin.describe())
        return "ticket #{} [{}] session {}: {}{}".format(
            self.ticket_id,
            self.status.value,
            self.session_id,
            self.operation.describe(),
            suffix,
        )
