"""The update-exchange service layer: Youtopia as a long-running system.

This package turns the batch-oriented optimistic scheduler into the
collaborative service the paper describes (and the ROADMAP's production
north star requires): client sessions submit updates through an
admission-controlled queue, nondeterministic repairs park their updates in an
asynchronous frontier inbox until some client answers, and snapshot reads are
served from the committed watermark of the multiversion store without ever
blocking writers.

Layering: ``core`` (chase, oracles) → ``storage`` (multiversion store) →
``concurrency`` (optimistic scheduler) → **service** (this package) →
``workload`` (closed-loop drivers, experiments).
"""

from .admission import AdmissionConfig, AdmissionError, AdmissionQueue
from .inbox import FrontierInbox, InboxQuestion
from .metrics import ServiceMetrics
from .repository import PumpReport, RepositoryService, ServiceError
from .session import ClientSession, SessionError
from .tickets import RemoteOrigin, TicketStatus, UpdateTicket

__all__ = [
    "RemoteOrigin",
    "AdmissionConfig",
    "AdmissionError",
    "AdmissionQueue",
    "ClientSession",
    "FrontierInbox",
    "InboxQuestion",
    "PumpReport",
    "RepositoryService",
    "ServiceError",
    "ServiceMetrics",
    "SessionError",
    "TicketStatus",
    "UpdateTicket",
]
