"""Exchange envelope payloads: what peers actually say to each other.

Every payload is a small immutable value that crosses a link wire-encoded
(:func:`repro.codec.wire.encode_envelope`).  The update-bearing payloads
(:class:`RemoteUpdate`, :class:`ExchangeFiring`, :class:`ExchangeRetraction`)
are re-submitted through the destination peer's admission queue on delivery;
the question-routing payloads implement the paper's collaboration loop across
peers — a frontier question raised while chasing a forwarded update travels
back to the peer whose users caused it, and the answer travels forward again.
No payload reports a routed update's outcome: the peer that executes it tells
the client desk directly (see :class:`~repro.federation.peer.Peer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple as PyTuple, Union

from ..core.frontier import FrontierOperation, FrontierRequest
from ..core.terms import DataTerm, Variable
from ..core.tgd import Tgd
from ..core.tuples import Tuple
from ..core.update import UserOperation
from ..obs.trace import SpanContext
from ..service.tickets import RemoteOrigin

#: Hashable form of an exported variable assignment.
AssignmentItems = FrozenSet[PyTuple[Variable, DataTerm]]


def freeze_assignment(assignment: Dict[Variable, DataTerm]) -> AssignmentItems:
    """The hashable (frozenset-of-items) form of an assignment."""
    return frozenset(assignment.items())


@dataclass(frozen=True)
class RemoteUpdate:
    """A user operation routed to the peer owning its target relation."""

    operation: UserOperation
    origin: RemoteOrigin
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)


@dataclass(frozen=True)
class ExchangeFiring:
    """Forward exchange: a cross-peer mapping's LHS matched at the source."""

    tgd: Tgd
    assignment_items: AssignmentItems
    head_rows: PyTuple[Tuple, ...]
    origin: RemoteOrigin
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)

    def assignment(self) -> Dict[Variable, DataTerm]:
        return dict(self.assignment_items)


@dataclass(frozen=True)
class ExchangeRetraction:
    """Backward exchange: a deletion destroyed the last RHS match remotely."""

    tgd: Tgd
    assignment_items: AssignmentItems
    removed_row: Tuple
    origin: RemoteOrigin
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)

    def assignment(self) -> Dict[Variable, DataTerm]:
        return dict(self.assignment_items)


@dataclass(frozen=True)
class QuestionOpened:
    """A forwarded update parked on a frontier question; route it home.

    Filed in the originating peer's federated inbox, it is also what that
    peer's clients see and answer (``FederatedQuestion``).
    """

    executing_peer: str
    decision_id: int
    request: FrontierRequest
    origin: RemoteOrigin
    ticket_description: str
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)

    @property
    def key(self) -> PyTuple[str, int]:
        return (self.executing_peer, self.decision_id)

    def alternatives(self) -> List[FrontierOperation]:
        return self.request.alternatives()

    def by_index(
        self, choice: Union[FrontierOperation, int]
    ) -> Union[FrontierOperation, int]:
        """*choice* as its index into :meth:`alternatives`, when it is one.

        The form answers travel in: the executing peer still holds the
        request parked and resolves the index against it, so the chosen
        operation's tuples are not echoed back.  An operation that is not a
        listed alternative (a multi-row delete subset) stays as it is.
        """
        if isinstance(choice, int):
            return choice
        index = self.request.index_of(choice)
        return choice if index is None else index


@dataclass(frozen=True)
class QuestionCancelled:
    """The parked update aborted (and restarted); the question is moot."""

    executing_peer: str
    decision_id: int
    origin: RemoteOrigin
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)


@dataclass(frozen=True)
class QuestionAnswer:
    """A client at the originating peer answered a routed question."""

    executing_peer: str
    decision_id: int
    choice: Union[FrontierOperation, int]
    answered_by: str
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)


ExchangePayload = Union[
    RemoteUpdate,
    ExchangeFiring,
    ExchangeRetraction,
    QuestionOpened,
    QuestionCancelled,
    QuestionAnswer,
]
