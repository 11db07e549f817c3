"""The federated network: many repositories, one collaborative exchange.

A :class:`FederatedNetwork` is the multi-peer realization of the paper's
setting, with every peer in one process: each :class:`~repro.federation.peer.Peer`
runs its own full update-exchange service (store, tracker, optimistic
scheduler, admission queue, frontier inbox) over the relations it owns, and
the tgd mappings that link peers are driven by commit-time exchange over a
simulated :class:`~repro.federation.transport.Transport`:

* a user operation submitted at a peer executes at the *owner* of its target
  relation — locally, or routed as a :class:`~repro.federation.envelopes.RemoteUpdate`
  through the owner's admission queue;
* when an update commits, its writes fire the cross-peer mappings whose LHS
  the committing peer owns; the resulting head firings (and, for deletions,
  retractions) travel as envelopes and are re-submitted at the destination;
* frontier questions raised while chasing a forwarded update are routed back
  to the *originating* peer's federated inbox, answered there, and the answer
  travels back to resume the parked update;
* :meth:`FederatedNetwork.quiescent` holds when the transport is empty and
  every peer is idle (outbox, retry queue, admission, scheduler), at which
  point the union of the peers' committed stores is a chase fixpoint of the
  union mapping set (differentially tested against the single-repository
  engine in :mod:`repro.federation.convergence`).

Each peer's side of that protocol is :class:`~repro.federation.peer.Peer`,
the same code a peer process (:mod:`repro.federation.proc`) runs; the network
adds the transport, the federated ticket table and a
:class:`FederatedQuestion` inbox per peer.

The network is cooperatively scheduled like everything else in this
reproduction: :meth:`pump` performs one federation round (retry, deliver,
chase, route, flush), and :meth:`run_until_quiescent` loops it, optionally
answering open questions with a strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple as PyTuple, Union

from ..core.frontier import FrontierOperation, FrontierRequest
from ..core.schema import DatabaseSchema
from ..core.tgd import Tgd
from ..core.update import UserOperation
from ..obs.metrics import MetricsRegistry
from ..obs.trace import SpanContext, default_tracer
from ..service.admission import AdmissionConfig, AdmissionError
from ..service.tickets import RemoteOrigin, TicketStatus, UpdateTicket
from ..storage.interface import DatabaseView
from ..storage.memory import FrozenDatabase
from .envelopes import CommitNotice, QuestionAnswer, QuestionCancelled, QuestionOpened
from .exchange import ExchangeRules, FederationError
from .peer import Peer
from .transport import Transport, bundle_by_destination, unbundled


@dataclass
class FederatedTicket:
    """The network-level handle of one user submission."""

    ticket_id: int
    peer: str
    target: str
    operation: UserOperation
    status: TicketStatus = TicketStatus.QUEUED
    #: The executing service's ticket (set immediately for local execution;
    #: remote execution is tracked through commit notices instead, so the
    #: originating peer only learns of the commit once the notice crosses the
    #: transport — partitions delay knowledge, as they should).
    local_ticket: Optional[UpdateTicket] = None
    #: Root tracing span of a *routed* submission (local submissions root
    #: their trace in the executing service's ticket instead).
    trace_span: Optional[object] = field(default=None, repr=False)

    @property
    def is_remote(self) -> bool:
        return self.peer != self.target

    @property
    def is_done(self) -> bool:
        return self.status in (TicketStatus.COMMITTED, TicketStatus.FAILED)

    def describe(self) -> str:
        return "federated ticket #{} {}@{} -> {}: {}".format(
            self.ticket_id,
            self.status.value,
            self.peer,
            self.target,
            self.operation.describe(),
        )


@dataclass(frozen=True)
class FederatedQuestion:
    """One open frontier question as seen from a peer's federated inbox."""

    executing_peer: str
    decision_id: int
    request: FrontierRequest
    origin: RemoteOrigin
    description: str
    #: Trace context of the parked update (``None`` when tracing is off).
    trace: Optional[SpanContext] = field(default=None, compare=False)

    @classmethod
    def opened(cls, payload: QuestionOpened) -> "FederatedQuestion":
        """The inbox entry of a question opened here or routed here."""
        return cls(
            executing_peer=payload.executing_peer,
            decision_id=payload.decision_id,
            request=payload.request,
            origin=payload.origin,
            description=payload.ticket_description,
            trace=payload.trace,
        )

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


@dataclass
class FederationPumpReport:
    """What one federation round did."""

    delivered: int = 0
    steps: int = 0
    committed: int = 0
    flushed: int = 0
    questions_opened: int = 0


#: ``strategy(question) -> choice`` used by :meth:`run_until_quiescent`.
AnswerStrategy = Callable[[FederatedQuestion], Union[FrontierOperation, int]]


class FederatedNetwork:
    """A set of named peers exchanging updates over a simulated transport."""

    def __init__(
        self,
        schema: DatabaseSchema,
        initial: DatabaseView,
        mappings: Sequence[Tgd],
        ownership: Dict[str, Sequence[str]],
        tracker: str = "PRECISE",
        transport: Optional[Transport] = None,
        admission: Union[AdmissionConfig, Dict[str, AdmissionConfig], None] = None,
        max_total_steps: int = 1_000_000,
        tracer=None,
    ):
        self.schema = schema
        self._tracer = tracer if tracer is not None else default_tracer()
        self.rules = ExchangeRules.for_federation(schema, mappings, ownership)
        self.owner_of = self.rules.owner_of
        self.transport = transport if transport is not None else Transport()
        if tracer is not None:
            # An explicitly traced network traces its transport too (a
            # transport built separately defaults to the process tracer).
            self.transport.tracer = tracer
        self.transport.mappings = self.rules.by_name
        #: Per-peer service construction parameters, kept for restarts (see
        #: :meth:`restart_peer`): a reborn peer's service is rebuilt with the
        #: same tracker, admission policy, budgets and tracer.
        self._service_arguments = {
            name: {
                "tracker": tracker,
                # Heterogeneous federations: each peer may run its own
                # admission policy (slow archive, fast edge).
                "admission": admission.get(name)
                if isinstance(admission, dict)
                else admission,
                "max_total_steps": max_total_steps,
                "tracer": self._tracer,
            }
            for name in ownership
        }
        self._peers: Dict[str, Peer] = {
            name: Peer.build(
                name, schema, initial, self.rules, **self._service_arguments[name]
            )
            for name in ownership
        }
        self._inboxes: Dict[str, Dict[PyTuple[str, int], FederatedQuestion]] = {
            name: {} for name in self._peers
        }
        self._tickets: Dict[int, FederatedTicket] = {}
        self._unresolved: List[FederatedTicket] = []
        self._next_ticket_id = 1
        #: Federation-level counters, registered into one registry whose
        #: ``collect()`` is the whole :meth:`metrics` snapshot (transport and
        #: per-peer service metrics fold in as producers; the key set and
        #: order are bit-compatible with the pre-registry dict merging).
        #: Exchange and delivery counters are the peers' own, summed.
        self.registry = MetricsRegistry()
        #: The :class:`Peer` counters the registry sums (see :meth:`restart_peer`).
        self._peer_counters: List[str] = []
        self.registry.gauge("peers").set_function(lambda: len(self._peers))
        self._updates_routed = self.registry.counter("updates_routed")
        self._sum_of_peers("firings_delivered")
        self._sum_of_peers("retractions_delivered")
        self._questions_routed = self.registry.counter("questions_routed")
        self._answers_routed = self.registry.counter("answers_routed")
        self._sum_of_peers("answers_dropped")
        self._cancellations = self.registry.counter("question_cancellations")
        self._sum_of_peers("deliveries_deferred")
        self._sum_of_peers("firings_emitted")
        self._sum_of_peers("retractions_emitted")
        self._sum_of_peers("envelopes_coalesced")
        self.registry.register_producer(lambda: self.transport.metrics())
        self.registry.register_producer(self._peer_service_metrics)

    def _sum_of_peers(self, counter: str) -> None:
        """Register a gauge summing one :class:`Peer` counter over the peers."""
        self._peer_counters.append(counter)
        self.registry.gauge(counter).set_function(
            lambda: sum(getattr(peer, counter) for peer in self._peers.values())
        )

    @property
    def tracer(self):
        """The tracer the whole federation records into."""
        return self._tracer

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def peer(self, name: str) -> Peer:
        """Look a peer up by name."""
        try:
            return self._peers[name]
        except KeyError:
            raise FederationError("unknown peer {!r}".format(name))

    def peers(self) -> List[Peer]:
        """Every peer, in declaration order."""
        return list(self._peers.values())

    def peer_names(self) -> List[str]:
        """The peer names, in declaration order."""
        return list(self._peers)

    def partition(self, a: str, b: str) -> None:
        """Cut the link between two peers (messages queue, nothing is lost)."""
        self.peer(a), self.peer(b)  # validate names
        self.transport.partition(a, b)

    def heal(self, a: str, b: str) -> None:
        """Reconnect two peers; held envelopes flow again on the next pump."""
        self.transport.heal(a, b)

    # ------------------------------------------------------------------
    # Peer checkpoint and restart
    # ------------------------------------------------------------------
    def checkpoint_peer(self, name: str, path: str) -> None:
        """Persist one peer's restartable state (see :meth:`Peer.checkpoint`)."""
        self.peer(name).checkpoint(path)

    def restart_peer(self, name: str, path: str) -> Peer:
        """Kill peer *name* and rebuild it from a checkpoint file.

        The old peer object (service, store, scheduler, sessions) is simply
        dropped — that *is* the crash.  The replacement is restored from the
        checkpoint: committed store as its initial state, pending operations
        re-submitted with their federation origins, null-factory and
        decision-id numbering resumed, commit-notice obligations re-linked to
        the re-submitted tickets, deferred deliveries back in its retry queue.
        Envelopes in flight on the transport are untouched and deliver to the
        reborn peer as usual (delivery re-submits through its admission
        queue, so nothing cares that the service behind the name changed).

        Open federated questions whose *executing* peer was the killed one
        are dropped from every inbox: their decisions died with the old
        service, and the re-submitted updates will re-ask them under fresh
        decision ids.  Federated tickets that were executing locally at the
        killed peer are re-pointed at their re-submitted service tickets.
        """
        old = self.peer(name)
        reborn, restored = Peer.restore(
            name, path, self.rules, **self._service_arguments[name]
        )
        # The network observes the crash; its counters do not restart.
        for counter in self._peer_counters:
            setattr(reborn, counter, getattr(old, counter))
        self._peers[name] = reborn
        # Questions executed by the dead service are unanswerable; drop them
        # everywhere (the reborn peer re-asks under fresh decision ids).
        for inbox in self._inboxes.values():
            for key in [key for key in inbox if key[0] == name]:
                del inbox[key]
        # Re-point federated tickets that were executing at the killed peer
        # onto their re-submitted successors (committed ones already mirrored).
        for ticket in self._tickets.values():
            if ticket.target != name or ticket.local_ticket is None:
                continue
            if ticket.is_done:
                continue
            replacement = restored.resubmitted.get(ticket.local_ticket.ticket_id)
            if replacement is not None:
                ticket.local_ticket = replacement
        return reborn

    # ------------------------------------------------------------------
    # Submission and routing
    # ------------------------------------------------------------------
    def submit(self, peer_name: str, operation: UserOperation) -> FederatedTicket:
        """Submit a user operation at *peer_name*; it executes at the owner."""
        peer = self.peer(peer_name)
        target = self.rules.route(peer_name, operation)
        ticket = FederatedTicket(
            ticket_id=self._next_ticket_id,
            peer=peer_name,
            target=target,
            operation=operation,
        )
        self._next_ticket_id += 1
        self._tickets[ticket.ticket_id] = ticket
        self._unresolved.append(ticket)
        if target == peer_name:
            try:
                ticket.local_ticket = peer.service.submit(
                    peer.gateway.session_id, operation
                )
            except AdmissionError:
                # Local admission overflow is the submitting client's error;
                # unregister the stillborn ticket and let the caller back off.
                del self._tickets[ticket.ticket_id]
                self._unresolved.remove(ticket)
                raise
        else:
            self._updates_routed.inc()
            update, ticket.trace_span = peer.routed_update(
                operation, target, ticket.ticket_id
            )
            self.transport.send(peer_name, target, update)
        return ticket

    def ticket(self, ticket_id: int) -> FederatedTicket:
        """Look a federated ticket up by id."""
        try:
            return self._tickets[ticket_id]
        except KeyError:
            raise FederationError("unknown federated ticket #{}".format(ticket_id))

    # ------------------------------------------------------------------
    # The federation round
    # ------------------------------------------------------------------
    def pump(self) -> FederationPumpReport:
        """One federation round: retry, deliver, chase every peer, route, flush."""
        report = FederationPumpReport()
        for peer in self._peers.values():
            if peer.retry_deferred():
                peer.activity_seq += 1
        for envelope in self.transport.pump():
            self.peer(envelope.destination).activity_seq += 1
            # A bundle unpacks in order, so delivery is indistinguishable
            # from its payloads arriving back-to-back on a FIFO link.
            for payload in unbundled(envelope.payload):
                self._deliver_payload(envelope.destination, payload)
            report.delivered += 1
        for peer in self._peers.values():
            service_report = peer.service.pump()
            if service_report.steps or service_report.committed:
                peer.activity_seq += 1
            report.steps += service_report.steps
            report.committed += len(service_report.committed)
        for peer in self._peers.values():
            opened_local, vanished = peer.scan_questions()
            inbox = self._inboxes[peer.name]
            for opened in opened_local:
                question = FederatedQuestion.opened(opened)
                inbox[question.key] = question
                report.questions_opened += 1
            for decision_id in vanished:
                inbox.pop((peer.name, decision_id), None)
            peer.scan_failures()
        self._mirror_local_tickets()
        for peer in self._peers.values():
            if not peer.outbox:
                continue
            peer.activity_seq += 1
            self._flush_pairs(peer, peer.outbox, report)
            peer.outbox.clear()
        return report

    def _flush_pairs(
        self,
        peer: Peer,
        pairs: List[PyTuple[str, object]],
        report: FederationPumpReport,
    ) -> None:
        """Per-destination bundle flush: every payload staged for the same
        peer this round shares one envelope (one queue slot, one delay, one
        delivery)."""
        for destination, payload in bundle_by_destination(pairs):
            self.transport.send(peer.name, destination, payload)
        report.flushed += len(pairs)

    def _deliver_payload(self, destination: str, payload: object) -> None:
        if isinstance(payload, QuestionOpened):
            question = FederatedQuestion.opened(payload)
            self._inboxes[destination][question.key] = question
            self._questions_routed.inc()
        elif isinstance(payload, QuestionCancelled):
            removed = self._inboxes[destination].pop(
                (payload.executing_peer, payload.decision_id), None
            )
            if removed is not None:
                self._cancellations.inc()
        elif isinstance(payload, CommitNotice):
            ticket = self._tickets.get(payload.origin.ticket_id)
            if ticket is not None:
                ticket.status = payload.status
                if ticket.trace_span is not None:
                    self._tracer.end_span(
                        ticket.trace_span, status=payload.status.value
                    )
        else:
            self.peer(destination).deliver(payload)

    def _mirror_local_tickets(self) -> None:
        still_unresolved: List[FederatedTicket] = []
        for ticket in self._unresolved:
            if ticket.local_ticket is not None:
                ticket.status = ticket.local_ticket.status
            if not ticket.is_done:
                still_unresolved.append(ticket)
        self._unresolved = still_unresolved

    # ------------------------------------------------------------------
    # The federated inbox
    # ------------------------------------------------------------------
    def inbox(self, peer_name: str) -> List[FederatedQuestion]:
        """The open questions answerable at *peer_name*, oldest first."""
        self.peer(peer_name)
        questions = self._inboxes[peer_name]
        if not questions:
            return []
        return [question for _, question in sorted(questions.items())]

    def answer(
        self,
        peer_name: str,
        question: FederatedQuestion,
        choice: Union[FrontierOperation, int],
    ) -> None:
        """A client at *peer_name* answers one of its open federated questions.

        Local questions resume immediately; remote ones travel back to the
        executing peer as a :class:`QuestionAnswer` envelope (and are subject
        to the same delays and partitions as everything else).
        """
        inbox = self._inboxes[self.peer(peer_name).name]
        if question.key not in inbox:
            raise FederationError(
                "question {} is not open at peer {!r}".format(question.key, peer_name)
            )
        del inbox[question.key]
        if question.executing_peer == peer_name:
            self.peer(peer_name).answer(question.decision_id, choice)
        else:
            self._answers_routed.inc()
            self.transport.send(
                peer_name,
                question.executing_peer,
                QuestionAnswer(
                    executing_peer=question.executing_peer,
                    decision_id=question.decision_id,
                    choice=question.by_index(choice),
                    answered_by=peer_name,
                    trace=question.trace,
                ),
            )

    # ------------------------------------------------------------------
    # Quiescence and draining
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """``True`` when no queue anywhere can produce further work."""
        return not self.transport.in_flight and self._peers_idle()

    def watermark_quiescent(self) -> bool:
        """The conservation form of :meth:`quiescent`.

        Same distributed condition, decided the way the socket federation's
        watermark drain decides it: per-directed-link send watermarks equal
        to their delivery watermarks (``sent - delivered`` is the queue
        length, so conservation ⇔ nothing in flight) plus every peer idle.
        :meth:`run_until_quiescent` asserts this agrees with
        :meth:`quiescent` on every round — a built-in differential between
        the two formulations.
        """
        return self.transport.watermarks_conserved() and self._peers_idle()

    def _peers_idle(self) -> bool:
        return all(peer.idle for peer in self._peers.values())

    def run_until_quiescent(
        self,
        answer_strategy: Optional[AnswerStrategy] = None,
        max_rounds: int = 10_000,
    ) -> int:
        """Pump until the federation drains; returns the number of rounds.

        With *answer_strategy*, every open federated question is answered by
        (a client of) the peer whose inbox holds it, each round.  Without one,
        the loop still drains workloads that never park.  Raises
        ``RuntimeError`` when *max_rounds* pass without quiescence — e.g.
        while a partition still holds envelopes.
        """
        for round_number in range(1, max_rounds + 1):
            self.pump()
            if answer_strategy is not None:
                for peer_name in self._peers:
                    for question in self.inbox(peer_name):
                        self.answer(peer_name, question, answer_strategy(question))
            settled = self.watermark_quiescent()
            if settled != self.quiescent():
                raise FederationError(
                    "watermark quiescence ({}) disagrees with queue-scan "
                    "quiescence ({}) on round {}".format(
                        settled, not settled, round_number
                    )
                )
            if settled:
                return round_number
        raise RuntimeError(
            "federation failed to drain within {} rounds "
            "(transport in flight: {}, partitions: {})".format(
                max_rounds, self.transport.in_flight, self.transport.partitions()
            )
        )

    # ------------------------------------------------------------------
    # Global state
    # ------------------------------------------------------------------
    def global_snapshot(self) -> FrozenDatabase:
        """The union of every peer's committed owned relations."""
        contents: Dict[str, frozenset] = {}
        for relation in self.schema.relation_names():
            owner = self.peer(self.owner_of[relation])
            contents[relation] = frozenset(
                owner.service.scheduler.committed_view().tuples(relation)
            )
        return FrozenDatabase(self.schema, contents)

    def tickets(self) -> List[FederatedTicket]:
        """Every federated ticket, in submission order."""
        return [self._tickets[ticket_id] for ticket_id in sorted(self._tickets)]

    def _peer_service_metrics(self) -> Dict[str, object]:
        """Per-peer service metrics producer (looks peers up live, so a
        peer reborn by :meth:`restart_peer` reports its new service)."""
        data: Dict[str, object] = {}
        for name, peer in self._peers.items():
            snapshot = peer.service.metrics_snapshot()
            for key in (
                "committed",
                "parks",
                "resumes",
                "restarts",
                "store_log_entries",
                "store_versions",
            ):
                data["peer_{}_{}".format(name, key)] = snapshot[key]
        return data

    def metrics(self) -> Dict[str, object]:
        """Aggregated federation, transport and per-peer service metrics."""
        return self.registry.collect()
