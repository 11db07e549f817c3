"""The federated network: many repositories, one collaborative exchange.

A :class:`FederatedNetwork` is the multi-peer realization of the paper's
setting, with every peer in one process: each :class:`~repro.federation.peer.Peer`
runs its own full update-exchange service (store, tracker, optimistic
scheduler, admission queue, frontier inbox) over the relations it owns, and
the tgd mappings that link peers are driven by commit-time exchange over a
simulated :class:`~repro.federation.transport.Transport`:

* a user operation submitted at a peer executes at the *owner* of its target
  relation — locally, or routed as a :class:`~repro.federation.envelopes.RemoteUpdate`
  through the owner's admission queue, and the owner reports its terminal
  status straight to the client desk (nothing travels back to the submitting
  peer);
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
the same code a peer process (:mod:`repro.federation.proc`) runs.  The
client's side is :class:`ClientDesk`, the same for the socket federation
(:mod:`repro.federation.process_network`): the :class:`FederatedTicket`
table and a :class:`FederatedQuestion` inbox per peer, kept up to date from
the peers' events.  The network adds the transport that moves payloads.

The network is cooperatively scheduled like everything else in this
reproduction: :meth:`pump` performs one federation round (retry, deliver,
chase, route, flush), and :meth:`run_until_quiescent` loops it, optionally
answering open questions with a strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple as PyTuple, Union

from ..core.frontier import FrontierOperation
from ..core.schema import DatabaseSchema
from ..core.tgd import Tgd
from ..core.update import UserOperation
from ..obs.metrics import MetricsRegistry
from ..obs.trace import default_tracer
from ..service.admission import AdmissionConfig, AdmissionError
from ..service.tickets import TicketStatus
from ..storage.interface import DatabaseView
from ..storage.memory import FrozenDatabase
from .envelopes import QuestionOpened
from .exchange import ExchangeRules, FederationError
from .peer import Peer
from .transport import Transport, bundle_by_destination, unbundled


@dataclass
class FederatedTicket:
    """A client's handle of one user submission, in either runtime."""

    ticket_id: int
    peer: str
    target: str
    operation: UserOperation
    #: ``QUEUED`` until the executing peer reports the terminal status: the
    #: submitting peer for a local operation, the owner for a routed one
    #: (a partition holding the routed update delays it, as it should).
    status: TicketStatus = TicketStatus.QUEUED

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


#: One open frontier question in a peer's federated inbox: the
#: :class:`~repro.federation.envelopes.QuestionOpened` that filed it there.
FederatedQuestion = QuestionOpened


#: ``strategy(question) -> choice`` used by :meth:`run_until_quiescent`.
AnswerStrategy = Callable[[FederatedQuestion], Union[FrontierOperation, int]]


class ClientDesk:
    """The client-facing half of a federation, shared by both runtimes.

    A client submits a user operation at a peer and holds a
    :class:`FederatedTicket`; it answers the questions of that peer's
    :class:`FederatedQuestion` inbox.  The peers report ticket terminals and
    questions filed or gone (:attr:`~repro.federation.peer.Peer.events`),
    which a runtime hands to :meth:`_apply`.  A runtime provides ``rules``
    and says how a submission and an answer reach the peer:
    ``_submit_at(ticket)`` and ``_answer_at(peer_name, question, choice)``.
    """

    def _open_desk(self, peer_names: Sequence[str]) -> None:
        self._inboxes: Dict[str, Dict[PyTuple[str, int], FederatedQuestion]] = {
            name: {} for name in peer_names
        }
        self._tickets: Dict[int, FederatedTicket] = {}
        self._next_ticket_id = 1

    def _inbox_of(self, peer_name: str) -> Dict[PyTuple[str, int], FederatedQuestion]:
        try:
            return self._inboxes[peer_name]
        except KeyError:
            raise FederationError("unknown peer {!r}".format(peer_name))

    def submit(self, peer_name: str, operation: UserOperation) -> FederatedTicket:
        """Submit a user operation at *peer_name*; it executes at the owner."""
        self._inbox_of(peer_name)
        ticket = FederatedTicket(
            ticket_id=self._next_ticket_id,
            peer=peer_name,
            target=self.rules.route(peer_name, operation),
            operation=operation,
        )
        self._next_ticket_id += 1
        self._tickets[ticket.ticket_id] = ticket
        try:
            self._submit_at(ticket)
        except AdmissionError:
            # Local admission overflow is the submitting client's error;
            # unregister the stillborn ticket and let the caller back off.
            del self._tickets[ticket.ticket_id]
            raise
        return ticket

    def ticket(self, ticket_id: int) -> FederatedTicket:
        """Look a federated ticket up by id."""
        try:
            return self._tickets[ticket_id]
        except KeyError:
            raise FederationError("unknown federated ticket #{}".format(ticket_id))

    def tickets(self) -> List[FederatedTicket]:
        """Every federated ticket, in submission order."""
        return [self._tickets[ticket_id] for ticket_id in sorted(self._tickets)]

    def peer_names(self) -> List[str]:
        """The peer names, in declaration order."""
        return list(self._inboxes)

    def inbox(self, peer_name: str) -> List[FederatedQuestion]:
        """The open questions answerable at *peer_name*, oldest first."""
        questions = self._inbox_of(peer_name)
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

        The answer goes to the peer, which resumes a local question and sends
        a remote one's answer on to the executing peer (subject to the same
        delays and partitions as everything else).
        """
        inbox = self._inbox_of(peer_name)
        if question.key not in inbox:
            raise FederationError(
                "question {} is not open at peer {!r}".format(question.key, peer_name)
            )
        del inbox[question.key]
        self._answer_at(peer_name, question, question.by_index(choice))

    def _answer_open(self, strategy: AnswerStrategy, peer_names: Sequence[str]) -> None:
        """Answer every open question of *peer_names* with *strategy*."""
        for peer_name in peer_names:
            for question in self.inbox(peer_name):
                self.answer(peer_name, question, strategy(question))

    def _apply(self, event: Dict) -> None:
        """Apply one peer event: a ``ticket`` terminal status, a ``question``
        filed in the peer's inbox or a ``question-gone``."""
        kind = event["t"]
        if kind == "ticket":
            ticket = self._tickets.get(event["fid"])
            if ticket is not None and not ticket.is_done:
                ticket.status = TicketStatus(event["status"])
        elif kind == "question":
            question = event["q"]
            self._inboxes[event["inbox"]][question.key] = question
        else:
            self._inboxes[event["inbox"]].pop(
                (event["executing"], event["decision"]), None
            )

    def _drop_questions_of(self, executing: str) -> None:
        """Drop every question a restarted peer executed: its decisions died
        with the old service (the re-submitted updates re-ask them)."""
        for inbox in self._inboxes.values():
            for key in [key for key in inbox if key[0] == executing]:
                del inbox[key]


@dataclass
class FederationPumpReport:
    """What one federation round did."""

    delivered: int = 0
    steps: int = 0
    committed: int = 0
    flushed: int = 0
    questions_opened: int = 0


class FederatedNetwork(ClientDesk):
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
        self._open_desk(list(self._peers))
        #: Federation-level counters, registered into one registry whose
        #: ``collect()`` is the whole :meth:`metrics` snapshot (transport and
        #: per-peer service metrics fold in as producers; the key set and
        #: order are bit-compatible with the pre-registry dict merging).
        #: Routing, exchange and delivery counters are the peers' own, summed.
        self.registry = MetricsRegistry()
        #: The :class:`Peer` counters the registry sums (see :meth:`restart_peer`).
        self._peer_counters: List[str] = []
        self.registry.gauge("peers").set_function(lambda: len(self._peers))
        for counter in (
            "updates_routed",
            "firings_delivered",
            "retractions_delivered",
            "questions_routed",
            "answers_routed",
            "answers_dropped",
            "question_cancellations",
            "deliveries_deferred",
            "firings_emitted",
            "retractions_emitted",
            "envelopes_coalesced",
        ):
            self._sum_of_peers(counter)
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
        decision-id numbering resumed, the report obligations of routed
        updates and client tickets re-linked to the re-submitted tickets,
        deferred deliveries back in its retry queue (see :meth:`Peer.restore`).  Envelopes in
        flight on the transport are untouched and deliver to the reborn peer
        as usual (delivery re-submits through its admission queue, so
        nothing cares that the service behind the name changed).

        Open federated questions whose *executing* peer was the killed one
        are dropped from every inbox: their decisions died with the old
        service, and the re-submitted updates will re-ask them under fresh
        decision ids.
        """
        old = self.peer(name)
        reborn, _ = Peer.restore(
            name, path, self.rules, **self._service_arguments[name]
        )
        # The network observes the crash; its counters do not restart.
        for counter in self._peer_counters:
            setattr(reborn, counter, getattr(old, counter))
        self._peers[name] = reborn
        self._drop_questions_of(name)
        for peer in self._peers.values():
            peer.drop_questions(name)
        return reborn

    # ------------------------------------------------------------------
    # Submission and answers (the client desk's way to a peer)
    # ------------------------------------------------------------------
    def _submit_at(self, ticket: FederatedTicket) -> None:
        routed = self.peer(ticket.peer).submit(ticket.ticket_id, ticket.operation)
        if routed is not None:
            self.transport.send(ticket.peer, *routed)

    def _answer_at(
        self, peer_name: str, question: FederatedQuestion, choice
    ) -> None:
        routed = self.peer(peer_name).answer_question(
            question.key, choice, question.trace
        )
        if routed is not None:
            self.transport.send(peer_name, routed.executing_peer, routed)

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
            destination = self.peer(envelope.destination)
            destination.activity_seq += 1
            # A bundle unpacks in order, so delivery is indistinguishable
            # from its payloads arriving back-to-back on a FIFO link.
            for payload in unbundled(envelope.payload):
                destination.deliver(payload)
            report.delivered += 1
        for peer in self._peers.values():
            service_report = peer.pump()
            if service_report.steps or service_report.committed:
                peer.activity_seq += 1
            report.steps += service_report.steps
            report.committed += len(service_report.committed)
        for peer in self._peers.values():
            peer.scan()
            for event in peer.events:
                self._apply(event)
                if event["t"] == "question":
                    report.questions_opened += 1
            peer.events.clear()
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
                self._answer_open(answer_strategy, list(self._peers))
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
