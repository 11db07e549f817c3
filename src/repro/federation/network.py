"""The federated network: many repositories, one collaborative exchange.

A :class:`FederatedNetwork` is the multi-peer realization of the paper's
setting, with every peer in one process: each :class:`~repro.federation.peer.Peer`
runs its own full update-exchange service (store, tracker, optimistic
scheduler, admission queue, frontier inbox) over the relations it owns.
User operations route to the owner of their target relation, commits fire
the cross-peer mappings as exchange envelopes, and frontier questions route
back to the originating peer's inbox (see :mod:`repro.federation.peer`).
When the links are empty and every peer is idle (:meth:`quiescent`), the
union of the peers' committed stores is a chase fixpoint of the union
mapping set (differentially tested against the single-repository engine in
:mod:`repro.federation.convergence`).

Each peer runs in a :class:`~repro.federation.host.PeerRuntime`, the code a
peer process (:mod:`repro.federation.proc`) runs between its sockets: it
encodes, decodes, delivers, pumps, scans and stages exactly as there, over
the in-memory links of a :class:`~repro.federation.transport.Transport`.
The client's side is :class:`ClientDesk`, the same for the socket
federation (:mod:`repro.federation.process_network`): the
:class:`FederatedTicket` table and a :class:`FederatedQuestion` inbox per
peer, kept up to date from the peers' events.

The network is cooperatively scheduled like everything else in this
reproduction: :meth:`pump` performs one federation round (every frame the
transport releases to its runtime, then one work round per runtime), and
:meth:`run_until_quiescent` loops it, optionally answering open questions
with a strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple as PyTuple, Union

from ..core.frontier import FrontierOperation
from ..core.schema import DatabaseSchema
from ..core.tgd import Tgd
from ..core.update import UserOperation
from ..obs.metrics import MetricsRegistry
from ..obs.trace import default_tracer
from ..service.admission import AdmissionConfig
from ..service.tickets import TicketStatus
from ..storage.interface import DatabaseView
from ..storage.memory import FrozenDatabase
from .envelopes import QuestionOpened
from .exchange import ExchangeRules, FederationError
from .host import PeerRuntime
from .peer import Peer
from .transport import Transport


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
    and says how a submission, an answer and a link hold reach the peers:
    ``_submit_at(ticket)``, ``_answer_at(peer_name, question, choice)`` and
    ``_hold(a, b, held)``.
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
        except Exception:
            # Admission overflow, or a stream to a dead peer: the submission
            # reached no peer, so unregister the stillborn ticket.
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
        try:
            self._answer_at(peer_name, question, question.by_index(choice))
        except Exception:
            # The answer reached no peer: the question is still open.
            inbox[question.key] = question
            raise

    def partition(self, a: str, b: str) -> None:
        """Cut the link between two peers (messages queue, nothing is lost)."""
        self._hold(*self._pair(a, b), True)

    def heal(self, a: str, b: str) -> None:
        """Reconnect two peers; held messages flow again."""
        self._hold(*self._pair(a, b), False)

    def _pair(self, a: str, b: str) -> PyTuple[str, str]:
        """Validate a link's two ends before anything reaches a peer."""
        self._inbox_of(a), self._inbox_of(b)
        if a == b:
            raise FederationError("peer {!r} has no link to itself".format(a))
        return a, b

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
        self._runtimes: Dict[str, PeerRuntime] = {}
        for name in ownership:
            self._run(Peer.build(
                name, schema, initial, self.rules, **self._service_arguments[name]
            ))
        self._open_desk(list(self._runtimes))
        #: One registry whose ``collect()`` is the whole :meth:`metrics`
        #: snapshot: the peers' own routing, exchange and delivery counters
        #: summed, then the transport's and per-peer service metrics.
        self.registry = MetricsRegistry()
        #: The :class:`Peer` counters the registry sums (see :meth:`restart_peer`).
        self._peer_counters: List[str] = []
        self.registry.gauge("peers").set_function(lambda: len(self._runtimes))
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
            lambda: sum(getattr(peer, counter) for peer in self.peers())
        )

    def _run(self, peer: Peer, host: Optional[Dict] = None) -> None:
        """Run *peer* in a runtime whose links are this transport's."""
        links = {
            other: partial(self.transport.send, peer.name, other)
            for other in self._service_arguments
            if other != peer.name
        }
        self._runtimes[peer.name] = PeerRuntime(
            peer, links, self.rules.by_name, self._apply, host=host
        )

    @property
    def tracer(self):
        """The tracer the whole federation records into."""
        return self._tracer

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _runtime(self, name: str) -> PeerRuntime:
        try:
            return self._runtimes[name]
        except KeyError:
            raise FederationError("unknown peer {!r}".format(name))

    def peer(self, name: str) -> Peer:
        """Look a peer up by name."""
        return self._runtime(name).peer

    def peers(self) -> List[Peer]:
        """Every peer, in declaration order."""
        return [runtime.peer for runtime in self._runtimes.values()]

    def _hold(self, a: str, b: str, held: bool) -> None:
        if held:
            self.transport.partition(a, b)
        else:
            self.transport.heal(a, b)

    # ------------------------------------------------------------------
    # Peer checkpoint and restart
    # ------------------------------------------------------------------
    def checkpoint_peer(self, name: str, path: str) -> None:
        """Persist one peer's restartable state (see :meth:`Peer.checkpoint`)."""
        self._runtime(name).checkpoint(path)

    def restart_peer(self, name: str, path: str) -> Peer:
        """Kill peer *name* and rebuild it from a checkpoint file.

        The old peer object (service, store, scheduler, sessions) is simply
        dropped — that *is* the crash.  The replacement is restored from the
        checkpoint (see :meth:`Peer.restore`) and runs in a new runtime.
        Envelopes in flight on the transport are untouched and deliver to
        the reborn peer as usual (delivery re-submits through its admission
        queue, so nothing cares that the service behind the name changed).

        Open federated questions whose *executing* peer was the killed one
        are dropped from every inbox: their decisions died with the old
        service, and the re-submitted updates will re-ask them under fresh
        decision ids.
        """
        old = self.peer(name)
        reborn, restored = Peer.restore(
            name, path, self.rules, **self._service_arguments[name]
        )
        # The network observes the crash; its counters do not restart.
        for counter in self._peer_counters:
            setattr(reborn, counter, getattr(old, counter))
        self._run(reborn, restored.extra.get("host"))
        self._drop_questions_of(name)
        for peer in self.peers():
            peer.drop_questions(name)
        return reborn

    # ------------------------------------------------------------------
    # Submission and answers (the client desk's way to a peer)
    # ------------------------------------------------------------------
    def _submit_at(self, ticket: FederatedTicket) -> None:
        self._runtimes[ticket.peer].submit(ticket.ticket_id, ticket.operation)

    def _answer_at(
        self, peer_name: str, question: FederatedQuestion, choice
    ) -> None:
        self._runtimes[peer_name].answer(question.key, choice, question.trace)

    # ------------------------------------------------------------------
    # The federation round
    # ------------------------------------------------------------------
    def pump(self) -> FederationPumpReport:
        """One federation round: every envelope the transport releases goes
        to its destination's runtime, then every runtime works one round."""
        report = FederationPumpReport()
        for envelope in self.transport.pump():
            self._runtimes[envelope.destination].receive(
                envelope.source, envelope.payload, envelope.clock
            )
            report.delivered += 1
        for runtime in self._runtimes.values():
            service_report = runtime.work()
            if service_report is not None:
                report.steps += service_report.steps
                report.committed += len(service_report.committed)
        return report

    # ------------------------------------------------------------------
    # Quiescence and draining
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """``True`` when no queue anywhere can produce further work."""
        return not self.transport.in_flight and all(
            peer.idle for peer in self.peers()
        )

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
                self._answer_open(answer_strategy, self.peer_names())
            if self.quiescent():
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
        for name, runtime in self._runtimes.items():
            snapshot = runtime.peer.service.metrics_snapshot()
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
