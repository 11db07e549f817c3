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
peer, kept up to date from the peers' events.  The desk builds every control
message once (submit, answer, hold/release, drop-questions, snapshot) and
sends it through one primitive, ``_send``: here a call into the peer's
runtime, there a frame write.  So a submission the admission queue turns
away waits at the peer, first come, first served, in both runtimes, and a
partition is two directed link holds at the senders in both.

The network is cooperatively scheduled like everything else in this
reproduction: :meth:`pump` performs one federation round (every frame the
transport releases to its runtime, then one work round per runtime), and
:meth:`run_until_quiescent` loops it, optionally answering open questions
with a strategy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple as PyTuple, Union

from ..codec.wire import (
    _encode_choice,
    decode_tuple,
    encode_trace,
    encode_user_operation,
)
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


#: How long a snapshot reply may take.
REPLY_TIMEOUT = 20.0


class ClientDesk:
    """The client-facing half of a federation, shared by both runtimes.

    A client submits a user operation at a peer and holds a
    :class:`FederatedTicket`; it answers the questions of that peer's
    :class:`FederatedQuestion` inbox.  The desk builds every control message
    a coordinator sends (see :meth:`~repro.federation.host.PeerRuntime.control`)
    and hands it to ``_send(peer_name, body)``.  What a peer sends back —
    ticket terminals, questions filed or gone
    (:attr:`~repro.federation.peer.Peer.events`) and replies — a runtime
    hands to :meth:`_receive`.  A runtime opens the desk (:meth:`_open_desk`)
    and provides ``_send``, the peers it can reach (``_live_peers``), and
    ``_wait`` for a reply that has not arrived yet.
    """

    def _open_desk(self, schema: DatabaseSchema, mappings, ownership: Dict) -> None:
        self.schema = schema
        #: Routing, and the mapping table every peer builds from the same
        #: list (mappings cross the wire by name).
        self.rules = ExchangeRules.for_federation(schema, mappings, ownership)
        self._inboxes: Dict[str, Dict[PyTuple[str, int], FederatedQuestion]] = {
            name: {} for name in ownership
        }
        self._tickets: Dict[int, FederatedTicket] = {}
        self._next_ticket_id = 1
        #: Replies per peer and message type, taken by :meth:`_await_reply`.
        self._replies: Dict[str, Dict[str, List[Dict]]] = {
            name: {} for name in ownership
        }

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
            self._send(peer_name, {
                "t": "submit",
                "fid": ticket.ticket_id,
                "op": encode_user_operation(operation, self.rules.by_name),
            })
        except Exception:
            # A stream to a dead peer: the submission reached no peer, so
            # unregister the stillborn ticket.
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
            self._send(peer_name, {
                "t": "answer",
                "executing": question.executing_peer,
                "decision": question.decision_id,
                "choice": _encode_choice(question.by_index(choice), self.rules.by_name),
                "tr": encode_trace(question.trace),
            })
        except Exception:
            # The answer reached no peer: the question is still open.
            inbox[question.key] = question
            raise

    def partition(self, a: str, b: str) -> None:
        """Cut the link between two peers (messages queue, nothing is lost):
        each holds its link toward the other."""
        self._hold(a, b, "hold")

    def heal(self, a: str, b: str) -> None:
        """Reconnect two peers; held messages flow again."""
        self._hold(a, b, "release")

    def _hold(self, a: str, b: str, kind: str) -> None:
        # Both ends are validated before anything reaches a peer.
        self._inbox_of(a), self._inbox_of(b)
        if a == b:
            raise FederationError("peer {!r} has no link to itself".format(a))
        self._send(a, {"t": kind, "peer": b})
        self._send(b, {"t": kind, "peer": a})

    def global_snapshot(self) -> FrozenDatabase:
        """The union of every peer's committed owned relations."""
        deadline = time.monotonic() + REPLY_TIMEOUT
        names = self._live_peers()
        for name in names:
            self._send(name, {"t": "snapshot"})
        owned: Dict[str, Dict[str, frozenset]] = {}
        for name in names:
            reply = self._await_reply(name, "snapshot-reply", deadline)
            owned[name] = {
                relation: frozenset(decode_tuple(row) for row in rows)
                for relation, rows in reply["relations"].items()
            }
        return FrozenDatabase(self.schema, {
            relation: owned[self.rules.owner_of[relation]][relation]
            for relation in self.schema.relation_names()
        })

    def _restarted(self, name: str) -> None:
        """The restart epilogue: drop every question the restarted peer
        executed, at the desk and at every other live peer.  Its decisions
        died with the old service; the re-submitted updates re-ask them
        under fresh decision ids (the reborn peer drops its own keys on
        restore)."""
        for inbox in self._inboxes.values():
            for key in [key for key in inbox if key[0] == name]:
                del inbox[key]
        for other in self._live_peers():
            if other != name:
                self._send(other, {"t": "drop-questions", "executing": name})

    def _answer_open(self, strategy: AnswerStrategy, peer_names: Sequence[str]) -> None:
        """Answer every open question of *peer_names* with *strategy*."""
        for peer_name in peer_names:
            for question in self.inbox(peer_name):
                self.answer(peer_name, question, strategy(question))

    def _receive(self, name: str, body: Dict) -> None:
        """Take one message from peer *name*: a ``ticket`` terminal status,
        a ``question`` filed in the peer's inbox or a ``question-gone``
        event is applied, anything else is a reply kept for its awaiter."""
        kind = body["t"]
        if kind in ("ticket", "question", "question-gone"):
            self._apply(body)
        else:
            self._replies[name].setdefault(kind, []).append(body)

    def _await_reply(
        self, name: str, kind: str, deadline: float, matches=None
    ) -> Dict:
        """The oldest reply of *kind* from *name* that *matches*."""
        while True:
            queued = self._replies[name].get(kind, [])
            for index, body in enumerate(queued):
                if matches is None or matches(body):
                    return queued.pop(index)
            self._wait(name, kind, deadline)

    def _live_peers(self) -> List[str]:
        """The peers a control message can reach now."""
        return self.peer_names()

    def _wait(self, name: str, kind: str, deadline: float) -> None:
        """Wait for more of what peers send; raises past *deadline*.  A peer
        runtime in this process replies inside ``_send``, so none is late."""
        raise FederationError("no {} from peer {!r}".format(kind, name))

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
        self._open_desk(schema, mappings, ownership)
        self._tracer = tracer if tracer is not None else default_tracer()
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
            other: self.transport.link(peer.name, other)
            for other in self._service_arguments
            if other != peer.name
        }
        self._runtimes[peer.name] = PeerRuntime(
            peer, links, self.rules.by_name, partial(self._receive, peer.name),
            host=host,
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

    def _send(self, name: str, body: Dict) -> None:
        self._runtime(name).control(body)

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
        are dropped from every inbox (:meth:`ClientDesk._restarted`).
        """
        old = self.peer(name)
        reborn, restored = Peer.restore(
            name, path, self.rules, **self._service_arguments[name]
        )
        # The network observes the crash; its counters do not restart.
        for counter in self._peer_counters:
            setattr(reborn, counter, getattr(old, counter))
        self._run(reborn, restored.extra.get("host"))
        self._restarted(name)
        return reborn

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
        while a held link still holds envelopes.
        """
        for round_number in range(1, max_rounds + 1):
            self.pump()
            if answer_strategy is not None:
                self._answer_open(answer_strategy, self.peer_names())
            if self.quiescent():
                return round_number
        raise RuntimeError(
            "federation failed to drain within {} rounds "
            "(transport in flight: {}, held links: {})".format(
                max_rounds, self.transport.in_flight, self.transport.held()
            )
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
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
