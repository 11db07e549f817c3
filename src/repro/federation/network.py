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
transport releases to its runtime, one work round per runtime, then each
runtime's went-idle notice if a drain watches).  The drain is the desk's,
written once for both runtimes (:meth:`ClientDesk.drain`): the watermark
protocol over went-idle notices and status rounds, which lets time pass
here by one :meth:`pump` and over sockets by one selector poll.
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


#: ``strategy(question) -> choice`` used by :meth:`ClientDesk.drain`.
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
    hands to :meth:`_receive`.  A runtime opens the desk (:meth:`_open_desk`),
    starts each peer with :meth:`_start_peer`, and provides ``_send``, the
    peers it can reach (``_live_peers``), ``_wait`` for a reply that has not
    arrived yet, and ``_pass_time(wait)``, its way of letting time pass while
    :meth:`drain` waits (``False`` when it knows that nothing can move any
    more unless the desk acts).
    """

    def _open_desk(
        self, schema: DatabaseSchema, initial: DatabaseView, mappings, ownership: Dict,
        tracker: str, admission, max_total_steps: int,
    ) -> None:
        self.schema = schema
        #: The union initial database every peer starts from.
        self._initial = initial
        #: Routing, and the mapping table every peer builds from the same
        #: list (mappings cross the wire by name).
        self.rules = ExchangeRules.for_federation(schema, mappings, ownership)
        #: Per-peer service arguments, for every start and restart: each peer
        #: may run its own admission policy (slow archive, fast edge).
        self._service_arguments = {
            name: {
                "tracker": tracker,
                "admission": admission.get(name)
                if isinstance(admission, dict)
                else admission,
                "max_total_steps": max_total_steps,
            }
            for name in ownership
        }
        self._inboxes: Dict[str, Dict[PyTuple[str, int], FederatedQuestion]] = {
            name: {} for name in ownership
        }
        self._tickets: Dict[int, FederatedTicket] = {}
        self._next_ticket_id = 1
        #: Replies per peer and message type, taken by :meth:`_await_reply`.
        self._replies: Dict[str, Dict[str, List[Dict]]] = {
            name: {} for name in ownership
        }
        #: The drain's working set: the latest body per peer that carried an
        #: ``activity_seq`` (went-idle notices, status replies, heartbeats).
        self._watermarks: Dict[str, Dict] = {}
        self._next_round = 1
        #: Decomposition record of the most recent :meth:`drain` (None before one).
        self.last_drain: Optional[Dict] = None

    def _start_peer(
        self, name: str, tracer, restore: Optional[str] = None
    ) -> PyTuple[Peer, Optional[Dict]]:
        """Build peer *name*, or restore it from a ``checkpoint_peer`` file:
        the one way a peer starts, in process and in a forked peer process.
        Returns the peer and the host extras its runtime continues from.  A
        file without them, such as a bare :meth:`Peer.checkpoint`, is
        refused: the reborn runtime would count frames received from 0, and
        no drain could settle after it."""
        arguments = dict(self._service_arguments[name], tracer=tracer)
        if restore is None:
            return Peer.build(
                name, self.schema, self._initial, self.rules, **arguments
            ), None
        peer, restored = Peer.restore(name, restore, self.rules, **arguments)
        if "host" not in restored.extra:
            raise FederationError("{!r} is no checkpoint_peer file".format(restore))
        return peer, restored.extra["host"]

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
        restore).  Its drain view goes too: a reborn runtime counts its
        activity seq from 0 again, and :meth:`_note_watermark` keeps the
        higher seq, so a stale view would bury every notice it sends."""
        self._watermarks.pop(name, None)
        for inbox in self._inboxes.values():
            for key in [key for key in inbox if key[0] == name]:
                del inbox[key]
        for other in self._live_peers():
            if other != name:
                self._send(other, {"t": "drop-questions", "executing": name})

    def _answer_open(self, strategy: AnswerStrategy, peer_names: Sequence[str]) -> bool:
        """Answer every open question of *peer_names* with *strategy*;
        ``True`` when there was one."""
        questions = [(name, q) for name in peer_names for q in self.inbox(name)]
        for name, question in questions:
            self.answer(name, question, strategy(question))
        return bool(questions)

    def _receive(self, name: str, body: Dict) -> None:
        """Take one message from peer *name*: a ``ticket`` terminal status,
        a ``question`` filed in the peer's inbox or a ``question-gone``
        event is applied, a went-idle notice becomes the peer's drain view,
        anything else is a reply kept for its awaiter."""
        kind = body["t"]
        if kind in ("ticket", "question", "question-gone"):
            self._apply(body)
        elif kind == "idle":
            # Link watermarks and the activity seq, sent the moment a
            # watched peer settles.
            body["quiescent"] = True
            self._note_watermark(name, body)
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

    # ------------------------------------------------------------------
    # Drain: the watermark protocol, for both runtimes
    # ------------------------------------------------------------------
    def _note_watermark(self, peer: str, body: Dict) -> None:
        """Keep *body* as the peer's drain view unless a newer one is held.

        Frames are dispatched as they arrive but a status reply is consumed
        later, by whoever awaited it: a went-idle notice that was sent after
        the reply (higher ``activity_seq``) can already be in place by then,
        and the older reply must not bury it — the peer, idle, would never
        send another.
        """
        known = self._watermarks.get(peer)
        if known is None or body["activity_seq"] >= known["activity_seq"]:
            self._watermarks[peer] = body

    def _observe(self, name: str, body: Dict, kind: str) -> None:
        """Take a status document (*kind* ``status`` or ``telemetry``) from
        peer *name* as its drain view."""
        self._note_watermark(name, body)

    def _status_round(self, names: Sequence[str], deadline: float) -> Dict[str, Dict]:
        """Ask every peer of *names* for its status document; wait for all."""
        round_number = self._next_round
        self._next_round += 1
        for name in names:
            self._send(name, {"t": "status", "round": round_number})
        replies: Dict[str, Dict] = {}
        for name in names:
            replies[name] = self._await_reply(
                name,
                "status-reply",
                deadline,
                matches=lambda body: body.get("round") == round_number,
            )
            self._observe(name, replies[name], "status")
        return replies

    @staticmethod
    def _round_settled(replies: Dict[str, Dict]) -> bool:
        """One status round's global-quiescence test."""
        if not all(reply["quiescent"] for reply in replies.values()):
            return False
        for name, reply in replies.items():
            for destination, sent in reply["sent"].items():
                if destination not in replies:
                    continue
                received = replies[destination]["received"].get(name, 0)
                # At-least-once delivery: a resend after a reconnect can push
                # received *past* sent, never below it at quiescence.
                if received < sent:
                    return False
        return True

    def drain(
        self,
        answer_strategy: Optional[AnswerStrategy] = None,
        timeout: float = 60.0,
    ) -> int:
        """Let time pass, answer, and wait until the federation is drained.

        The protocol is conservation-based and event-driven.  The drain
        subscribes to every live peer's went-idle notices (a ``watch``
        control message on entry, cancelled on every way out): a watched
        peer reports the moment it settles, at once if it already has, and
        a peer nobody is draining sends none.  Time passes (``_pass_time``)
        until every live peer's view is quiescent with every link's
        frames-sent equal to the destination's frames-received; then one
        confirming status round decides.  Drained iff that round is settled
        and no peer's monotonic ``activity_seq`` advanced since its view was
        observed — an unchanged seq brackets the gap, so no frame can have
        moved in between.  With *answer_strategy*, every open question is
        answered by (a client of) the peer whose inbox holds it as time
        passes, and the drain goes on while any is open.

        Returns the number of status rounds; raises ``RuntimeError`` past
        *timeout* seconds, or at once when ``_pass_time`` knows that nothing
        moves any more and no answer is due (e.g. a held link in process).
        Each call leaves a latency-decomposition record (round count,
        per-round wall seconds, settle reason, time-to-idle) on
        ``self.last_drain``.
        """
        # Settle state never survives across drain calls: a previous drain
        # that died mid-round (peer-lost, timeout) can leave status replies
        # parked that no awaiter will ever claim.
        for replies in self._replies.values():
            replies.pop("status-reply", None)
        started = time.monotonic()
        deadline = started + timeout
        round_seconds: List[float] = []
        rounds = 0
        time_to_idle: Optional[float] = None
        wait = 0.0
        # Subscribe before looking at any view: a peer that is already idle
        # answers the watch with a notice at once, a busy one when it settles.
        self._watch(True)
        try:
            while True:
                moving = self._pass_time(wait)
                wait = 0.0
                # Live names *after* time passed: a peer lost just now must
                # not be sent a status request.
                names = self._live_peers()
                views = {
                    name: self._watermarks[name]
                    for name in names
                    if name in self._watermarks
                }
                if time.monotonic() > deadline:
                    self._record_drain(rounds, started, round_seconds, "timeout")
                    why = "within {}s".format(timeout)
                    raise RuntimeError(self._drain_failure_message(why, views))
                if answer_strategy is not None:
                    moving |= self._answer_open(answer_strategy, names)
                if len(views) < len(names) or not self._round_settled(views):
                    if not moving:
                        # Undrainable (a held link, a parked question and no
                        # strategy, frames lost with a crash): say so now.
                        self._record_drain(rounds, started, round_seconds, "stuck")
                        raise RuntimeError(self._drain_failure_message(
                            "(nothing moves any more)",
                            self._status_round(names, deadline),
                        ))
                    # Not a candidate yet (a peer with no view reports as
                    # soon as it is idle, being watched): let time pass.
                    time_to_idle = None
                    wait = min(0.25, max(0.0, deadline - time.monotonic()))
                    continue
                # Candidate: every live peer's last view is idle and the
                # per-link watermarks conserve; the confirm decides.
                if time_to_idle is None:
                    time_to_idle = time.monotonic() - started
                round_started = time.monotonic()
                replies = self._status_round(names, deadline)
                round_seconds.append(time.monotonic() - round_started)
                rounds += 1
                if not self._round_settled(replies) or any(
                    replies[name]["activity_seq"] != views[name]["activity_seq"]
                    for name in names
                ):
                    # Stale (activity since the views were taken): the
                    # replies just refreshed every view for the next pass.
                    time_to_idle = None
                elif answer_strategy is None or not any(
                    self._inboxes[name] for name in names
                ):
                    self._record_drain(
                        rounds, started, round_seconds, "watermark-idle",
                        time_to_idle,
                    )
                    return rounds
        except FederationError:
            # A status round hung on a lost peer: record what the drain
            # managed before surfacing the coordination failure.
            self._record_drain(rounds, started, round_seconds, "peer-lost")
            raise
        finally:
            self._watch(False)

    def _watch(self, on: bool) -> None:
        """Subscribe to (or cancel) every live peer's went-idle notices."""
        for name in self._live_peers():
            self._send(name, {"t": "watch", "on": on})

    def _drain_failure_message(self, why: str, replies: Dict[str, Dict]) -> str:
        keys = ("quiescent", "outbox", "queued", "retry", "held", "sent", "received")
        return "federation failed to drain {}: {}".format(why, {
            name: {key: reply.get(key) for key in keys}
            for name, reply in replies.items()
        })

    def _record_drain(
        self,
        rounds: int,
        started: float,
        round_seconds: List[float],
        settle_reason: str,
        time_to_idle: Optional[float] = None,
    ) -> None:
        record = {
            "rounds": rounds,
            "seconds": time.monotonic() - started,
            "round_seconds": [round(value, 6) for value in round_seconds],
            "settle_reason": settle_reason,
        }
        if time_to_idle is not None:
            record["time_to_idle_seconds"] = round(time_to_idle, 6)
        self.last_drain = record

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
        self._open_desk(
            schema, initial, mappings, ownership, tracker, admission, max_total_steps
        )
        self._tracer = tracer if tracer is not None else default_tracer()
        self.transport = transport if transport is not None else Transport()
        self._runtimes: Dict[str, PeerRuntime] = {}
        for name in ownership:
            self._run(*self._start_peer(name, self._tracer))
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
            for other in self._inboxes
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
        dropped — that *is* the crash.  The replacement is restored from a
        :meth:`checkpoint_peer` file and continues its link watermarks
        (:meth:`ClientDesk._start_peer` refuses a file without them).
        Envelopes in flight on the transport are untouched and deliver to
        the reborn peer as usual (delivery re-submits through its admission
        queue, so nothing cares that the service behind the name changed).

        Open federated questions whose *executing* peer was the killed one
        are dropped from every inbox (:meth:`ClientDesk._restarted`).
        """
        old = self.peer(name)
        reborn, host = self._start_peer(name, self._tracer, restore=path)
        # The network observes the crash; its counters do not restart.
        for counter in self._peer_counters:
            setattr(reborn, counter, getattr(old, counter))
        self._run(reborn, host)
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
        for runtime in self._runtimes.values():
            runtime.idle_push()
        return report

    def _pass_time(self, wait: float) -> bool:
        """A drain's time passes one round at a time; ``False`` when no
        activity seq advanced and every queued envelope sits on a held link."""
        runtimes = self._runtimes.values()
        before = [runtime.activity_seq for runtime in runtimes]
        self.pump()
        return before != [runtime.activity_seq for runtime in runtimes] or any(
            link.queued and not link.held for r in runtimes for link in r.links.values()
        )

    def quiescent(self) -> bool:
        """``True`` when no runtime can produce further work: every peer is
        idle and no link holds an envelope."""
        return all(runtime.is_idle() for runtime in self._runtimes.values())

    #: The drain's former name, kept for the benchmark's in-process system.
    run_until_quiescent = ClientDesk.drain

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
