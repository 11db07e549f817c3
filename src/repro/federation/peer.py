"""One federation peer: a full repository service plus the exchange protocol.

A :class:`Peer` owns a subset of the federation's relations and wraps its own
:class:`~repro.service.repository.RepositoryService` — its own multiversion
store, dependency tracker, optimistic scheduler, admission queue and frontier
inbox.  It is the one implementation of a peer's side of the exchange, which
one :class:`~repro.federation.host.PeerRuntime` drives between its links in
either federation runtime (a peer process, or the in-process network):

* :meth:`Peer.build` and :meth:`Peer.restore` construct it with the
  runtime's tracer, fresh or from a :meth:`Peer.checkpoint`; both runtimes
  call them only through
  :meth:`~repro.federation.network.ClientDesk._start_peer`;
* :meth:`Peer.deliver` re-submits routed updates, firings and retractions
  under the peer's *gateway* session and resumes parked decisions; what the
  bounded admission queue turns away waits in :attr:`Peer.retry`, and later
  deliveries wait behind it (admission is first come, first served);
* everything the peer sends is staged in :attr:`Peer.outbox`: the firings
  and retractions a scheduler commit listener makes of every committed
  write set, the questions and cancellations of :meth:`Peer.scan`, and what
  its clients route elsewhere;
* :meth:`Peer.submit` and :meth:`Peer.answer_question` serve this peer's
  clients, keeping their federated ticket ids and inbox keys; what the
  clients see is reported in :attr:`Peer.events`, which the runtime's
  :class:`~repro.federation.network.ClientDesk` applies.  A routed user
  operation's terminal status is reported by the peer that executed it,
  straight to the desk, under the federated ticket id its origin carries:
  the submitting peer only forwards it;
* :meth:`Peer.pump` pumps the service; a budget stall fails the tickets it
  stopped and leaves the peer serving, in both runtimes;
* :meth:`Peer.scan` diffs the service's frontier inbox after each pump:
  questions of *remote-origin* updates are staged for the originating peer,
  questions that vanished unanswered produce cancellations.

What moves the staged payloads and the events is the runtime's business.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple as PyTuple

from ..codec.wire import (
    decode_payload,
    decode_user_operation,
    encode_payload,
    encode_user_operation,
)
from ..concurrency.optimistic import SchedulerStalled
from ..core.oracle import OracleError
from ..core.terms import NullFactory
from ..service.admission import AdmissionError
from ..service.repository import PumpReport, RepositoryService, RestoredService
from ..service.tickets import RemoteOrigin, TicketStatus, UpdateTicket
from ..storage.memory import FrozenDatabase
from .envelopes import (
    ExchangeFiring,
    ExchangeRetraction,
    QuestionAnswer,
    QuestionCancelled,
    QuestionOpened,
    RemoteUpdate,
)
from .exchange import (
    ExchangeRules,
    FederationError,
    coalesce_envelopes,
    envelopes_for_commit,
)
from .operations import RemoteFiringOperation, RemoteRetractionOperation

#: The payloads a delivery re-submits through the admission queue.
UPDATE_BEARING = (RemoteUpdate, ExchangeFiring, ExchangeRetraction)


class Peer:
    """A named member of the federation."""

    def __init__(
        self,
        name: str,
        service: RepositoryService,
        owned_relations: PyTuple[str, ...],
        rules: ExchangeRules,
        firing_factory: NullFactory,
    ):
        self.name = name
        self.service = service
        self.owned = frozenset(owned_relations)
        self._rules = rules
        # Commit-time exchange fires on every LHS match without consulting
        # the RHS (see envelopes_for_commit), which is only sound while the
        # RHS of this peer's outgoing mappings is stored elsewhere.
        for cross in rules.cross:
            shared = cross.tgd.rhs_relations() & self.owned
            if cross.source == name and shared:
                raise FederationError(
                    "peer {!r} owns RHS relation(s) {} of its outgoing cross "
                    "mapping {}".format(name, sorted(shared), cross.tgd.name)
                )
        self._firing_factory = firing_factory
        #: Relations whose writes can produce exchange envelopes here; write
        #: sets touching none of them skip commit-time exchange entirely.
        self._exchange_relations = rules.exchange_relations(name)
        #: The session envelope deliveries are submitted under.
        self.gateway = service.open_session("federation:{}".format(name))
        #: Staged ``(destination, payload)`` pairs; the runtime sends them,
        #: one message per destination, after each work round or client call.
        self.outbox: List[PyTuple[str, object]] = []
        #: Open service decisions we know about: decision_id -> origin of the
        #: asking ticket (``None`` when the question is answerable locally).
        self._known_questions: Dict[int, Optional[RemoteOrigin]] = {}
        #: Routed decisions answered through a delivered QuestionAnswer (their
        #: disappearance from the inbox is success, not cancellation).
        self._answered_remote: Set[int] = set()
        #: Local ticket ids of delivered routed updates whose terminal status
        #: this peer reports to the client desk, under ``origin.ticket_id``.
        self._notify: Dict[int, RemoteOrigin] = {}
        #: Federated ticket id -> service ticket of a client operation
        #: executing here, until its terminal status is reported.
        self._executing: Dict[int, UpdateTicket] = {}
        #: This peer's federated inbox: ``(executing_peer, decision_id)``
        #: keys of the open questions its clients may answer.
        self.inbox: Set[PyTuple[str, int]] = set()
        #: Events for the runtime's client desk, in order, shaped like the
        #: peer process's ``ticket`` (terminal status), ``question`` (filed
        #: here; ``q`` is the :class:`QuestionOpened`) and ``question-gone``
        #: control frames.
        self.events: List[Dict] = []
        #: Update-bearing deliveries the bounded admission queue turned
        #: away, in arrival order (see :meth:`retry_deferred`).
        self.retry: List[object] = []
        #: Client ``(ticket id, operation)`` submissions the admission queue
        #: turned away, in arrival order: the runtime defers them instead of
        #: raising (see :meth:`retry_deferred`).
        self.deferred: List[PyTuple[int, object]] = []
        #: Exchange counters (aggregated by the network's metrics snapshot
        #: and the peer process's status replies).
        self.updates_routed = 0
        self.questions_routed = 0
        self.answers_routed = 0
        self.question_cancellations = 0
        self.firings_emitted = 0
        self.retractions_emitted = 0
        self.notices_emitted = 0
        #: Envelopes the per-batch coalescing dropped before the wire.
        self.envelopes_coalesced = 0
        self.firings_delivered = 0
        self.retractions_delivered = 0
        #: Deliveries that found the admission queue full (each counted once).
        self.deliveries_deferred = 0
        #: Answers whose asking update had already aborted.
        self.answers_dropped = 0
        service.add_batch_commit_listener(self._on_batch_commit)

    # ------------------------------------------------------------------
    # Construction and restore
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        name: str,
        schema,
        initial,
        rules: ExchangeRules,
        *,
        tracer,
        **service_arguments,
    ) -> "Peer":
        """A fresh peer storing its owned part of the union database
        *initial* and minting nulls that avoid all of it."""
        contents = {
            relation: frozenset(initial.tuples(relation))
            if rules.owner_of[relation] == name
            else frozenset()
            for relation in schema.relation_names()
        }
        service = RepositoryService(
            FrozenDatabase(schema, contents),
            rules.local_mappings(name),
            tracer=tracer,
            trace_peer=name,
            # Peer-unique null prefixes: two peers' chases must never mint
            # the same labeled null, or shipping a head row would silently
            # identify two unrelated unknowns at the destination.
            null_factory=NullFactory.avoiding_view(
                initial, prefix="{}s".format(name)
            ),
            **service_arguments,
        )
        return cls(
            name=name,
            service=service,
            owned_relations=rules.owned_by(name),
            rules=rules,
            firing_factory=NullFactory.avoiding_view(
                initial, prefix="{}f".format(name)
            ),
        )

    @classmethod
    def restore(
        cls,
        name: str,
        path: str,
        rules: ExchangeRules,
        *,
        tracer,
        **service_arguments,
    ) -> PyTuple["Peer", RestoredService]:
        """Rebuild a peer from a :meth:`checkpoint` file.

        Returns the peer and the :class:`RestoredService`, whose ``extra``
        carries the runtime's own restart bookkeeping.  Client operations
        that were executing here follow their re-submitted service tickets;
        inbox keys of questions this peer executed are dropped, because their
        decisions died with the old service (the re-submitted updates re-ask
        them under fresh decision ids).
        """
        restored = RepositoryService.restore(
            path,
            rules.local_mappings(name),
            tracer=tracer,
            trace_peer=name,
            **service_arguments,
        )
        extra = restored.extra
        peer = cls(
            name=name,
            service=restored.service,
            owned_relations=rules.owned_by(name),
            rules=rules,
            firing_factory=NullFactory.from_state(extra["firing_factory"]),
        )
        for old_ticket_id, origin_body in extra.get("notify", ()):
            replacement = restored.resubmitted.get(old_ticket_id)
            if replacement is not None:
                peer._notify[replacement.ticket_id] = RemoteOrigin(
                    origin_body["peer"], origin_body["ticket"]
                )
        for ticket_id, old_ticket_id in extra.get("executing", ()):
            replacement = restored.resubmitted.get(old_ticket_id)
            if replacement is not None:
                peer._executing[ticket_id] = replacement
            # Missing: it finished before the checkpoint, and the runtime
            # applied its terminal event before the checkpoint was taken.
        peer.inbox = {
            (executing, decision)
            for executing, decision in extra.get("inbox", ())
            if executing != name
        }
        peer.retry = [
            decode_payload(body, rules.by_name) for body in extra.get("retry", ())
        ]
        peer.deferred = [
            (ticket_id, decode_user_operation(body, rules.by_name))
            for ticket_id, body in extra.get("deferred", ())
        ]
        return peer, restored

    # ------------------------------------------------------------------
    # The client desk: submissions, answers, ticket terminals
    # ------------------------------------------------------------------
    def submit(self, ticket_id: int, operation) -> None:
        """Submit a client's operation under its federated *ticket_id*.

        It executes here if this peer owns its target (a full admission queue
        raises :class:`AdmissionError`); else its :class:`RemoteUpdate` is
        staged for the owner, which reports the terminal status.  A traced
        routed operation's root span closes here, on forwarding; the owner's
        ``remote`` update span, its child, carries the outcome.
        """
        target = self._rules.route(self.name, operation)
        if target == self.name:
            self._executing[ticket_id] = self.service.submit(
                self.gateway.session_id, operation
            )
            return
        self.updates_routed += 1
        tracer = self.service.tracer
        context = None
        if tracer.enabled:
            span = tracer.start_span(
                "update",
                peer=self.name,
                kind="user",
                op_type=type(operation).__name__,
                op=operation.describe(),
                ticket=ticket_id,
                routed_to=target,
            )
            context = tracer.end_span(span).context
        self.outbox.append((target, RemoteUpdate(
            operation=operation,
            origin=RemoteOrigin(self.name, ticket_id),
            trace=context,
        )))

    def answer_question(self, key: PyTuple[str, int], choice, trace) -> None:
        """A client here answers question *key*: a local one resumes, a
        routed one's :class:`QuestionAnswer` is staged for the executing
        peer.  An answer that raced a cancellation is dropped."""
        if key not in self.inbox:
            self.answers_dropped += 1
            return
        self.inbox.discard(key)
        executing, decision_id = key
        if executing == self.name:
            self.answer(decision_id, choice)
            return
        self.answers_routed += 1
        self.outbox.append(
            (executing, QuestionAnswer(executing, decision_id, choice, self.name, trace))
        )

    def drop_questions(self, executing: str) -> None:
        """Forget the inbox keys of questions a restarted peer executed."""
        self.inbox = {key for key in self.inbox if key[0] != executing}

    def _file(self, opened: QuestionOpened) -> None:
        self.inbox.add(opened.key)
        self.events.append({"t": "question", "inbox": self.name, "q": opened})

    def _unfile(self, executing: str, decision_id: int) -> bool:
        if (executing, decision_id) not in self.inbox:
            return False
        self.inbox.discard((executing, decision_id))
        self.events.append({
            "t": "question-gone",
            "executing": executing,
            "decision": decision_id,
            "inbox": self.name,
        })
        return True

    # ------------------------------------------------------------------
    # Delivery and backpressure
    # ------------------------------------------------------------------
    def deliver(self, payload: object) -> bool:
        """Deliver one payload that arrived from another peer.

        ``False`` when the (update-bearing) payload now waits in
        :attr:`retry`: the bounded admission queue was full, or older
        deliveries wait there already and it queues behind them.
        """
        if isinstance(payload, QuestionOpened):
            self.questions_routed += 1
            self._file(payload)
        elif isinstance(payload, QuestionCancelled):
            if self._unfile(payload.executing_peer, payload.decision_id):
                self.question_cancellations += 1
        elif isinstance(payload, QuestionAnswer):
            self.answer(payload.decision_id, payload.choice, routed=True)
        elif not isinstance(payload, UPDATE_BEARING):
            raise FederationError("undeliverable payload {!r}".format(payload))
        elif self.retry or not self._submit_delivery(payload):
            self.retry.append(payload)
            self.deliveries_deferred += 1
            return False
        return True

    def retry_deferred(self) -> bool:
        """Re-submit deferred deliveries, then deferred client submissions,
        oldest first, up to the first the admission queue turns away (none
        overtakes an older one); ``True`` if any got in."""
        delivered = 0
        for payload in self.retry:
            if not self._submit_delivery(payload):
                break
            delivered += 1
        del self.retry[:delivered]
        submitted = 0
        if not self.retry:
            for ticket_id, operation in self.deferred:
                try:
                    self.submit(ticket_id, operation)
                except AdmissionError:
                    break
                submitted += 1
            del self.deferred[:submitted]
        return bool(delivered or submitted)

    def _submit_delivery(self, payload) -> bool:
        """Submit one update-bearing payload; ``False`` when admission is full."""
        if isinstance(payload, RemoteUpdate):
            operation = payload.operation
        elif isinstance(payload, ExchangeFiring):
            operation = RemoteFiringOperation(
                payload.tgd, payload.assignment(), payload.head_rows
            )
        else:
            operation = RemoteRetractionOperation(payload.tgd, payload.assignment())
        try:
            ticket = self.service.submit(
                self.gateway.session_id,
                operation,
                origin=payload.origin,
                trace=payload.trace,
            )
        except AdmissionError:
            return False
        if isinstance(payload, RemoteUpdate):
            self._notify[ticket.ticket_id] = payload.origin
        elif isinstance(payload, ExchangeFiring):
            self.firings_delivered += 1
        else:
            self.retractions_delivered += 1
        return True

    def answer(self, decision_id: int, choice, routed: bool = False) -> None:
        """Answer a parked decision; dropped if its update aborted meanwhile.

        A *routed* answer came from the originating peer, so its question's
        disappearance is success, not a cancellation.
        """
        try:
            self.service.answer(self.gateway.session_id, decision_id, choice)
        except OracleError:
            self.answers_dropped += 1
            return
        if routed:
            self._answered_remote.add(decision_id)

    @property
    def idle(self) -> bool:
        """Nothing left here: outbox flushed, nothing deferred, service quiet."""
        return (
            not self.outbox
            and not self.retry
            and not self.deferred
            and self.service.is_quiescent
        )

    # ------------------------------------------------------------------
    # Commit-time exchange
    # ------------------------------------------------------------------
    def _on_batch_commit(self, commits) -> None:
        """Scheduler batch listener: one staging round per commit batch.

        The whole batch's envelopes are produced first, coalesced together
        (duplicates across the batch's members are exactly what the
        per-commit listener could never see), and only then staged for the
        runtime's per-destination flush.
        """
        staged: List[PyTuple[str, object]] = []
        for priority, writes in commits:
            self._stage_commit(priority, writes, staged)
        for destination, payload in self._coalesce(staged):
            if isinstance(payload, ExchangeFiring):
                self.firings_emitted += 1
            else:
                self.retractions_emitted += 1
            self.outbox.append((destination, payload))

    def _coalesce(
        self, staged: List[PyTuple[str, object]]
    ) -> List[PyTuple[str, object]]:
        """Coalesce one commit batch's envelopes (dedup absorbed firings,
        cancel firing/retraction pairs)."""
        if len(staged) < 2:
            return staged
        coalesced = coalesce_envelopes(staged)
        self.envelopes_coalesced += len(staged) - len(coalesced)
        return coalesced

    def _stage_commit(
        self,
        priority: int,
        writes,
        staged: List[PyTuple[str, object]],
    ) -> None:
        """Produce one committed update's envelopes into *staged*, and report
        a routed user update's commit to the client desk."""
        ticket = self.service.ticket_for_priority(priority)
        if ticket is not None and ticket.origin is not None:
            origin = ticket.origin
        else:
            origin = RemoteOrigin(
                self.name, ticket.ticket_id if ticket is not None else 0
            )
        context = ticket.trace_context if ticket is not None else None
        if writes and any(
            logged.write.relation in self._exchange_relations for logged in writes
        ):
            view = self.service.scheduler.store.view_for(priority)
            produced = envelopes_for_commit(
                self._rules, self.name, writes, view, self._firing_factory, origin
            )
            if context is not None:
                # Outgoing envelopes continue the committing update's trace,
                # so the receiving peer's chase parents into it.
                produced = [
                    (destination, replace(payload, trace=context))
                    for destination, payload in produced
                ]
            staged.extend(produced)
        if ticket is not None and ticket.ticket_id in self._notify:
            self._report_routed(ticket.ticket_id, TicketStatus.COMMITTED)

    def pump(self) -> PumpReport:
        """One service pump.  A budget stall does not stop the peer: the
        service has already failed the tickets it stopped, and :meth:`scan`
        reports them to the desk."""
        try:
            return self.service.pump()
        except SchedulerStalled as stall:
            return stall.report

    def scan(self) -> bool:
        """After a service pump: route questions, report failures and
        finished client tickets; ``True`` if a question opened or vanished."""
        changed = self._scan_questions()
        self._scan_failures()
        for ticket_id, ticket in list(self._executing.items()):
            if ticket.is_done:
                del self._executing[ticket_id]
                self._report(ticket_id, ticket.status)
        return changed

    def _report(self, ticket_id: int, status: TicketStatus) -> None:
        self.events.append({"t": "ticket", "fid": ticket_id, "status": status.value})

    def _report_routed(self, ticket_id: int, status: TicketStatus) -> None:
        """Report a delivered routed update's terminal *status* to the desk."""
        self.notices_emitted += 1
        self._report(self._notify.pop(ticket_id).ticket_id, status)

    def _scan_failures(self) -> None:
        """Report routed updates that died without committing.

        The commit listener only ever sees commits; a routed update stopped
        by a budget stall ends ``FAILED`` through the service's stall path,
        and the client desk must still learn the terminal state or its
        federated ticket (and closed-loop client) would wait forever.
        """
        for ticket_id in list(self._notify):
            if self.service.ticket(ticket_id).status is TicketStatus.FAILED:
                self._report_routed(ticket_id, TicketStatus.FAILED)

    # ------------------------------------------------------------------
    # Question routing
    # ------------------------------------------------------------------
    def _scan_questions(self) -> bool:
        """Diff the service inbox; ``True`` if a question opened or vanished.

        A newly opened question of a *locally originated* update is filed in
        this peer's inbox (exactly as one delivered from another peer is), a
        remote-origin one is staged for its originating peer.  A vanished
        one is unfiled here, or staged as a :class:`QuestionCancelled` unless
        it disappeared because the originating peer's answer arrived.
        """
        questions = self.service.inbox()
        if not self._known_questions and not questions:
            # Nothing known, nothing open: the diff is empty (the common
            # case on every quiet federation round).
            return False
        changed = False
        open_ids: Set[int] = set()
        for question in questions:
            open_ids.add(question.decision_id)
            if question.decision_id in self._known_questions:
                continue
            changed = True
            origin = question.ticket.origin
            local = origin is None or origin.peer == self.name
            self._known_questions[question.decision_id] = None if local else origin
            opened = QuestionOpened(
                executing_peer=self.name,
                decision_id=question.decision_id,
                request=question.request,
                origin=RemoteOrigin(self.name, question.ticket.ticket_id)
                if local
                else origin,
                ticket_description=question.ticket.describe(),
                trace=question.ticket.trace_context,
            )
            if local:
                self._file(opened)
            else:
                self.outbox.append((origin.peer, opened))
        for decision_id in list(self._known_questions):
            if decision_id in open_ids:
                continue
            changed = True
            origin = self._known_questions.pop(decision_id)
            answered = decision_id in self._answered_remote
            self._answered_remote.discard(decision_id)
            if origin is None:
                self._unfile(self.name, decision_id)
            elif not answered:
                self.outbox.append(
                    (
                        origin.peer,
                        QuestionCancelled(
                            executing_peer=self.name,
                            decision_id=decision_id,
                            origin=origin,
                        ),
                    )
                )
        return changed

    # ------------------------------------------------------------------
    # Checkpoint (durability across peer restarts)
    # ------------------------------------------------------------------
    def checkpoint(self, path: str, extra: Optional[Dict] = None) -> Dict:
        """Persist this peer's service plus its exchange bookkeeping.

        On top of the service checkpoint (committed store, watermark, pending
        inbox, null-factory and decision-id state) the peer stores its
        *firing* null-factory state — the factory that materializes
        existentials inside outgoing :class:`ExchangeFiring` envelopes, whose
        numbering must also survive a restart or a reborn peer could mint a
        null already living in another peer's store — and the report
        obligations (``ticket id → origin``) of routed updates still in
        flight, so their clients still learn the terminal state after the
        restart, the deferred deliveries of :attr:`retry` and submissions of
        :attr:`deferred`, and the client desk: the federated ticket ids of
        operations executing here, and the inbox keys.  (Checkpoints of
        earlier builds also carry a ``routed`` key; restore ignores it.)
        The outbox and :attr:`events` are always empty at checkpoint time in
        a pumped federation (both runtimes flush them every round); anything
        in flight between peers survives the restart on the links themselves.

        *extra* lets the caller piggyback its own restart bookkeeping (the
        peer process stores its wire counters there); the peer's own keys
        win on collision.
        """
        body = dict(extra or {})
        body.update({
            "peer": self.name,
            "firing_factory": list(self._firing_factory.state()),
            "notify": [
                [ticket_id, {"peer": origin.peer, "ticket": origin.ticket_id}]
                for ticket_id, origin in sorted(self._notify.items())
            ],
            "retry": [
                encode_payload(payload, self._rules.by_name) for payload in self.retry
            ],
            "executing": sorted(
                [ticket_id, ticket.ticket_id]
                for ticket_id, ticket in self._executing.items()
                if not ticket.is_done
            ),
            "inbox": sorted([executing, decision] for executing, decision in self.inbox),
            "deferred": [
                [ticket_id, encode_user_operation(operation, self._rules.by_name)]
                for ticket_id, operation in self.deferred
            ],
        })
        return self.service.checkpoint(path, extra=body)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def owned_snapshot(self) -> Dict[str, frozenset]:
        """The committed contents of this peer's owned relations."""
        snapshot = self.service.snapshot()
        return {
            relation: frozenset(snapshot.tuples(relation)) for relation in self.owned
        }
