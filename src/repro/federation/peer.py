"""One federation peer: a full repository service plus exchange bookkeeping.

A :class:`Peer` owns a subset of the federation's relations and wraps its own
:class:`~repro.service.repository.RepositoryService` — its own multiversion
store, dependency tracker, optimistic scheduler, admission queue and frontier
inbox.  The federation talks to it through one *gateway* session (envelope
deliveries are submitted there) and through two hooks:

* a scheduler commit listener that turns every committed update's write set
  into outgoing exchange envelopes (cross-peer firings and retractions, plus
  commit notices for routed user updates), staged in :attr:`Peer.outbox`;
* :meth:`Peer.scan_questions`, which diffs the service's frontier inbox after
  each pump — new questions of *remote-origin* updates are staged for routing
  to the originating peer, questions that vanished without being answered
  (their update aborted) produce cancellations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple as PyTuple

from ..core.terms import NullFactory
from ..service.inbox import InboxQuestion
from ..service.repository import RepositoryService
from ..service.tickets import RemoteOrigin, TicketStatus
from .envelopes import (
    CommitNotice,
    ExchangeFiring,
    ExchangeRetraction,
    QuestionCancelled,
    QuestionOpened,
)
from .exchange import (
    ExchangeRules,
    FederationError,
    coalesce_envelopes,
    envelopes_for_commit,
)


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
        #: Staged ``(destination, payload)`` pairs; the network flushes them
        #: into the transport at the end of each federation pump.
        self.outbox: List[PyTuple[str, object]] = []
        #: Open service decisions we know about: decision_id -> origin of the
        #: asking ticket (``None`` when the question is answerable locally).
        self._known_questions: Dict[int, Optional[RemoteOrigin]] = {}
        #: Routed decisions answered through a delivered QuestionAnswer (their
        #: disappearance from the inbox is success, not cancellation).
        self._answered_remote: Set[int] = set()
        #: Local ticket ids whose terminal state the origin peer awaits.
        self._notify: Dict[int, RemoteOrigin] = {}
        #: Exchange counters (aggregated by the network's metrics snapshot).
        self.firings_emitted = 0
        self.retractions_emitted = 0
        self.notices_emitted = 0
        #: Envelopes the per-batch coalescing dropped before the wire.
        self.envelopes_coalesced = 0
        #: Monotonic activity sequence, the in-process twin of the socket
        #: peer host's: the network advances it whenever this peer receives
        #: a delivery, makes pump progress, or flushes its outbox.  Unchanged
        #: seq between two observations plus conserved link watermarks means
        #: nothing moved in between.
        self.activity_seq = 0
        service.add_batch_commit_listener(self._on_batch_commit)

    # ------------------------------------------------------------------
    # Commit-time exchange
    # ------------------------------------------------------------------
    def expect_notice(self, ticket_id: int, origin: RemoteOrigin) -> None:
        """Mark a delivered routed update: its commit must be reported home."""
        self._notify[ticket_id] = origin

    def _on_batch_commit(self, commits) -> None:
        """Scheduler batch listener: one staging round per commit batch.

        The whole batch's envelopes are produced first, coalesced together
        (duplicates across the batch's members are exactly what the
        per-commit listener could never see), and only then staged for the
        network's per-destination bundle flush.
        """
        staged: List[PyTuple[str, object]] = []
        for priority, writes in commits:
            self._stage_commit(priority, writes, staged)
        for destination, payload in self._coalesce(staged):
            if isinstance(payload, ExchangeFiring):
                self.firings_emitted += 1
            elif isinstance(payload, ExchangeRetraction):
                self.retractions_emitted += 1
            elif isinstance(payload, CommitNotice):
                self.notices_emitted += 1
            self.outbox.append((destination, payload))

    def _coalesce(
        self, staged: List[PyTuple[str, object]]
    ) -> List[PyTuple[str, object]]:
        """Coalesce one commit batch's envelopes (dedup absorbed firings,
        cancel firing/retraction pairs, merge notices)."""
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
        """Produce one committed update's envelopes into *staged*."""
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
            notify_origin = self._notify.pop(ticket.ticket_id)
            notice = CommitNotice(origin=notify_origin, status=TicketStatus.COMMITTED)
            if context is not None:
                notice = replace(notice, trace=context)
            staged.append((notify_origin.peer, notice))

    def scan_failures(self) -> None:
        """Report routed updates that died without committing.

        The commit listener only ever sees commits; a routed update stopped
        by a budget stall ends ``FAILED`` through the service's stall path,
        and its originating peer must still learn the terminal state or its
        federated ticket (and closed-loop client) would wait forever.
        """
        for ticket_id in list(self._notify):
            ticket = self.service.ticket(ticket_id)
            if ticket.status is not TicketStatus.FAILED:
                continue
            origin = self._notify.pop(ticket_id)
            self.notices_emitted += 1
            notice = CommitNotice(origin=origin, status=TicketStatus.FAILED)
            if ticket.trace_context is not None:
                notice = replace(notice, trace=ticket.trace_context)
            self.outbox.append((origin.peer, notice))

    # ------------------------------------------------------------------
    # Question routing
    # ------------------------------------------------------------------
    def mark_answered(self, decision_id: int) -> None:
        """A routed question was answered via the transport; not a cancel."""
        self._answered_remote.add(decision_id)

    def scan_questions(self) -> PyTuple[List[InboxQuestion], List[int]]:
        """Diff the service inbox; stage routing envelopes for remote questions.

        Returns ``(opened_local, vanished_ids)``: the questions newly opened
        for *locally originated* updates (the network files them in this
        peer's federated inbox) and every previously known decision id that
        left the service inbox (the network drops stale local entries; for
        remote-origin ones a :class:`QuestionCancelled` was staged unless the
        question disappeared because we answered it).
        """
        questions = self.service.inbox()
        if not self._known_questions and not questions:
            # Nothing known, nothing open: the diff is empty (the common
            # case on every quiet federation round).
            return [], []
        opened_local: List[InboxQuestion] = []
        open_ids: Set[int] = set()
        for question in questions:
            open_ids.add(question.decision_id)
            if question.decision_id in self._known_questions:
                continue
            origin = question.ticket.origin
            if origin is None or origin.peer == self.name:
                self._known_questions[question.decision_id] = None
                opened_local.append(question)
            else:
                self._known_questions[question.decision_id] = origin
                self.outbox.append(
                    (
                        origin.peer,
                        QuestionOpened(
                            executing_peer=self.name,
                            decision_id=question.decision_id,
                            request=question.request,
                            origin=origin,
                            ticket_description=question.ticket.describe(),
                            trace=question.ticket.trace_context,
                        ),
                    )
                )
        vanished: List[int] = []
        for decision_id in list(self._known_questions):
            if decision_id in open_ids:
                continue
            origin = self._known_questions.pop(decision_id)
            vanished.append(decision_id)
            answered = decision_id in self._answered_remote
            self._answered_remote.discard(decision_id)
            if origin is not None and not answered:
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
        return opened_local, vanished

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
        null already living in another peer's store — and the commit-notice
        obligations (``ticket id → origin``) of routed updates still in
        flight, so their originators still learn the terminal state after the
        restart.  The outbox is always empty at checkpoint time in a pumped
        federation (the network flushes it every round); anything in flight
        on the transport survives the restart on the transport itself.

        *extra* lets the caller piggyback its own restart bookkeeping (the
        socket harness's peer host stores its federated-ticket table there);
        the peer's own keys win on collision.
        """
        body = dict(extra or {})
        body.update({
            "peer": self.name,
            "firing_factory": list(self._firing_factory.state()),
            "notify": [
                [ticket_id, {"peer": origin.peer, "ticket": origin.ticket_id}]
                for ticket_id, origin in sorted(self._notify.items())
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

    def describe(self) -> str:
        return "peer {} ({} relations, {} mappings)".format(
            self.name, len(self.owned), len(self._rules.local_mappings(self.name))
        )
