"""One peer's runtime: the code between a :class:`~repro.federation.peer.Peer`
and its links, written once for both federation runtimes.

A peer process's :class:`~repro.federation.proc.PeerHost` wraps one
:class:`PeerRuntime` in sockets; the in-process
:class:`~repro.federation.network.FederatedNetwork` runs one per peer over a
:class:`~repro.federation.transport.Transport`.  The runtime decodes and
delivers what arrives (:meth:`~PeerRuntime.receive`), handles the client
desk's control messages (:meth:`~PeerRuntime.control`: the one way a
coordinator reaches a peer, in both runtimes), runs the work round
(:meth:`~PeerRuntime.work`), records both halves of every ``wire`` hop, and
keeps the receive watermarks a drain compares with the senders' counts,
across checkpoints too.  Replies and the peer's events go to one sink: the
desk's receiver in process, the coordinator's socket from a peer process.

A link is a :class:`~repro.federation.transport.MemoryLink` or a socket
:class:`~repro.federation.socket_transport.OutgoingLink`:
``send(data, kind, payloads, clock)`` takes the encoded envelope, its wire
kind and payload count (the in-memory link meters them), and the sender's
tracer clock when tracing, which the in-memory link hands to the receiver,
so the receiving half-span covers the message's time on the link.  Its
``held``, ``frames_sent``, ``queued`` and ``stats()`` feed the status
document.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..codec.wire import (
    _decode_choice,
    decode_trace,
    decode_user_operation,
    encode_tuple,
    payload_kind,
)
from ..obs.flight import FlightRecorder
from ..service.admission import AdmissionError
from ..service.repository import PumpReport
from . import transport
from .exchange import FederationError
from .peer import UPDATE_BEARING, Peer
from .transport import bundle_by_destination, unbundled


class PeerRuntime:
    """One peer between its links and the client desk's event sink."""

    def __init__(
        self,
        peer: Peer,
        links: Dict[str, object],
        mappings,
        events: Callable[[Dict], None],
        flight: Optional[FlightRecorder] = None,
        host: Optional[Dict] = None,
    ):
        self.peer = peer
        self.name = peer.name
        #: Destination peer name -> its outgoing link.
        self.links = links
        #: The federation's mapping table: mappings cross the wire by name.
        self._mappings = mappings
        #: Where the peer's events and control replies go: the desk's
        #: receiver in process, control frames from a peer process.
        self._events = events
        self.tracer = peer.service.tracer
        self.flight = flight if flight is not None else FlightRecorder(None, peer.name)
        #: Monotonic activity sequence, advanced on every frame received,
        #: client request and work round that moved anything (and by the
        #: host when its links send).  Unchanged seq between two
        #: observations plus conserved link watermarks means nothing moved
        #: in between (the client desk's drain compares it).
        self.activity_seq = 0
        # *host* is a checkpoint's host extras: a reborn peer continues its
        # link watermarks, or it could never catch up with a survivor's send
        # counts (a drain compares them, in either runtime).
        host = host or {}
        for name, count in host.get("frames_sent", ()):
            links[name].frames_sent = int(count)
        #: Frames received per source peer.
        self.frames_received: Dict[str, int] = {
            source: int(count) for source, count in host.get("frames_received", ())
        }
        self.payloads_received = int(host.get("payloads_received", 0))
        #: Frozen by a checkpoint taken for a kill: no work round or flush
        #: may postdate the state the reborn peer restores.
        self.halted = False
        #: True while a drain is subscribed to went-idle notices (the
        #: ``watch`` control message); a reborn peer starts False.
        self.watched = False
        #: The activity seq the last went-idle notice reported (-1 = never).
        self._idle_pushed_at = -1

    def receive(self, source: str, data: bytes, clock: Optional[float] = None) -> None:
        """Deliver one envelope frame from *source*; *clock* is its send time
        on this process's tracer clock, when the link knows it."""
        self.activity_seq += 1
        self.frames_received[source] = self.frames_received.get(source, 0) + 1
        tracer = self.tracer
        if tracer.enabled:
            start = tracer.clock()
            payload = transport.decode_envelope(data, self._mappings)
            end = tracer.clock()
            self._wire_span(
                payload, start if clock is None else clock, end, self.name,
                len(data), decode_seconds=end - start,
            )
        else:
            payload = transport.decode_envelope(data, self._mappings)
        payloads = unbundled(payload)
        self.payloads_received += len(payloads)
        for inner in payloads:
            admitted = self.peer.deliver(inner)
            if self.flight.enabled and isinstance(inner, UPDATE_BEARING):
                self.flight.record(
                    "delivery",
                    payload=payload_kind(inner),
                    origin=inner.origin.peer,
                    deferred=not admitted,
                )
        self._publish()

    # ------------------------------------------------------------------
    # The control vocabulary
    # ------------------------------------------------------------------
    def control(self, body: Dict) -> None:
        """Handle one control message of the client desk."""
        kind = body["t"]
        if self.flight.enabled and kind in ("submit", "answer", "hold", "release"):
            self.flight.record("control", control=kind)
        if kind == "submit":
            self._submit(
                int(body["fid"]), decode_user_operation(body["op"], self._mappings)
            )
        elif kind == "answer":
            # The answer can race a cancellation, which the peer tolerates.
            # The choice is normally an index into the request the executing
            # peer still holds parked: relayed onward as-is.
            self.activity_seq += 1
            self.peer.answer_question(
                (body["executing"], int(body["decision"])),
                _decode_choice(body["choice"], self._mappings),
                decode_trace(body.get("tr")),
            )
            self._stage_outbox()
        elif kind in ("hold", "release"):
            self.links[body["peer"]].held = kind == "hold"
        elif kind == "drop-questions":
            self.peer.drop_questions(body["executing"])
        elif kind == "snapshot":
            self._events({
                "t": "snapshot-reply",
                "relations": {
                    relation: [encode_tuple(row) for row in sorted(rows, key=repr)]
                    for relation, rows in self.peer.owned_snapshot().items()
                },
            })
        elif kind == "status":
            self._events(self.status(body.get("round", 0)))
        elif kind == "watch":
            self.watched = bool(body["on"])
            if self.watched:
                # A new subscriber has seen nothing: an idle peer reports at
                # once, ahead of any status reply queued behind this message.
                self._idle_pushed_at = -1
                self.idle_push()
        else:
            raise FederationError("unknown control message {!r}".format(kind))

    def _submit(self, ticket_id: int, operation) -> None:
        """A client's operation under its federated *ticket_id*: executed
        here, or routed to its owner at once.  Admission overflow is
        backpressure, not a client error: the submission waits in
        :attr:`Peer.deferred`, behind those already waiting there, so none
        overtakes an older one."""
        self.activity_seq += 1
        deferred = self.peer.deferred
        if not deferred:
            try:
                self.peer.submit(ticket_id, operation)
            except AdmissionError:
                pass
            else:
                self._stage_outbox()
                return
        deferred.append((ticket_id, operation))

    def work(self) -> Optional[PumpReport]:
        """One work round: retry deferred deliveries, pump the service, scan
        its inbox, publish the events, stage the outbox.  Returns the pump
        report when the round moved anything, else ``None``."""
        peer = self.peer
        moved = peer.retry_deferred()
        report = peer.pump()
        if report.steps or report.admitted or report.committed:
            moved = True
        if peer.scan():
            moved = True
        self._publish()
        if peer.outbox:
            self._stage_outbox()
            moved = True
        if not moved:
            return None
        self.activity_seq += 1
        return report

    def _publish(self) -> None:
        events = self.peer.events
        for event in events:
            self._events(event)
        events.clear()

    def _stage_outbox(self) -> None:
        """Send the outbox: one message per destination, in first-staged order."""
        for destination, payload in bundle_by_destination(self.peer.outbox):
            self._send(destination, payload)
        self.peer.outbox.clear()

    def _send(self, destination: str, payload: object) -> None:
        """Encode *payload* for its link, record the sending half of its
        wire hop, and hand the bytes to the link."""
        tracer = self.tracer
        clock = None
        if tracer.enabled:
            start = tracer.clock()
            data = transport.encode_envelope(payload, self._mappings)
            clock = tracer.clock()
            self._wire_span(
                payload, start, clock, destination, len(data),
                encode_seconds=clock - start,
            )
        else:
            data = transport.encode_envelope(payload, self._mappings)
        self.links[destination].send(
            data, payload_kind(payload), len(unbundled(payload)), clock
        )

    def _wire_span(
        self, payload, start: float, end: float, destination: str, size: int,
        **codec_seconds: float,
    ) -> None:
        """Record one half of a wire hop, parented into the payload's trace:
        the codec CPU is in its attrs, the rest of it is transit."""
        context = getattr(payload, "trace", None)
        if context is not None:
            self.tracer.record_span(
                "wire",
                start,
                end,
                phase="wire",
                parent=context,
                peer=self.name,
                kind=payload_kind(payload),
                destination=destination,
                bytes=size,
                **codec_seconds,
            )

    # ------------------------------------------------------------------
    # Status and the went-idle notice
    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        """The cheap no-snapshot quiescence check: the peer is idle and no
        link has anything queued."""
        return self.peer.idle and not any(
            link.queued for link in self.links.values()
        )

    def idle_push(self) -> None:
        """Send one went-idle notice to a subscribed drain: the per-link
        watermarks and activity seq, the moment the peer settles, so the
        drain waits for it instead of pacing status rounds.  Called after
        each work pass: by ``FederatedNetwork.pump`` in process, by the peer
        host's loop in a peer process.  An unwatched peer sends none, and a
        watched one one per activity seq.
        """
        if (
            not self.watched
            or self.halted
            or self.activity_seq == self._idle_pushed_at
            or not self.is_idle()
        ):
            return
        # Recorded, not flushed: the ring reaches disk at heartbeats, under
        # ring pressure and at dumps, and the drain does not wait on a file.
        self.flight.record("idle", activity_seq=self.activity_seq)
        self._events({
            "t": "idle",
            "peer": self.name,
            "activity_seq": self.activity_seq,
            "sent": {peer: link.frames_sent for peer, link in self.links.items()},
            "received": dict(self.frames_received),
        })
        self._idle_pushed_at = self.activity_seq

    def status(self, round_number: int) -> Dict:
        """The status document: a ``status`` reply, and the body of every
        heartbeat of a peer process."""
        peer = self.peer
        links = self.links
        snapshot = peer.service.metrics_snapshot()
        return {
            "t": "status-reply",
            "round": round_number,
            "peer": self.name,
            "quiescent": self.is_idle(),
            "halted": self.halted,
            "outbox": len(peer.outbox),
            "queued": sum(link.queued for link in links.values()),
            "activity_seq": self.activity_seq,
            "retry": len(peer.retry) + len(peer.deferred),
            "held": sorted(name for name, link in links.items() if link.held),
            "sent": {name: link.frames_sent for name, link in links.items()},
            "received": dict(self.frames_received),
            # Per-link inflight gauges; in the status shape (not only the
            # heartbeat's) so metrics() has one key set whichever came last.
            "links": {name: link.stats() for name, link in links.items()},
            "payloads_received": self.payloads_received,
            "open_questions": len(peer.inbox),
            "committed": snapshot["committed"],
            # The full registry collect, not a hand-kept key list (the
            # shape is pinned by tests/federation/test_telemetry.py).
            "metrics": snapshot,
            "deliveries_deferred": peer.deliveries_deferred,
            "answers_dropped": peer.answers_dropped,
            "firings_emitted": peer.firings_emitted,
            "retractions_emitted": peer.retractions_emitted,
            "notices_emitted": peer.notices_emitted,
            "envelopes_coalesced": peer.envelopes_coalesced,
        }

    def checkpoint(self, path: str) -> None:
        """Checkpoint the peer; its host extras carry the link watermarks."""
        self.peer.checkpoint(path, extra={"host": {
            "frames_received": sorted(self.frames_received.items()),
            "payloads_received": self.payloads_received,
            "frames_sent": sorted(
                (name, link.frames_sent) for name, link in self.links.items()
            ),
        }})
