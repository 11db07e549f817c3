"""One peer's runtime: the code between a :class:`~repro.federation.peer.Peer`
and its links, written once for both federation runtimes.

A peer process's :class:`~repro.federation.proc.PeerHost` wraps one
:class:`PeerRuntime` in sockets; the in-process
:class:`~repro.federation.network.FederatedNetwork` runs one per peer over a
:class:`~repro.federation.transport.Transport`.  The runtime decodes and
delivers what arrives (:meth:`~PeerRuntime.receive`), serves the peer's
clients (:meth:`~PeerRuntime.submit`, :meth:`~PeerRuntime.answer`), runs the
work round (:meth:`~PeerRuntime.work`), records both halves of every
``wire`` hop, and keeps the receive watermarks a drain compares with the
senders' counts, across checkpoints too.

A link is a callable ``link(data, kind, payloads, clock)``: the encoded
envelope, its wire kind and payload count (the in-memory link meters them;
a socket link needs only the bytes), and the sender's tracer clock when
tracing, which the in-memory link hands to the receiver: the receiving
half-span then covers the message's time on the link.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..codec.wire import payload_kind
from ..obs.flight import FlightRecorder
from ..service.repository import PumpReport
from . import transport
from .peer import UPDATE_BEARING, Peer
from .transport import bundle_by_destination, unbundled

#: One outgoing link: ``link(data, kind, payloads, clock)`` (see above).
Link = Callable[[bytes, str, int, Optional[float]], None]


class PeerRuntime:
    """One peer between its links and the client desk's event sink."""

    def __init__(
        self,
        peer: Peer,
        links: Dict[str, Link],
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
        #: Where the peer's events go: the desk's ``_apply`` in process,
        #: control frames from a peer process.
        self._events = events
        self.tracer = peer.service.tracer
        self.flight = flight if flight is not None else FlightRecorder(None, peer.name)
        #: Monotonic activity sequence, advanced on every frame received,
        #: client request and work round that moved anything (and by the
        #: host when its links send).  Unchanged seq between two
        #: observations plus conserved link watermarks means nothing moved
        #: in between (the socket federation's drain compares it).
        self.activity_seq = 0
        # *host* is a checkpoint's host extras: a reborn peer continues its
        # receive watermarks, or it could never catch up with a survivor's
        # send counts.
        host = host or {}
        #: Frames received per source peer.
        self.frames_received: Dict[str, int] = {
            source: int(count) for source, count in host.get("frames_received", ())
        }
        self.payloads_received = int(host.get("payloads_received", 0))

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

    def submit(self, ticket_id: int, operation) -> None:
        """A client's operation under its federated *ticket_id*: executed
        here, or routed to its owner at once.  A full admission queue raises
        :class:`~repro.service.admission.AdmissionError`."""
        self.activity_seq += 1
        self.peer.submit(ticket_id, operation)
        self._stage_outbox()

    def answer(self, key, choice, trace) -> None:
        """A client here answers question *key*; a routed one's answer goes
        to the executing peer at once."""
        self.activity_seq += 1
        self.peer.answer_question(key, choice, trace)
        self._stage_outbox()

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
        self.links[destination](
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

    def checkpoint(self, path: str, **host: object) -> None:
        """Checkpoint the peer; its host extras carry the receive watermarks
        plus what the link layer adds (*host*)."""
        host.update(
            frames_received=sorted(self.frames_received.items()),
            payloads_received=self.payloads_received,
        )
        self.peer.checkpoint(path, extra={"host": host})
