"""The in-memory link layer: FIFO links with delay and reorder.

Peers of a :class:`~repro.federation.network.FederatedNetwork` never call each
other directly; every exchange envelope crosses this in-process fabric.  Each
ordered pair of peers has its own :class:`MemoryLink`, the sender's FIFO; a
message becomes deliverable ``delay`` pumps after it was sent (per-link
delays can override the default), and an optional seeded reorderer shuffles
each pump's deliverable batch (letting late messages overtake earlier ones).

A :class:`MemoryLink` has the interface of a peer process's socket link
(:class:`~repro.federation.socket_transport.OutgoingLink`): ``send``,
``held``, ``frames_sent``, ``queued`` and ``stats()``.  A held link keeps
its messages, nothing is ever dropped, so a partition is two directed holds
at the senders, placed by the ``hold`` control message in both runtimes.

It is the one place delay and reorder are simulated: the socket federation's
links are plain FIFOs, so the differential tests that shuffle message order
run here.  The fabric carries **bytes** and nothing else: the sending peer's
:class:`~repro.federation.host.PeerRuntime` encodes each message and the
receiving one decodes it, with the code a peer process runs on its sockets,
so nothing crosses a link that could not equally cross a socket.  The module
also holds what both link layers share above the bytes: :class:`Bundle` and
the per-destination flush rule.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple as PyTuple

# The envelope codec the peer runtime calls, looked up on this module at
# call time: the benchmark's per-layer timing shims these two names here
# (bench/trace.py).
from ..codec.wire import decode_envelope, encode_envelope  # noqa: F401
from ..obs.trace import SpanContext


@dataclass(frozen=True)
class Bundle:
    """Several payloads travelling as one envelope (a per-destination flush).

    The transport treats the bundle as a single message — one queue slot, one
    delivery, one delay — which is exactly the point: a commit batch's worth
    of exchange envelopes to the same destination pays the per-message fixed
    costs once.  Receivers unpack and process the payloads in order, so a
    bundle is semantically identical to sending its payloads back-to-back on
    a FIFO link (and *stronger* under reordering: the bundle cannot be
    interleaved).
    """

    payloads: PyTuple[object, ...]
    #: Trace context of the first traced member (``None`` when tracing is
    #: off); ``compare=False`` keeps bundle equality content-only.
    trace: Optional[SpanContext] = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.payloads)


def bundle_by_destination(
    pairs: Iterable[PyTuple[str, object]],
) -> List[PyTuple[str, object]]:
    """The flush rule: one message per destination, in first-staged order.

    One payload travels as itself, several as a :class:`Bundle` carrying the
    first traced member's context: the whole flush is one wire hop in that
    update's trace (every member keeps its own context for the receiver).
    """
    by_destination: Dict[str, List[object]] = {}
    for destination, payload in pairs:
        by_destination.setdefault(destination, []).append(payload)
    messages: List[PyTuple[str, object]] = []
    for destination, batch in by_destination.items():
        if len(batch) == 1:
            messages.append((destination, batch[0]))
            continue
        traces = (getattr(payload, "trace", None) for payload in batch)
        trace = next((context for context in traces if context is not None), None)
        messages.append((destination, Bundle(tuple(batch), trace=trace)))
    return messages


def unbundled(payload: object) -> PyTuple[object, ...]:
    """The payloads one message carries, in the order they are delivered."""
    return payload.payloads if isinstance(payload, Bundle) else (payload,)


@dataclass(frozen=True)
class Envelope:
    """One message in flight between two peers: the encoded ``payload``
    bytes and what the sender said about them."""

    source: str
    destination: str
    payload: bytes
    #: Earliest transport tick at which the message may be delivered.
    due_at: int
    #: Wire kind of the payload.
    payload_kind: str
    #: The sender's tracer clock at the send (``None`` untraced): the
    #: receiver's half of the ``wire`` span starts there, so it covers the
    #: time the message spent on this link.
    clock: Optional[float] = None


class MemoryLink:
    """One directed in-memory link: the sender's FIFO of envelopes.

    ``held`` parks the whole link (a partition holds, never drops);
    ``frames_sent`` counts the envelopes the transport released from it.
    """

    def __init__(self, transport: "Transport", source: str, destination: str):
        self._transport = transport
        self.source = source
        self.destination = destination
        self.held = False
        self.queue: Deque[Envelope] = deque()
        self.frames_sent = 0

    def send(self, data: bytes, kind: str, payloads: int, clock) -> Envelope:
        """The peer runtime's link call (see :meth:`Transport.send`)."""
        return self._transport.send(
            self.source, self.destination, data, kind, payloads, clock
        )

    @property
    def queued(self) -> int:
        """Envelopes not yet released to the destination."""
        return len(self.queue)

    def stats(self) -> Dict[str, object]:
        return {
            "queued": len(self.queue),
            "held": self.held,
            "frames_sent": self.frames_sent,
        }


class Transport:
    """In-process message fabric: one :class:`MemoryLink` per directed pair.

    * ``delay`` — pumps a message waits before it is deliverable (default 0:
      the next pump delivers it).
    * ``reorder_seed`` — when set, each pump's deliverable batch is shuffled
      with a seeded RNG **and** due messages may overtake earlier not-yet-due
      ones on the same link; when unset, links are strictly FIFO.
    * A held link (:attr:`MemoryLink.held`) delivers nothing; its messages
      go on the first pump after it is released.
    """

    def __init__(self, delay: int = 0, reorder_seed: Optional[int] = None):
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self._default_delay = delay
        self._link_delay: Dict[PyTuple[str, str], int] = {}
        self._links: Dict[PyTuple[str, str], MemoryLink] = {}
        #: The queues of the links that ever sent, in first-send order: the
        #: order a pump collects them in.
        self._queues: Dict[PyTuple[str, str], Deque[Envelope]] = {}
        self._rng = random.Random(reorder_seed) if reorder_seed is not None else None
        self._tick = 0
        #: Counters for the metrics snapshot.
        self.sent = 0
        self.delivered = 0
        self.bundles_sent = 0
        self.payloads_sent = 0
        self.wire_bytes_sent = 0
        #: Wire bytes attributed per payload kind.
        self.wire_bytes_by_kind: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_delay(self, source: str, destination: str, delay: int) -> None:
        """Override the delivery delay of one directed link."""
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self._link_delay[(source, destination)] = delay

    def delay_of(self, source: str, destination: str) -> int:
        """The delivery delay currently configured for a directed link."""
        return self._link_delay.get((source, destination), self._default_delay)

    def link(self, source: str, destination: str) -> MemoryLink:
        """The directed link ``source -> destination``."""
        link = self._links.get((source, destination))
        if link is None:
            if source == destination:
                raise ValueError("a peer does not message itself over the transport")
            link = self._links[(source, destination)] = MemoryLink(
                self, source, destination
            )
        return link

    # ------------------------------------------------------------------
    # Sending and pumping
    # ------------------------------------------------------------------
    def send(
        self,
        source: str,
        destination: str,
        data: bytes,
        kind: str = "raw",
        payloads: int = 1,
        clock: Optional[float] = None,
    ) -> Envelope:
        """Enqueue the encoded message *data* on the ``source -> destination``
        link; *kind* and *payloads* (its wire kind and payload count) feed
        the metrics, *clock* rides along to the receiver."""
        envelope = Envelope(
            source=source,
            destination=destination,
            payload=data,
            due_at=self._tick + 1 + self.delay_of(source, destination),
            payload_kind=kind,
            clock=clock,
        )
        link = self.link(source, destination)
        self._queues.setdefault((source, destination), link.queue).append(envelope)
        self.sent += 1
        if kind == "bundle":
            self.bundles_sent += 1
        self.payloads_sent += payloads
        self.wire_bytes_sent += len(data)
        self.wire_bytes_by_kind[kind] = self.wire_bytes_by_kind.get(kind, 0) + len(data)
        return envelope

    def pump(self) -> List[Envelope]:
        """Advance one tick and return the envelopes delivered this tick.

        Per link, the deliverable prefix (every due message up to the first
        not-yet-due one) is taken in FIFO order; with reordering enabled, all
        due messages are taken regardless of position and the combined batch
        is shuffled.  Held links deliver nothing.
        """
        self._tick += 1
        deliverable: List[Envelope] = []
        for pair, queue in self._queues.items():
            if not queue:
                continue
            link = self._links[pair]
            if link.held:
                continue
            taken = len(deliverable)
            if self._rng is not None:
                kept: Deque[Envelope] = deque()
                while queue:
                    envelope = queue.popleft()
                    if envelope.due_at <= self._tick:
                        deliverable.append(envelope)
                    else:
                        kept.append(envelope)
                queue.extend(kept)
            else:
                while queue and queue[0].due_at <= self._tick:
                    deliverable.append(queue.popleft())
            link.frames_sent += len(deliverable) - taken
        if self._rng is not None and len(deliverable) > 1:
            self._rng.shuffle(deliverable)
        self.delivered += len(deliverable)
        return deliverable

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Messages queued anywhere (including those on held links)."""
        return sum(len(queue) for queue in self._queues.values())

    def held(self) -> List[PyTuple[str, str]]:
        """The held directed links, as ``(source, destination)`` pairs."""
        return [pair for pair, link in self._links.items() if link.held]

    def pending(self, source: str, destination: str) -> int:
        """Messages queued on one directed link."""
        return self.link(source, destination).queued

    def metrics(self) -> Dict[str, int]:
        """Flat counters for the federation metrics snapshot."""
        data = {
            "transport_sent": self.sent,
            "transport_delivered": self.delivered,
            "transport_in_flight": self.in_flight,
            "transport_partitioned_pairs": len(
                {frozenset(pair) for pair in self.held()}
            ),
            "transport_bundles_sent": self.bundles_sent,
            "transport_payloads_sent": self.payloads_sent,
            "transport_wire_bytes_sent": self.wire_bytes_sent,
        }
        for kind in sorted(self.wire_bytes_by_kind):
            key = "transport_wire_bytes_" + kind.replace("-", "_")
            data[key] = self.wire_bytes_by_kind[kind]
        return data
