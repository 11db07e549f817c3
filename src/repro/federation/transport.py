"""The simulated inter-peer transport: FIFO links with delay, reorder, partition.

Peers of a :class:`~repro.federation.network.FederatedNetwork` never call each
other directly; every exchange envelope crosses this in-process fabric.  Each
ordered pair of peers has its own FIFO queue; a message becomes deliverable
``delay`` pumps after it was sent (per-link delays can override the default),
an optional seeded reorderer shuffles each pump's deliverable batch (letting
late messages overtake earlier ones), and a partitioned link *holds* its
messages — nothing is ever dropped — until :meth:`Transport.heal` reconnects
the pair.

The fabric carries **bytes**, not objects: every payload is encoded through
the wire codec (:mod:`repro.codec`) at :meth:`Transport.send` and decoded at
delivery, so nothing crosses a link that could not equally cross a socket —
every federation differential run therefore proves wire-serializability of
the whole exchange protocol for free.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Deque, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple as PyTuple,
)

from ..codec.wire import decode_envelope, encode_envelope, payload_kind
from ..obs.trace import Span, SpanContext, default_tracer


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
    """The flush rule of both federation runtimes: one message per
    destination, in first-staged order, made by :func:`bundled`."""
    by_destination: Dict[str, List[object]] = {}
    for destination, payload in pairs:
        by_destination.setdefault(destination, []).append(payload)
    return [
        (destination, bundled(batch)) for destination, batch in by_destination.items()
    ]


def bundled(payloads: Sequence[object]) -> object:
    """One payload as itself, several as a :class:`Bundle` carrying the
    first traced member's context: the whole flush is one wire hop in that
    update's trace (every member keeps its own context for the receiver)."""
    if len(payloads) == 1:
        return payloads[0]
    trace = None
    for payload in payloads:
        trace = getattr(payload, "trace", None)
        if trace is not None:
            break
    return Bundle(tuple(payloads), trace=trace)


def unbundled(payload: object) -> PyTuple[object, ...]:
    """The payloads one message carries, in the order they are delivered."""
    return payload.payloads if isinstance(payload, Bundle) else (payload,)


@dataclass(frozen=True)
class Envelope:
    """One message in flight between two peers.

    The queued envelope's ``payload`` is the encoded ``bytes`` and
    ``payload_kind`` names the wire kind; the envelopes
    :meth:`Transport.pump` hands back carry the *decoded* payload (receivers
    never see bytes).
    """

    seq: int
    source: str
    destination: str
    payload: object
    #: Transport tick at which the message was sent.
    sent_at: int
    #: Earliest transport tick at which the message may be delivered.
    due_at: int
    #: Wire kind of the payload.
    payload_kind: str

    def describe(self) -> str:
        return "envelope #{} {} -> {}: {}".format(
            self.seq, self.source, self.destination, self.payload_kind
        )


class Transport:
    """In-process message fabric with per-link FIFO queues.

    * ``delay`` — pumps a message waits before it is deliverable (default 0:
      the next pump delivers it).
    * ``reorder_seed`` — when set, each pump's deliverable batch is shuffled
      with a seeded RNG **and** due messages may overtake earlier not-yet-due
      ones on the same link; when unset, links are strictly FIFO.
    * :meth:`partition` / :meth:`heal` — a partitioned pair's messages are
      queued, not lost; healing releases them on the next pump.
    """

    def __init__(
        self,
        delay: int = 0,
        reorder_seed: Optional[int] = None,
        tracer=None,
    ):
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self._default_delay = delay
        self._link_delay: Dict[PyTuple[str, str], int] = {}
        self._queues: Dict[PyTuple[str, str], Deque[Envelope]] = {}
        self._partitioned: Set[FrozenSet[str]] = set()
        self._rng = random.Random(reorder_seed) if reorder_seed is not None else None
        self._seq = itertools.count(1)
        self._tick = 0
        self.tracer = tracer if tracer is not None else default_tracer()
        #: The federation's mapping table (``name -> Tgd``); the owning
        #: network sets it so mappings cross the wire by name.  ``None``
        #: (a bare transport) encodes them inline.
        self.mappings = None
        #: Counters for the metrics snapshot.
        self.sent = 0
        self.delivered = 0
        #: Per-directed-link send/receive watermarks (the in-process twin of
        #: the socket federation's frames_sent / frames_received vectors):
        #: for every link, ``sent - delivered`` equals its queue length, so
        #: the conservation check "all watermarks equal" is exactly
        #: "nothing in flight".
        self.link_sent: Dict[PyTuple[str, str], int] = {}
        self.link_delivered: Dict[PyTuple[str, str], int] = {}
        self.bundles_sent = 0
        self.payloads_sent = 0
        self.wire_bytes_sent = 0
        #: Wire bytes attributed per payload kind.
        self.wire_bytes_by_kind: Dict[str, int] = {}
        #: Codec CPU seconds, metered only while tracing is enabled.
        self.encode_seconds = 0.0
        self.decode_seconds = 0.0
        #: Envelope seq -> open ``wire`` span (ended at delivery).
        self._wire_spans: Dict[int, Span] = {}

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

    def partition(self, a: str, b: str) -> None:
        """Cut the (bidirectional) link between *a* and *b*; messages queue up."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Reconnect *a* and *b*; held messages deliver on the next pumps."""
        self._partitioned.discard(frozenset((a, b)))

    def is_partitioned(self, a: str, b: str) -> bool:
        """``True`` while the pair cannot exchange messages."""
        return frozenset((a, b)) in self._partitioned

    def partitions(self) -> List[FrozenSet[str]]:
        """The currently cut pairs."""
        return list(self._partitioned)

    # ------------------------------------------------------------------
    # Sending and pumping
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """The current transport tick (advanced by :meth:`pump`)."""
        return self._tick

    def send(self, source: str, destination: str, payload: object) -> Envelope:
        """Enqueue *payload* on the ``source -> destination`` link.

        The payload is wire-encoded *now* — the sender's live objects never
        enter the queue, so mutating them after ``send`` cannot reach the
        receiver, exactly as over a real socket.
        """
        if source == destination:
            raise ValueError("a peer does not message itself over the transport")
        kind = payload_kind(payload)
        encode_seconds = 0.0
        if self.tracer.enabled:
            before = self.tracer.clock()
            queued = encode_envelope(payload, self.mappings)
            encode_seconds = self.tracer.clock() - before
            self.encode_seconds += encode_seconds
        else:
            queued = encode_envelope(payload, self.mappings)
        self.wire_bytes_sent += len(queued)
        self.wire_bytes_by_kind[kind] = (
            self.wire_bytes_by_kind.get(kind, 0) + len(queued)
        )
        envelope = Envelope(
            seq=next(self._seq),
            source=source,
            destination=destination,
            payload=queued,
            sent_at=self._tick,
            due_at=self._tick + 1 + self.delay_of(source, destination),
            payload_kind=kind,
        )
        self._queues.setdefault((source, destination), deque()).append(envelope)
        self.sent += 1
        link = (source, destination)
        self.link_sent[link] = self.link_sent.get(link, 0) + 1
        if isinstance(payload, Bundle):
            self.bundles_sent += 1
            self.payloads_sent += len(payload)
        else:
            self.payloads_sent += 1
        if self.tracer.enabled:
            context = getattr(payload, "trace", None)
            if context is not None:
                self._wire_spans[envelope.seq] = self.tracer.start_span(
                    "wire",
                    phase="wire",
                    parent=context,
                    peer=source,
                    kind=kind,
                    destination=destination,
                    bytes=len(queued),
                    encode_seconds=encode_seconds,
                )
        return envelope

    def send_bundle(
        self, source: str, destination: str, payloads: Iterable[object]
    ) -> Optional[Envelope]:
        """Flush *payloads* to one destination as a single bundled envelope.

        An empty iterable sends nothing; otherwise the payloads travel as
        :func:`bundled` makes them.  Returns the envelope sent, if any.
        """
        batch = list(payloads)
        if not batch:
            return None
        return self.send(source, destination, bundled(batch))

    def pump(self) -> List[Envelope]:
        """Advance one tick and return the envelopes delivered this tick.

        Per link, the deliverable prefix (every due message up to the first
        not-yet-due one) is taken in FIFO order; with reordering enabled, all
        due messages are taken regardless of position and the combined batch
        is shuffled.  Partitioned links deliver nothing.
        """
        self._tick += 1
        deliverable: List[Envelope] = []
        for link, queue in self._queues.items():
            if not queue:
                continue
            if self._partitioned and frozenset(link) in self._partitioned:
                continue
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
        if self._rng is not None and len(deliverable) > 1:
            self._rng.shuffle(deliverable)
        self.delivered += len(deliverable)
        for envelope in deliverable:
            link = (envelope.source, envelope.destination)
            self.link_delivered[link] = self.link_delivered.get(link, 0) + 1
        # Decode at the delivery boundary: receivers get fresh objects
        # reconstructed from the bytes, never the sender's instances.
        if not self.tracer.enabled:
            return [
                replace(
                    envelope,
                    payload=decode_envelope(envelope.payload, self.mappings),
                )
                for envelope in deliverable
            ]
        decoded: List[Envelope] = []
        for envelope in deliverable:
            before = self.tracer.clock()
            payload = decode_envelope(envelope.payload, self.mappings)
            decode_seconds = self.tracer.clock() - before
            self.decode_seconds += decode_seconds
            span = self._wire_spans.pop(envelope.seq, None)
            if span is not None:
                self.tracer.end_span(span, decode_seconds=decode_seconds)
            decoded.append(replace(envelope, payload=payload))
        return decoded

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Messages queued anywhere (including those held by partitions)."""
        return sum(len(queue) for queue in self._queues.values())

    @property
    def held_by_partition(self) -> int:
        """Messages currently held on partitioned links (a gauge)."""
        return sum(
            len(queue)
            for link, queue in self._queues.items()
            if frozenset(link) in self._partitioned
        )

    def pending(self, source: str, destination: str) -> int:
        """Messages queued on one directed link."""
        return len(self._queues.get((source, destination), ()))

    def watermarks_conserved(self) -> bool:
        """True when every directed link's deliveries caught up with sends."""
        return all(
            self.link_delivered.get(link, 0) == sent
            for link, sent in self.link_sent.items()
        )

    def metrics(self) -> Dict[str, int]:
        """Flat counters for the federation metrics snapshot."""
        data = {
            "transport_sent": self.sent,
            "transport_delivered": self.delivered,
            "transport_in_flight": self.in_flight,
            "transport_partitioned_pairs": len(self._partitioned),
            "transport_bundles_sent": self.bundles_sent,
            "transport_payloads_sent": self.payloads_sent,
            "transport_wire_bytes_sent": self.wire_bytes_sent,
        }
        for kind in sorted(self.wire_bytes_by_kind):
            key = "transport_wire_bytes_" + kind.replace("-", "_")
            data[key] = self.wire_bytes_by_kind[kind]
        return data
