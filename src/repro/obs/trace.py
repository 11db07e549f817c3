"""Causal tracing: cheap spans linking an update's whole cross-peer story.

A :class:`Tracer` records :class:`Span` objects — slotted, no dataclass
machinery — covering the update lifecycle (the root ``update`` span, queue
wait, chase steps, conflict checks, group validation, commit/abort events,
frontier parks) and federation hops (``wire`` spans per envelope).  The
:class:`SpanContext` is the portable ``(trace_id, span_id)`` pair that rides
exchange envelopes as an optional codec field, so a firing absorbed on a
remote peer parents its spans back into the originating update's trace.

Span ids are deterministic counters, not random tokens: two runs of the same
deterministic workload produce the same trace, which is what the traced ≡
untraced differential tests want.  Timestamps come from the tracer's clock
(``time.perf_counter`` by default) and are the only nondeterministic field.

The disabled path is a shared :data:`NOOP_TRACER` whose ``enabled`` flag is
``False``; every instrumentation site guards with ``if tracer.enabled:`` so
tracing off costs one attribute read per would-be span (the overhead
microbench keeps this under the 5% budget).  :func:`default_tracer` gates a
process-wide shared tracer on ``REPRO_TRACE=1`` — with the environment
variable unset every layer silently wires itself to the noop.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Union


def prebuilt_encoder(**options) -> Callable[[object], str]:
    """``json.JSONEncoder(**options).encode``, its C encoder built once.

    ``JSONEncoder.encode`` builds a fresh C encoder, a circularity
    ``markers`` dict and a float formatter on every call.  The function
    returned here builds the encoder once, without the circularity check:
    the system serialises freshly built trees, which hold no cycle.  The
    bytes are the same.
    """
    settings = json.JSONEncoder(**options)
    iterencode = json.encoder.c_make_encoder(
        None,
        settings.default,
        json.encoder.encode_basestring_ascii
        if settings.ensure_ascii
        else json.encoder.encode_basestring,
        None,
        settings.key_separator,
        settings.item_separator,
        settings.sort_keys,
        settings.skipkeys,
        settings.allow_nan,
    )
    join = "".join

    def encode(structure: object) -> str:
        return join(iterencode(structure, 0))

    return encode


#: Serialises one JSONL record, keys sorted: the dialect of every record
#: line the system writes (span exports, flight segments, the telemetry
#: spool), byte-identical to ``json.dumps(record, sort_keys=True)``.
encode_record = prebuilt_encoder(sort_keys=True)


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: what envelopes carry across peers."""

    trace_id: str
    span_id: str


class Span:
    """One recorded operation: an interval (or instant event) in a trace."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "phase",
        "peer",
        "start",
        "end",
        "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        phase: str,
        peer: str,
        start: float,
        end: Optional[float] = None,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.phase = phase
        self.peer = peer
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_record(self) -> Dict[str, object]:
        """The JSONL export form (compact keys, attrs only when present)."""
        record: Dict[str, object] = {
            "tid": self.trace_id,
            "sid": self.span_id,
            "name": self.name,
            "start": self.start,
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.phase:
            record["phase"] = self.phase
        if self.peer:
            record["peer"] = self.peer
        if self.end is not None:
            record["end"] = self.end
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "Span":
        return cls(
            trace_id=record["tid"],
            span_id=record["sid"],
            parent_id=record.get("parent"),
            name=record["name"],
            phase=record.get("phase", ""),
            peer=record.get("peer", ""),
            start=record["start"],
            end=record.get("end"),
            attrs=record.get("attrs") or {},
        )

    def describe(self) -> str:
        suffix = " @{}".format(self.peer) if self.peer else ""
        return "{} [{}]{} {:.6f}s".format(self.name, self.span_id, suffix, self.duration)


#: A parent argument: a live span, a portable context, or nothing.
ParentLike = Union[Span, SpanContext, None]


class Tracer:
    """Records spans with deterministic ids; shared by every peer of a run."""

    enabled = True

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, prefix: str = ""
    ):
        #: Id prefix, empty for in-process tracers.  When several *processes*
        #: trace one federation (the socket harness), each peer's tracer gets
        #: a distinct prefix (``"p0."``) so the per-process deterministic
        #: counters cannot mint colliding span ids across the merged export.
        self.prefix = prefix
        self.clock = clock
        self.spans: List[Span] = []
        self._next_trace = 1
        self._next_span = 1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        phase: str = "",
        parent: ParentLike = None,
        peer: str = "",
        **attrs: object,
    ) -> Span:
        """Open a span; with *parent* it joins that trace, else starts a new one."""
        if parent is not None:
            trace_id = parent.trace_id
            parent_id: Optional[str] = (
                parent.span_id if isinstance(parent, SpanContext) else parent.span_id
            )
        else:
            trace_id = "{}t{}".format(self.prefix, self._next_trace)
            self._next_trace += 1
            parent_id = None
        span = Span(
            trace_id=trace_id,
            span_id="{}s{}".format(self.prefix, self._next_span),
            parent_id=parent_id,
            name=name,
            phase=phase,
            peer=peer,
            start=self.clock(),
            attrs=dict(attrs) if attrs else {},
        )
        self._next_span += 1
        self.spans.append(span)
        return span

    def end_span(self, span: Span, **attrs: object) -> Span:
        """Close *span* now (idempotent: an already-ended span keeps its end)."""
        if span.end is None:
            span.end = self.clock()
        if attrs:
            span.attrs.update(attrs)
        return span

    def event(
        self,
        name: str,
        phase: str = "",
        parent: ParentLike = None,
        peer: str = "",
        **attrs: object,
    ) -> Span:
        """An instant span (start == end): commits, aborts, notices."""
        span = self.start_span(name, phase=phase, parent=parent, peer=peer, **attrs)
        span.end = span.start
        return span

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        phase: str = "",
        parent: ParentLike = None,
        peer: str = "",
        **attrs: object,
    ) -> Span:
        """Record an interval measured by the caller (encode/decode timings)."""
        span = self.start_span(name, phase=phase, parent=parent, peer=peer, **attrs)
        span.start = start
        span.end = end
        return span

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Write every recorded span as one JSON object per line; returns the count."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(encode_record(span.to_record()) + "\n")
        return len(self.spans)

    def clear(self) -> None:
        """Drop every recorded span (id counters keep running)."""
        self.spans = []


class NoopTracer:
    """The disabled tracer: every operation is a no-op returning ``None``.

    Instrumentation sites guard with ``if tracer.enabled:`` and never reach
    these methods on the hot path; they exist so un-guarded cold paths (CLI
    export, tests) still work against a disabled tracer.
    """

    enabled = False
    spans: List[Span] = []

    def start_span(self, name, phase="", parent=None, peer="", **attrs):
        return None

    def end_span(self, span, **attrs):
        return None

    def event(self, name, phase="", parent=None, peer="", **attrs):
        return None

    def record_span(self, name, start, end, phase="", parent=None, peer="", **attrs):
        return None

    def export_jsonl(self, path: str) -> int:
        with open(path, "w"):
            pass
        return 0

    def clear(self) -> None:
        pass


#: The shared disabled tracer every layer defaults to.
NOOP_TRACER = NoopTracer()

_shared_tracer: Optional[Tracer] = None


def default_tracer() -> Union[Tracer, NoopTracer]:
    """The process default: a shared live tracer iff ``REPRO_TRACE=1``.

    The environment variable is consulted on every call, so tests can flip it
    with ``monkeypatch``; the live tracer instance is created once and shared
    (every service, scheduler and transport built afterwards records into the
    same span list, which is exactly what cross-peer reconstruction needs).
    """
    global _shared_tracer
    if os.environ.get("REPRO_TRACE") == "1":
        if _shared_tracer is None:
            _shared_tracer = Tracer()
        return _shared_tracer
    return NOOP_TRACER


def load_spans(paths: Union[str, Iterable[str]]) -> List[Span]:
    """Load spans back from one or more JSONL exports."""
    if isinstance(paths, str):
        paths = [paths]
    spans: List[Span] = []
    for path in paths:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    spans.append(Span.from_record(json.loads(line)))
    return spans
