"""Trace analysis: causal chains, critical paths, phase and byte attribution.

Operates purely on :class:`~repro.obs.trace.Span` lists (live from a tracer
or loaded back from a JSONL export), so the same code backs the
``repro-trace`` CLI and the benchmark phase-breakdown entries.

Phase accounting conventions (must match the instrumentation sites):

* ``chase-step`` spans carry a ``tracker_seconds`` attr — the slice of the
  step spent on validation work (violation/dependency queries plus the eager
  conflict check nested in the step) — which is reattributed from the
  ``chase`` phase to ``validate``, so "validation" means tracker plus
  conflict checks plus group validation, as in the paper's accounting
  (nested ``conflict-check`` spans are phase-less to avoid double counting);
* every hop records two ``wire`` half-spans, the sender's around its encode
  and the receiver's around its decode, with the codec CPU in
  ``encode_seconds``/``decode_seconds`` attrs; in process the receiver's
  half starts at the send, so it also covers the simulated transit.  The
  ``wire`` phase sums the codec CPU and the rest of the span wall goes to a
  separate ``transit`` bucket (in a simulated transport transit is
  scheduling delay, not work).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from .trace import Span

#: The phases every breakdown reports, in display order.
PHASES = ("queue", "chase", "validate", "wire", "park", "transit")


def merge_spans(*groups: Sequence[Span]) -> List[Span]:
    """Merge span sets from several sources, deduplicating by identity.

    A span can legitimately appear more than once: a flight recorder
    captures it *open* at a heartbeat and again *closed* in the final dump,
    and a normal trace export repeats both.  Records are keyed by
    ``(trace_id, span_id)``; a closed record (``end`` set) always wins over
    an open one, and between two records of the same closedness the
    later-seen one wins.  First-seen order is preserved.
    """
    merged: Dict[Tuple[str, str], Span] = {}
    order: List[Tuple[str, str]] = []
    for group in groups:
        for span in group:
            key = (span.trace_id, span.span_id)
            existing = merged.get(key)
            if existing is None:
                merged[key] = span
                order.append(key)
            elif existing.end is None or span.end is not None:
                merged[key] = span
    return [merged[key] for key in order]


class TraceAnalysis:
    """Indexes over a span set: parent/child links, traces, attributions."""

    def __init__(self, spans: Sequence[Span]):
        self.spans: List[Span] = list(spans)
        self.by_id: Dict[str, Span] = {span.span_id: span for span in self.spans}
        self.traces: Dict[str, List[Span]] = defaultdict(list)
        self.children: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            self.traces[span.trace_id].append(span)
            if span.parent_id is not None:
                self.children[span.parent_id].append(span)

    # ------------------------------------------------------------------
    # Causal chains
    # ------------------------------------------------------------------
    def root_of(self, trace_id: str) -> Optional[Span]:
        """The unique parentless span of a trace (None if the trace is empty)."""
        for span in self.traces.get(trace_id, ()):
            if span.parent_id is None:
                return span
        return None

    def causal_chain(self, span: Span) -> List[Span]:
        """Walk parent links from *span* up to its root; returns root→span."""
        chain = [span]
        seen = {span.span_id}
        current = span
        while current.parent_id is not None:
            parent = self.by_id.get(current.parent_id)
            if parent is None or parent.span_id in seen:
                break
            chain.append(parent)
            seen.add(parent.span_id)
            current = parent
        chain.reverse()
        return chain

    def remote_continuations(self) -> List[Span]:
        """Update spans opened for remotely-absorbed work (firings etc.)."""
        return [
            span
            for span in self.spans
            if span.name == "update" and span.attrs.get("kind") == "remote"
        ]

    def cross_peer_chains(self) -> List[List[Span]]:
        """Causal chains of remote continuations that span ≥ 2 distinct peers."""
        chains = []
        for span in self.remote_continuations():
            chain = self.causal_chain(span)
            peers = {link.peer for link in chain if link.peer}
            if len(peers) >= 2:
                chains.append(chain)
        return chains

    def critical_path(self, trace_id: str) -> List[Span]:
        """Root→latest-finishing span of a trace: where its wall time went."""
        members = self.traces.get(trace_id, [])
        if not members:
            return []
        latest = max(members, key=lambda span: span.end if span.end is not None else span.start)
        return self.causal_chain(latest)

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def phase_breakdown(self) -> Dict[str, float]:
        """Seconds per phase over the whole span set (conventions above)."""
        breakdown = {phase: 0.0 for phase in PHASES}
        for span in self.spans:
            if span.end is None or not span.phase:
                continue
            duration = span.end - span.start
            if span.phase == "chase":
                tracker = float(span.attrs.get("tracker_seconds", 0.0))
                breakdown["chase"] += max(0.0, duration - tracker)
                breakdown["validate"] += tracker
            elif span.phase == "wire":
                codec = float(span.attrs.get("encode_seconds", 0.0)) + float(
                    span.attrs.get("decode_seconds", 0.0)
                )
                breakdown["wire"] += codec
                breakdown["transit"] += max(0.0, duration - codec)
            elif span.phase in breakdown:
                breakdown[span.phase] += duration
        return breakdown

    def wire_bytes_by_kind(self) -> Dict[str, int]:
        """Total wire bytes attributed per envelope payload kind.

        Both halves of a hop carry its ``bytes``; only the sending half (its
        ``destination`` is another peer) is counted, so each hop counts once.
        """
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            sending = span.attrs.get("destination") != span.peer
            if span.phase == "wire" and sending:
                kind = str(span.attrs.get("kind", "unknown"))
                totals[kind] += int(span.attrs.get("bytes", 0))
        return dict(totals)

    def commit_spans(self) -> List[Span]:
        return [span for span in self.spans if span.name == "commit"]

    # ------------------------------------------------------------------
    # Rendering (shared by repro-trace)
    # ------------------------------------------------------------------
    def format_chain(self, chain: Sequence[Span]) -> List[str]:
        lines = []
        for depth, span in enumerate(chain):
            peer = "@{}".format(span.peer) if span.peer else ""
            extras = []
            for key in ("kind", "op_type", "tgd", "bytes"):
                if key in span.attrs:
                    extras.append("{}={}".format(key, span.attrs[key]))
            detail = " ({})".format(", ".join(extras)) if extras else ""
            lines.append(
                "{}{} {}{} {:.6f}s{}".format(
                    "  " * depth, span.name, span.span_id, peer, span.duration, detail
                )
            )
        return lines

    def summary(self) -> List[str]:
        """The repro-trace report body as a list of lines."""
        lines = [
            "spans: {}  traces: {}".format(len(self.spans), len(self.traces)),
            "",
            "per-phase time breakdown:",
        ]
        breakdown = self.phase_breakdown()
        total = sum(breakdown.values()) or 1.0
        for phase in PHASES:
            seconds = breakdown[phase]
            lines.append(
                "  {:<8} {:>12.6f}s  {:>5.1f}%".format(phase, seconds, 100.0 * seconds / total)
            )
        bytes_by_kind = self.wire_bytes_by_kind()
        if bytes_by_kind:
            lines.append("")
            lines.append("wire bytes by envelope kind:")
            for kind in sorted(bytes_by_kind):
                lines.append("  {:<20} {:>10d} bytes".format(kind, bytes_by_kind[kind]))
        chains = self.cross_peer_chains()
        lines.append("")
        lines.append("cross-peer causal chains: {}".format(len(chains)))
        if chains:
            longest = max(chains, key=len)
            lines.append("longest chain:")
            lines.extend("  " + line for line in self.format_chain(longest))
        commits = self.commit_spans()
        if commits:
            last = commits[-1]
            lines.append("")
            lines.append("critical path of last commit (trace {}):".format(last.trace_id))
            lines.extend("  " + line for line in self.format_chain(self.causal_chain(last)))
        return lines
