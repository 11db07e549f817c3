"""Edge cases of trace analysis: empty files, orphans, absent phases, merges."""

from __future__ import annotations

from repro.obs.analysis import PHASES, TraceAnalysis, merge_spans
from repro.obs.trace import Span, Tracer, load_spans


def _span(sid, tid="t1", parent=None, name="update", phase="", start=0.0,
          end=None, peer="", **attrs):
    return Span(
        trace_id=tid, span_id=sid, parent_id=parent, name=name, phase=phase,
        peer=peer, start=start, end=end, attrs=attrs or {},
    )


def test_empty_trace_file_loads_to_empty_analysis(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    with open(path, "w"):
        pass
    spans = load_spans(path)
    assert spans == []
    analysis = TraceAnalysis(spans)
    assert analysis.root_of("t1") is None
    assert analysis.cross_peer_chains() == []
    assert analysis.phase_breakdown() == {phase: 0.0 for phase in PHASES}
    assert analysis.summary()[0] == "spans: 0  traces: 0"


def test_orphaned_span_chain_stops_at_the_missing_parent():
    # The parent was recorded by a peer whose export is missing (e.g. it was
    # killed before flushing): the chain must stop cleanly, not raise.
    orphan = _span("s2", parent="s-missing", start=1.0, end=2.0)
    child = _span("s3", parent="s2", name="commit", start=1.5, end=2.5)
    analysis = TraceAnalysis([orphan, child])
    chain = analysis.causal_chain(child)
    assert [span.span_id for span in chain] == ["s2", "s3"]
    # No parentless span was exported, so the trace has no root.
    assert analysis.root_of("t1") is None


def test_phase_breakdown_reports_zero_for_absent_phases():
    spans = [
        _span("s1", phase="queue", start=0.0, end=0.5),
        _span("s2", phase="chase", start=0.0, end=1.0, tracker_seconds=0.25),
        _span("s3", phase="park", start=0.0, end=None),  # open: not counted
    ]
    breakdown = TraceAnalysis(spans).phase_breakdown()
    assert set(breakdown) == set(PHASES)
    assert breakdown["queue"] == 0.5
    assert breakdown["chase"] == 0.75
    assert breakdown["validate"] == 0.25
    assert breakdown["wire"] == 0.0
    assert breakdown["transit"] == 0.0
    assert breakdown["park"] == 0.0


def test_merge_prefers_closed_records_over_open_captures():
    # A flight dump captured the span open at a heartbeat; the normal export
    # has it closed.  Merged output must carry the closed version, once.
    open_capture = _span("s1", start=1.0, end=None)
    closed = _span("s1", start=1.0, end=2.0)
    merged = merge_spans([open_capture], [closed])
    assert len(merged) == 1
    assert merged[0].end == 2.0
    # Order of sources must not matter for the closed-beats-open rule.
    merged = merge_spans([closed], [open_capture])
    assert len(merged) == 1
    assert merged[0].end == 2.0


def test_merge_deduplicates_identical_records_and_keeps_order():
    tracer = Tracer(prefix="p0.")
    first = tracer.start_span("update", peer="a")
    second = tracer.start_span("chase-step", parent=first, peer="a")
    tracer.end_span(second)
    tracer.end_span(first)
    exported = [Span.from_record(span.to_record()) for span in tracer.spans]
    flight = [Span.from_record(span.to_record()) for span in tracer.spans]
    merged = merge_spans(exported, flight)
    assert [span.span_id for span in merged] == [
        span.span_id for span in tracer.spans
    ]
    # The merged set still reconstructs the causal chain.
    analysis = TraceAnalysis(merged)
    chain = analysis.causal_chain(merged[1])
    assert [span.span_id for span in chain] == [first.span_id, second.span_id]


def test_merge_distinguishes_same_span_id_across_traces():
    # (trace_id, span_id) is the identity — identical span ids in different
    # traces must both survive.
    merged = merge_spans(
        [_span("s1", tid="t1", end=1.0), _span("s1", tid="t2", end=1.0)]
    )
    assert len(merged) == 2
