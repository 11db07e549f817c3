"""Flight recorder unit tests: ring bounds, rotation, dumps, loading back."""

from __future__ import annotations

import json
import os

from repro.obs.flight import (
    FlightRecorder,
    flight_paths,
    load_flight_records,
    load_flight_spans,
)
from repro.obs.trace import Tracer


def _clock():
    return 1000.0


def test_disabled_recorder_is_a_cheap_noop(tmp_path):
    recorder = FlightRecorder(None, "p0")
    assert not recorder.enabled
    recorder.record("delivery", payload="remote-update")
    recorder.record_span({"tid": "t1", "sid": "s1", "name": "x", "start": 0.0})
    assert recorder.flush() == 0
    assert recorder.dump("sigterm") == []
    assert recorder.records() == []


def test_ring_is_bounded_in_memory(tmp_path):
    recorder = FlightRecorder(
        str(tmp_path), "p0", capacity=8, segment_records=1000, clock=_clock
    )
    for index in range(20):
        recorder.record("event", n=index)
    window = recorder.records()
    assert len(window) == 8
    assert [entry["n"] for entry in window] == list(range(12, 20))


def test_flush_and_rotation_bound_disk_and_keep_recent_window(tmp_path):
    recorder = FlightRecorder(
        str(tmp_path), "p0", capacity=4, segment_records=4, clock=_clock
    )
    for index in range(11):
        recorder.record("event", n=index)
    recorder.flush()
    paths = flight_paths(str(tmp_path))
    assert len(paths) == 2
    # Disk never holds more than two segments' worth of records...
    total_lines = sum(len(open(path).readlines()) for path in paths)
    assert total_lines <= 8
    # ...and the loader returns the surviving window in seq order.
    records = load_flight_records(str(tmp_path))
    numbers = [entry["n"] for entry in records if entry["kind"] == "event"]
    assert numbers == sorted(numbers)
    assert numbers[-1] == 10  # the newest record always survives rotation


def test_dump_records_first_reason_and_flushes_tail(tmp_path):
    recorder = FlightRecorder(str(tmp_path), "p0", capacity=16, clock=_clock)
    recorder.record("delivery", payload="remote-update")
    recorder.dump("sigterm")
    recorder.dump("shutdown")  # second reason must not overwrite the first
    records = load_flight_records(str(tmp_path))
    dumps = [entry for entry in records if entry["kind"] == "dump"]
    assert [entry["reason"] for entry in dumps] == ["sigterm"]
    assert recorder._dumped


def test_span_records_round_trip_through_a_dump(tmp_path):
    tracer = Tracer(prefix="p0.")
    span = tracer.start_span("update", phase="", peer="p0", kind="user")
    tracer.end_span(span)
    recorder = FlightRecorder(str(tmp_path), "p0", capacity=16, clock=_clock)
    recorder.record_span(span.to_record())
    recorder.dump("orphan-exit")
    loaded = load_flight_spans(str(tmp_path))
    assert len(loaded) == 1
    assert loaded[0].span_id == span.span_id
    assert loaded[0].trace_id == span.trace_id
    assert loaded[0].end is not None


def test_loader_groups_multiple_recorders_by_file_prefix(tmp_path):
    # Two "processes" sharing one postmortem directory: loading must not
    # interleave their independent seq counters.
    a = FlightRecorder(str(tmp_path), "a", capacity=8, clock=_clock)
    b = FlightRecorder(str(tmp_path), "b", capacity=8, clock=_clock)
    a.record("event", who="a", n=1)
    b.record("event", who="b", n=1)
    a.record("event", who="a", n=2)
    a.dump("shutdown")
    b.dump("shutdown")
    records = [
        entry for entry in load_flight_records(str(tmp_path))
        if entry["kind"] == "event"
    ]
    # Same-recorder records stay in order regardless of the other stream.
    a_ns = [entry["n"] for entry in records if entry["who"] == "a"]
    assert a_ns == [1, 2]


def test_flight_files_are_valid_jsonl(tmp_path):
    recorder = FlightRecorder(str(tmp_path), "p0", capacity=8, clock=_clock)
    recorder.record("heartbeat", seq=1)
    recorder.dump("shutdown")
    for path in flight_paths(str(tmp_path)):
        with open(path) as handle:
            for line in handle:
                if line.strip():
                    entry = json.loads(line)
                    assert entry["rec"] in ("event", "span")
                    assert "seq" in entry
