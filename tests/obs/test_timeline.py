"""Telemetry timeline unit tests: latest view, watchdog, drains, spooling."""

from __future__ import annotations

import json

from repro.obs.timeline import DEAD, LIVE, STALLED, UNKNOWN, TelemetryTimeline


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def _timeline(interval=1.0):
    clock = FakeClock()
    timeline = TelemetryTimeline(
        interval=interval, stalled_after=1.5, dead_after=2.0, clock=clock
    )
    timeline.register_peer("a")
    return timeline, clock


def _hb(seq, metrics, **extra):
    body = {"t": "telemetry", "seq": seq, "wall": 0.0, "metrics": metrics,
            "committed": metrics.get("committed", 0)}
    body.update(extra)
    return body


def test_deltas_accumulate_into_absolutes():
    # Heartbeats carry absolutes: the view is the latest one as sent, minus
    # the frame's own fields, and nothing is added up across heartbeats.
    timeline, clock = _timeline()
    timeline.observe("a", _hb(1, {"committed": 3, "algo": "fifo"}))
    clock.now += 1
    timeline.observe("a", _hb(2, {"committed": 5, "algo": "fifo"}))
    view = timeline.latest("a")
    assert view == {"metrics": {"committed": 5, "algo": "fifo"}, "committed": 5}
    assert timeline.peers["a"].seq == 2


def test_status_absolutes_do_not_poison_the_delta_base():
    # A status reply between two heartbeats is the view until the next
    # heartbeat replaces it; it does not advance the heartbeat sequence.
    timeline, clock = _timeline()
    timeline.observe("a", _hb(1, {"committed": 3}))
    clock.now += 0.5
    timeline.observe(
        "a",
        {"t": "status-reply", "round": 7, "metrics": {"committed": 4},
         "committed": 4},
        kind="status",
    )
    assert timeline.latest("a") == {"metrics": {"committed": 4}, "committed": 4}
    assert timeline.peers["a"].seq == 1
    clock.now += 0.5
    timeline.observe("a", _hb(2, {"committed": 5}))
    assert timeline.latest("a")["metrics"]["committed"] == 5


def test_watchdog_escalates_with_heartbeat_age():
    timeline, clock = _timeline(interval=1.0)
    assert timeline.state("a") == UNKNOWN
    timeline.observe("a", _hb(1, {}))
    assert timeline.state("a") == LIVE
    clock.now += 1.6  # past stalled_after * interval
    assert timeline.state("a") == STALLED
    clock.now += 0.5  # past dead_after * interval
    assert timeline.state("a") == DEAD
    timeline.observe("a", _hb(2, {}))
    assert timeline.state("a") == LIVE  # a fresh heartbeat revives age-death


def test_liveness_is_due_only_when_a_verdict_can_change():
    """Between a touch and the next age deadline every verdict holds."""
    timeline, clock = _timeline(interval=1.0)
    assert timeline.liveness_due()  # nothing evaluated yet
    timeline.liveness()
    assert not timeline.liveness_due()  # nobody heard from: no deadline
    timeline.observe("a", _hb(1, {}))
    assert timeline.liveness_due()  # a frame touched the timeline
    assert timeline.liveness()["a"]["state"] == LIVE
    clock.now += 1.4
    assert not timeline.liveness_due()
    clock.now += 0.2  # the stalled deadline (1.5 intervals) passed
    assert timeline.liveness_due()
    assert timeline.liveness()["a"]["state"] == STALLED
    assert not timeline.liveness_due()
    clock.now += 0.5  # the dead deadline (2 intervals) passed
    assert timeline.liveness_due()
    assert timeline.liveness()["a"]["state"] == DEAD
    clock.now += 10_000
    assert not timeline.liveness_due()  # nothing left to escalate to
    timeline.touch("a")
    assert timeline.liveness_due()
    assert timeline.liveness()["a"]["state"] == LIVE
    timeline.mark_dead("a", "eof(exit=-9)")
    assert timeline.liveness_due()
    timeline.liveness()
    clock.now += 10_000
    assert not timeline.liveness_due()  # sticky death never escalates
    timeline.revive("a")
    assert timeline.liveness_due()


def test_mark_dead_is_sticky_until_revived():
    timeline, clock = _timeline()
    timeline.observe("a", _hb(1, {}))
    timeline.mark_dead("a", "eof(exit=-9)")
    assert timeline.state("a") == DEAD
    timeline.observe("a", _hb(2, {}))  # a late frame cannot resurrect it
    assert timeline.state("a") == DEAD
    assert timeline.liveness()["a"]["reason"] == "eof(exit=-9)"
    timeline.revive("a")
    assert timeline.state("a") == UNKNOWN  # fresh stream, nothing heard yet
    timeline.observe("a", _hb(1, {}))
    assert timeline.state("a") == LIVE


def test_interval_zero_disables_age_checks():
    timeline, clock = _timeline(interval=0.0)
    timeline.observe("a", _hb(1, {}))
    clock.now += 10_000
    assert timeline.state("a") == LIVE


def test_committed_rate_from_history():
    timeline, clock = _timeline()
    timeline.observe("a", _hb(1, {"committed": 0}, committed=0))
    clock.now += 2.0
    timeline.observe("a", _hb(2, {"committed": 10}, committed=10))
    assert timeline.committed_rate("a") == 5.0


def test_drain_records_accumulate():
    timeline, _ = _timeline()
    timeline.record_drain({"rounds": 3, "settle_reason": "watermark-idle"})
    assert timeline.drains[-1]["rounds"] == 3


def test_spool_round_trip(tmp_path):
    path = str(tmp_path / "telemetry.jsonl")
    records = [
        {"rec": "meta", "interval": 0.25, "stalled_after": 1.5,
         "dead_after": 2.0, "peers": ["a", "b"], "wall": 100.0},
        {"rec": "telemetry", "peer": "a", "kind": "telemetry", "wall": 100.1,
         "body": _hb(1, {"committed": 2})},
        {"rec": "telemetry", "peer": "a", "kind": "telemetry", "wall": 100.4,
         "body": _hb(2, {"committed": 5})},
        {"rec": "liveness", "peer": "b", "state": "dead",
         "reason": "eof(exit=-9)", "age": 1.0, "wall": 100.5},
        {"rec": "drain", "wall": 100.6,
         "drain": {"rounds": 2, "settle_reason": "watermark-idle"}},
    ]
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    timeline = TelemetryTimeline.from_spool(path)
    assert timeline.interval == 0.25
    assert set(timeline.peers) == {"a", "b"}
    assert timeline.latest("a")["metrics"]["committed"] == 5
    assert timeline.peers["a"].seq == 2
    assert timeline.state("b") == DEAD
    assert timeline.drains[-1]["rounds"] == 2
