"""The live telemetry plane: heartbeats, watchdog, flight-recorder chaos.

The acceptance differential of the observability PR: kill -9 a peer process
mid-workload and the coordinator must *see* it — the watchdog flips the peer
to ``dead`` within two heartbeat intervals, the victim's flight recorder has
already flushed its recent spans to disk, and ``repro-trace --flight`` folds
those postmortem spans together with the survivors' exports into a causal
chain that crosses the dead peer.  Plus the satellite pins: the status reply
carries the *full* metrics-registry collect (so a new instrument cannot
silently drop off the status path), ``metrics()`` is heartbeat-fresh without
a drain, and every drain leaves a latency-decomposition record.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time

import pytest

from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import ProcessFederation
from repro.obs import cli as trace_cli
from repro.obs.analysis import TraceAnalysis, merge_spans
from repro.obs.flight import flight_paths, load_flight_spans
from repro.obs.timeline import DEAD, LIVE, STALLED
from repro.obs.trace import load_spans
from repro.storage.memory import FrozenDatabase

DRAIN_TIMEOUT = 120.0
#: Deadline for "within two heartbeat intervals" assertions — generous in
#: wall time (CI boxes stall), strict in heartbeat counts via the watchdog.
WAIT_TIMEOUT = 30.0


@contextlib.contextmanager
def running(federation):
    try:
        yield federation
    finally:
        federation.close()
        federation.assert_reaped()


def chain_pieces():
    schema = DatabaseSchema.from_dict(
        {"A1": ["x"], "A2": ["x", "y"], "B1": ["x"], "B2": ["x"]}
    )
    mappings = parse_tgds(
        [
            "A1(x) -> exists y . A2(x, y)",
            "A2(x, y) -> B1(x)",
            "B1(x) -> B2(x)",
        ]
    )
    initial = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    return schema, mappings, initial


def chain_federation(tmp_path, **kwargs):
    schema, mappings, initial = chain_pieces()
    kwargs.setdefault("workdir", str(tmp_path))
    kwargs.setdefault("telemetry_interval", 0.1)
    return ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
        **kwargs,
    )


def _wait_until(condition, timeout=WAIT_TIMEOUT, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.02)
    raise AssertionError("timed out waiting for {}".format(message))


# ----------------------------------------------------------------------
# Satellite: the status reply carries the full registry collect
# ----------------------------------------------------------------------
#: Every family of instruments that must ride the status path.  A missing
#: key here means something fell off the registry — the exact regression
#: the full-collect refactor exists to prevent.
PINNED_METRIC_KEYS = {
    # service counters and derived gauges
    "committed", "failed", "admitted", "submitted", "parks", "resumes",
    "restarts", "abort_rate", "throughput_per_second", "elapsed_seconds",
    "turnaround_p50_seconds", "turnaround_p95_seconds",
    "queue_wait_p50_seconds", "queue_wait_p95_seconds",
    "frontier_wait_p50_seconds", "frontier_wait_p95_seconds",
    # versioned-store gauges
    "store_log_entries", "store_versions", "store_tuples",
    "store_index_entries", "store_compactions",
    # scheduler statistics
    "scheduler_algorithm", "scheduler_steps", "scheduler_aborts",
    "scheduler_updates_executed", "scheduler_wall_seconds",
}

#: The status-shaped top-level keys metrics() must keep bit-compatible.
PINNED_STATUS_KEYS = {
    "peer", "quiescent", "halted", "outbox", "queued", "retry",
    "held", "sent", "received", "payloads_received", "open_questions",
    "committed", "metrics", "deliveries_deferred", "answers_dropped",
    "firings_emitted", "retractions_emitted", "notices_emitted",
    "envelopes_coalesced", "activity_seq",
}


def test_status_reply_carries_the_full_metrics_registry(tmp_path):
    with running(chain_federation(tmp_path)) as federation:
        ticket = federation.submit("a", InsertOperation(make_tuple("A1", "v1")))
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert ticket.is_done
        merged = federation.metrics()
        for name in ("a", "b"):
            view = merged[name]
            missing = PINNED_STATUS_KEYS - set(view)
            assert not missing, "peer {} status lost keys {}".format(
                name, sorted(missing)
            )
            lost = PINNED_METRIC_KEYS - set(view["metrics"])
            assert not lost, "peer {} registry lost keys {}".format(
                name, sorted(lost)
            )
        assert merged["a"]["metrics"]["committed"] >= 1


# ----------------------------------------------------------------------
# Satellite: metrics() is heartbeat-fresh between drains
# ----------------------------------------------------------------------
def test_metrics_are_heartbeat_fresh_without_a_drain(tmp_path):
    with running(chain_federation(tmp_path)) as federation:
        ticket = federation.submit("a", InsertOperation(make_tuple("A1", "v1")))

        def fresh():
            federation.poll(0.05)
            merged = federation.metrics()
            return (
                merged.get("a", {}).get("committed", 0) >= 1
                and merged.get("b", {}).get("committed", 0) >= 1
            )

        # Never calls drain(): only unsolicited heartbeats can deliver this.
        _wait_until(fresh, message="heartbeat-fresh commit counters")
        assert ticket.status.value == "committed"
        liveness = federation.liveness()
        assert liveness["a"]["state"] == LIVE
        assert liveness["b"]["state"] == LIVE
        assert liveness["a"]["seq"] >= 1
        federation.drain(timeout=DRAIN_TIMEOUT)


# ----------------------------------------------------------------------
# The went-idle notice: a subscription the drain holds, watermarks only
# ----------------------------------------------------------------------
@pytest.fixture
def idle_notices(monkeypatch):
    """Every ``idle`` frame any coordinator in this test dispatches."""
    notices = []
    dispatch = ProcessFederation._dispatch

    def recording(self, handle, body):
        if body["t"] == "idle":
            notices.append(dict(body))
        return dispatch(self, handle, body)

    monkeypatch.setattr(ProcessFederation, "_dispatch", recording)
    return notices


def _burst(federation, tag, count=12):
    return [
        federation.submit(
            "a", InsertOperation(make_tuple("A1", "{}{}".format(tag, index)))
        )
        for index in range(count)
    ]


def _poll_for(federation, seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        federation.poll(0.05)


def test_a_peer_that_is_not_being_drained_sends_no_idle_notice(
    tmp_path, idle_notices
):
    """Submitting and polling is not draining: nobody reads a notice then."""
    with running(chain_federation(tmp_path)) as federation:
        # A finished drain leaves nobody subscribed either.
        federation.drain(timeout=DRAIN_TIMEOUT)
        seen = len(idle_notices)
        tickets = _burst(federation, "quiet")
        _wait_until(
            lambda: (federation.poll(0.05) or True)
            and all(ticket.is_done for ticket in tickets),
            message="the burst to commit",
        )
        # Several heartbeat intervals of settled, polled, undrained peers.
        _poll_for(federation, 0.5)
        assert idle_notices[seen:] == []
        # Between drains liveness rests on the heartbeats alone.
        for name in ("a", "b"):
            assert federation.liveness()[name]["state"] == LIVE
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert len(idle_notices) > seen


def test_idle_notice_carries_watermarks_and_nothing_else(tmp_path, idle_notices):
    """It fires on every went-idle transition under a drain: keep it tiny.

    No metrics, no link stats; the coordinator uses it for the drain's
    watermark view and liveness only — neither ``metrics()`` nor the spool
    may change shape (or grow) with a burst of them.
    """
    from repro.codec.wire import dumps

    notices = idle_notices
    # Heartbeats off: whatever refreshes liveness below is the idle notice.
    with running(chain_federation(tmp_path, telemetry_interval=0.0)) as federation:
        federation.submit("a", InsertOperation(make_tuple("A1", "v0")))
        federation.drain(timeout=DRAIN_TIMEOUT)

        def shape():
            return {
                peer: (frozenset(view), frozenset(view["metrics"]))
                for peer, view in federation.metrics().items()
            }

        before = shape()
        committed_before = federation.metrics()["b"]["committed"]
        with open(federation._spool_path) as handle:
            spooled_before = sum(1 for _ in handle)
        seen = len(notices)
        # Subscribe the way drain() does, without its confirming rounds.
        federation._watch(True)
        tickets = _burst(federation, "burst")
        _wait_until(
            lambda: (federation.poll(0.05) or True)
            and all(ticket.is_done for ticket in tickets)
            and {"a", "b"} <= {notice["peer"] for notice in notices[seen:]},
            message="went-idle notices after the burst",
        )
        assert shape() == before
        # Not merged: the view still shows the last status round's numbers.
        assert federation.metrics()["b"]["committed"] == committed_before
        with open(federation._spool_path) as handle:
            assert sum(1 for _ in handle) == spooled_before
        # ... but the drain view and the watchdog did hear from the peer.
        latest = {notice["peer"]: notice for notice in notices}
        for name in ("a", "b"):
            assert (
                federation._watermarks[name]["activity_seq"]
                == latest[name]["activity_seq"]
            )
            assert federation.liveness()[name]["state"] == LIVE
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert federation.metrics()["b"]["committed"] > committed_before
    for notice in notices:
        assert set(notice) == {"t", "peer", "activity_seq", "sent", "received"}
        assert len(dumps(notice)) <= 256


@pytest.mark.parametrize("telemetry_interval", [0.1, 0.0])
def test_back_to_back_drains_under_the_subscription(tmp_path, telemetry_interval):
    """Each drain subscribes afresh; heartbeats are not what settles it."""
    with running(chain_federation(
        tmp_path, telemetry_interval=telemetry_interval
    )) as federation:
        for tag in ("first", "second"):
            tickets = _burst(federation, tag, count=4)
            federation.drain(timeout=DRAIN_TIMEOUT)
            assert all(ticket.is_done for ticket in tickets)
            assert federation.last_drain["settle_reason"] == "watermark-idle"
            # Nothing moved since: the views the drain just confirmed still
            # hold, so an immediate second drain is the one confirming round.
            assert federation.drain(timeout=DRAIN_TIMEOUT) == 1
            assert federation.last_drain["settle_reason"] == "watermark-idle"


def test_drain_right_after_restart_seeds_the_reborn_peers_view(
    tmp_path, idle_notices
):
    with running(chain_federation(tmp_path)) as federation:
        federation.submit("a", InsertOperation(make_tuple("A1", "v1")))
        federation.drain(timeout=DRAIN_TIMEOUT)
        path = str(tmp_path / "b.ckpt")
        federation.checkpoint_peer("b", path, halt=True)
        federation.kill_peer("b")
        federation.restart_peer("b", path)
        # Invalidated (the reborn process restarts its activity seq), and
        # the reborn process is unwatched: it settles without a notice.
        assert "b" not in federation._watermarks
        seen = len(idle_notices)
        tickets = _burst(federation, "reborn", count=4)
        _wait_until(
            lambda: (federation.poll(0.05) or True)
            and all(ticket.is_done for ticket in tickets),
            message="the burst to commit on the reborn peer",
        )
        assert idle_notices[seen:] == []
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert federation.last_drain["settle_reason"] == "watermark-idle"
        assert "b" in {notice["peer"] for notice in idle_notices[seen:]}
        # The reborn service counts from zero: these are the burst's firings.
        assert federation.metrics()["b"]["committed"] >= 4


def test_a_drain_that_times_out_leaves_nobody_subscribed(tmp_path, idle_notices):
    with running(chain_federation(tmp_path)) as federation:
        federation.drain(timeout=DRAIN_TIMEOUT)
        # a's firing toward b queues behind the cut: a cannot go idle.
        federation.partition("a", "b")
        ticket = federation.submit("a", InsertOperation(make_tuple("A1", "cut")))
        with pytest.raises(RuntimeError) as failure:
            federation.drain(timeout=1.0)
        assert "failed to drain" in str(failure.value)
        assert federation.last_drain["settle_reason"] == "timeout"
        seen = len(idle_notices)
        federation.heal("a", "b")
        # Both peers now settle — silently, the subscription died with the
        # drain that held it.
        _wait_until(
            lambda: (federation.poll(0.05) or True)
            and federation.metrics().get("b", {}).get("committed", 0) >= 1,
            message="the held firing to commit at b",
        )
        _poll_for(federation, 0.3)
        assert idle_notices[seen:] == []
        assert ticket.is_done
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert federation.last_drain["settle_reason"] == "watermark-idle"


def test_a_notice_the_socket_cannot_take_yet_leaves_once_it_can(tmp_path):
    """The per-seq dedupe counts notices queued on the coordinator's
    channel: one the socket cannot take yet is neither lost nor sent twice."""
    import selectors
    import socket

    from repro.codec.framing import FRAME_CONTROL, FrameDecoder, encode_frame
    from repro.codec.wire import dumps, loads
    from repro.federation.network import ClientDesk
    from repro.federation.proc import PeerHost
    from repro.federation.socket_transport import FrameChannel, SocketAddress

    schema, mappings, initial = chain_pieces()
    ownership = {"a": ("A1", "A2"), "b": ("B1", "B2")}
    addresses = {
        name: SocketAddress.unix(str(tmp_path / "{}.sock".format(name)))
        for name in ownership
    }
    desk = ClientDesk()
    desk._open_desk(schema, initial, mappings, ownership, "PRECISE", None, 1_000_000)
    host = PeerHost(desk, "a", addresses)
    ours, theirs = socket.socketpair()
    selector = selectors.DefaultSelector()
    coordinator = FrameChannel(ours, selector, label="@coordinator")
    try:
        # Fill the socket: the coordinator is not reading.
        padding = encode_frame(FRAME_CONTROL, dumps({"t": "padding"}))
        while not coordinator.pending:
            coordinator.write(padding)
        host._coordinator = coordinator
        host._idle_push()  # unwatched: nothing queued
        # Subscribing makes an idle peer report at once, behind the padding.
        host._handle_control(None, {"t": "watch", "on": True})
        assert coordinator.pending
        host._idle_push()  # one notice per activity seq
        # The coordinator reads; the queued bytes leave on EVENT_WRITE.
        theirs.setblocking(False)
        decoder = FrameDecoder()
        kinds = []
        while True:
            try:
                data = theirs.recv(1 << 16)
            except BlockingIOError:
                if not coordinator.pending:
                    break
                for key, events in selector.select(1.0):
                    assert events == selectors.EVENT_WRITE
                    key.data.ready(events)
                continue
            kinds.extend(loads(frame.payload)["t"] for frame in decoder.feed(data))
        assert kinds[-1] == "idle"
        assert kinds.count("idle") == 1
        assert set(kinds) == {"padding", "idle"}
    finally:
        coordinator.close()
        selector.close()
        theirs.close()
        host._shutdown()


# ----------------------------------------------------------------------
# The liveness watchdog
# ----------------------------------------------------------------------
def test_a_refused_write_marks_its_peer_dead(tmp_path):
    """A write into a dead peer's stream raises, and the next poll takes
    the lost path: the peer is dead and its channel gone, with no heartbeat
    age to tell the watchdog."""
    from repro.federation.socket_transport import SocketTransportError

    with running(chain_federation(tmp_path, telemetry_interval=0)) as federation:
        handle = federation._handles["b"]
        handle.process.kill()
        handle.process.wait(timeout=WAIT_TIMEOUT)
        with pytest.raises(SocketTransportError):
            federation.submit("b", InsertOperation(make_tuple("B1", "w1")))
        federation.poll()
        assert federation.liveness()["b"]["state"] == DEAD
        assert handle.channel is None


def test_watchdog_flags_a_stopped_peer_and_recovers(tmp_path):
    with running(chain_federation(tmp_path)) as federation:
        _wait_until(
            lambda: (federation.poll(0.05) or True)
            and federation.liveness()["b"]["state"] == LIVE,
            message="first heartbeat from b",
        )
        victim = federation._handles["b"].process.pid
        os.kill(victim, signal.SIGSTOP)
        try:
            # Heartbeats stop; the watchdog escalates on age alone (the
            # control channel stays open — this is not the EOF path).
            _wait_until(
                lambda: (federation.poll(0.05) or True)
                and federation.liveness()["b"]["state"] in (STALLED, DEAD),
                message="watchdog stall verdict",
            )
            _wait_until(
                lambda: (federation.poll(0.05) or True)
                and federation.liveness()["b"]["state"] == DEAD,
                message="watchdog dead verdict",
            )
            assert federation.liveness()["a"]["state"] == LIVE
        finally:
            os.kill(victim, signal.SIGCONT)
        # Age-based death is not sticky: fresh heartbeats revive the peer.
        _wait_until(
            lambda: (federation.poll(0.05) or True)
            and federation.liveness()["b"]["state"] == LIVE,
            message="recovery after SIGCONT",
        )
        federation.drain(timeout=DRAIN_TIMEOUT)


def test_poll_evaluates_the_watchdog_only_when_a_verdict_can_change(
    tmp_path, monkeypatch
):
    with running(chain_federation(tmp_path)) as federation:
        federation.drain(timeout=DRAIN_TIMEOUT)
        evaluations = []
        evaluate = federation.timeline.liveness
        monkeypatch.setattr(
            federation.timeline,
            "liveness",
            lambda now=None: evaluations.append(1) or evaluate(now),
        )
        for _ in range(1000):
            federation.poll(0)
        # One per heartbeat that landed meanwhile, not one per call.
        assert len(evaluations) <= 20
        # Called directly it is exact, every time.
        before = len(evaluations)
        assert federation.liveness()["b"]["state"] == LIVE
        assert len(evaluations) == before + 1


# ----------------------------------------------------------------------
# Satellite: drain leaves a latency decomposition
# ----------------------------------------------------------------------
def test_drain_records_its_latency_decomposition(tmp_path):
    with running(chain_federation(tmp_path)) as federation:
        federation.submit("a", InsertOperation(make_tuple("A1", "v1")))
        rounds = federation.drain(timeout=DRAIN_TIMEOUT)
        record = federation.last_drain
        assert record is not None
        # At most one seeding round plus the single confirming round; with
        # went-idle pushes seeding the views it is usually exactly one.
        assert record["rounds"] == rounds >= 1
        assert rounds <= 4  # never a paced cadence of status rounds
        assert record["settle_reason"] == "watermark-idle"
        assert record["time_to_idle_seconds"] >= 0.0
        assert len(record["round_seconds"]) == rounds
        assert record["seconds"] >= sum(record["round_seconds"]) * 0.5
        assert federation.timeline.drains[-1] is record
        assert federation.timeline.time_to_idle_series() == [
            record["time_to_idle_seconds"]
        ]
        # The spool carries it too (what repro-top's footer renders).
        with open(federation._spool_path) as handle:
            assert sum('"rec": "drain"' in line for line in handle) == 1


# ----------------------------------------------------------------------
# Satellite: drain settle state resets between calls (peer-lost sandwich)
# ----------------------------------------------------------------------
def test_drain_twice_around_a_mid_drain_freeze(tmp_path):
    """A drain that dies on a lost peer must not poison the next drain.

    SIGSTOP freezes b so the drain's status round times out (the
    coordination failure records ``peer-lost``); after SIGCONT the thawed b
    answers the *stale* round, and the second drain must settle cleanly —
    the stale reply can neither satisfy nor corrupt the fresh rounds.
    """
    with running(chain_federation(tmp_path)) as federation:
        ticket = federation.submit("a", InsertOperation(make_tuple("A1", "v1")))
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert ticket.is_done
        victim = federation._handles["b"].process.pid
        os.kill(victim, signal.SIGSTOP)
        try:
            with pytest.raises(Exception) as failure:
                federation.drain(timeout=3.0)
            assert "timed out waiting" in str(failure.value)
            assert federation.last_drain["settle_reason"] == "peer-lost"
        finally:
            os.kill(victim, signal.SIGCONT)
        assert federation.drain(timeout=DRAIN_TIMEOUT) >= 1
        assert federation.last_drain["settle_reason"] == "watermark-idle"


# ----------------------------------------------------------------------
# Heartbeats and status rounds interleave: the latest document wins
# ----------------------------------------------------------------------
def test_interleaved_heartbeats_and_status_rounds_never_double_count():
    """Seeded fuzz over the heartbeat/status-reply interleaving.

    Both carry the peer's absolute counters.  Whatever the interleaving —
    in particular an unsolicited heartbeat landing between two status
    rounds — the view must be exactly the latest document observed: nothing
    is added up across documents, so nothing can be counted twice.
    """
    import random

    from repro.obs.timeline import TelemetryTimeline

    rng = random.Random(0xD841)
    for trial in range(40):
        timeline = TelemetryTimeline(interval=0.1)
        timeline.register_peer("p")
        truth = {"committed": 0, "scheduler_steps": 0, "store_versions": 0}
        seq = 0
        wall = 1000.0
        for event in range(rng.randint(3, 25)):
            wall += rng.random()
            for key in truth:
                truth[key] += rng.randint(0, 7)
            body = {
                "peer": "p",
                "committed": truth["committed"],
                "metrics": dict(truth),
            }
            if rng.random() < 0.5:
                seq += 1
                body.update(t="telemetry", seq=seq, wall=wall)
                timeline.observe("p", body, kind="telemetry", now=wall)
            else:
                body.update(t="status-reply", round=event)
                timeline.observe("p", body, kind="status", now=wall)
            view = timeline.latest("p")
            assert view["committed"] == truth["committed"]
            for key, expected in truth.items():
                assert view["metrics"][key] == expected, (
                    "trial {} event {}: {} drifted to {} (truth {})".format(
                        trial, event, key, view["metrics"][key], expected
                    )
                )
            assert timeline.peers["p"].seq == seq


# ----------------------------------------------------------------------
# The chaos-visibility acceptance differential: kill -9 mid-workload
# ----------------------------------------------------------------------
def test_kill9_is_visible_and_flight_dump_closes_the_story(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_TRACE", "1")
    # Pinned explicitly so an ambient REPRO_FLIGHT_DIR (the CI smoke sets
    # one for the artifact upload) cannot redirect this test's dumps.
    flight_dir = str(tmp_path / "flight")
    with running(chain_federation(
        tmp_path, telemetry_interval=0.1, flight_dir=flight_dir
    )) as federation:
        assert federation._flight_dir == flight_dir
        tickets = [
            federation.submit(
                "a", InsertOperation(make_tuple("A1", "v{}".format(index)))
            )
            for index in range(4)
        ]

        # Let the cascade reach b and let b's next heartbeat flush its
        # flight ring (the sync runs before the frame is sent, so once the
        # coordinator has seen b commit, b's spans are on disk).
        def b_committed():
            federation.poll(0.05)
            return federation.metrics().get("b", {}).get("committed", 0) >= 1

        _wait_until(b_committed, message="cascade committed at b")

        victim_pid = federation._handles["b"].process.pid
        os.kill(victim_pid, signal.SIGKILL)

        # Visibility: the watchdog must report b dead — via control-channel
        # EOF, which lands well within two heartbeat intervals.
        _wait_until(
            lambda: (federation.poll(0.05) or True)
            and federation.liveness()["b"]["state"] == DEAD,
            message="watchdog death verdict after SIGKILL",
        )
        assert federation.liveness()["b"]["reason"].startswith("eof")

        # The victim's flight segments survived the kill (flushed at its
        # last heartbeat — SIGKILL leaves no dump marker, only the ring).
        victim_files = [
            path for path in flight_paths(flight_dir)
            if os.path.basename(path).startswith("flight-b-")
        ]
        assert victim_files, "no flight segments for the killed peer"
        victim_spans = load_flight_spans(victim_files)
        assert victim_spans, "flight segments carry no span records"
        assert any(span.peer == "b" for span in victim_spans)

        # Fold the survivors' exports and the postmortem spans together:
        # the causal chain of b's remotely-absorbed work must cross both
        # peers even though b never exported a trace.
        export_paths = federation.export_traces()
        merged = merge_spans(load_spans(export_paths), victim_spans)
        analysis = TraceAnalysis(merged)
        chains = analysis.cross_peer_chains()
        assert chains, "no cross-peer chain reconstructed from the wreck"
        peers_seen = set()
        for chain in chains:
            peers_seen.update(span.peer for span in chain if span.peer)
        assert {"a", "b"} <= peers_seen

        # And the CLI folds the same wreckage without error.
        assert trace_cli.main(list(export_paths) + ["--flight", flight_dir]) == 0
        assert "spans:" in capsys.readouterr().out

        # The coordinator itself stayed serviceable: a's tickets finished.
        assert all(
            ticket.is_done for ticket in tickets if ticket.target == "a"
        )
