"""The federation-wide telemetry timeline: heartbeats, liveness, drains.

The coordinator side of the live telemetry plane.  Each peer process pushes
unsolicited ``telemetry`` control frames (its status document — absolute
counters, the metrics-registry snapshot, inflight frame/queue gauges — plus
a monotonic heartbeat ``seq``) at its own cadence; the coordinator feeds
every arrival — and every drain-time status reply, the same document —
into a :class:`TelemetryTimeline`.  The timeline keeps three things per peer:

* the **view**: the latest status document, heartbeat or status reply,
  whichever came last (what ``ProcessFederation.metrics()`` serves);
* a bounded **history** of samples for rate computations (committed/s in
  ``repro-top``);
* **liveness**: age of the last frame (heartbeat, status reply or went-idle
  notice) against the expected heartbeat interval.  A peer whose
  heartbeat is ``stalled_after`` intervals late is ``stalled``; at
  ``dead_after`` intervals it is ``dead`` — long before any drain timeout.
  Control-channel EOF marks a peer dead immediately and *sticky* (no
  heartbeat can revive it; only an explicit :meth:`revive`, i.e. a restart).

The timeline also records drain-latency decomposition: one record per
``drain()`` call with round count, per-round wall times, and the settle
reason, so "why was that drain slow" is answerable from data instead of
re-running under a profiler.

Everything observed can be spooled to a JSONL file (``telemetry.jsonl`` in
the federation workdir) and reloaded with :meth:`TelemetryTimeline.from_spool`
— that file is what a detached ``repro-top`` tails.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Deque, Dict, List, Optional

#: Liveness states, in order of escalation.
LIVE = "live"
STALLED = "stalled"
DEAD = "dead"
UNKNOWN = "unknown"


class PeerTelemetry:
    """Everything the timeline knows about one peer."""

    def __init__(self, name: str, history: int = 256):
        self.name = name
        #: Highest heartbeat sequence number seen (0 = none yet).
        self.seq = 0
        #: Wall-clock arrival time of the last telemetry *or* status frame.
        self.last_arrival: Optional[float] = None
        #: The latest status document (absolute counters).
        self.view: Dict[str, object] = {}
        #: Sticky death reason (EOF, explicit kill); None while breathing.
        self.dead_reason: Optional[str] = None
        #: (wall, seq, committed) samples for rate computation.
        self.history: Deque[tuple] = deque(maxlen=history)


class TelemetryTimeline:
    """Aggregates per-peer telemetry into a federation-wide time series."""

    def __init__(
        self,
        interval: float,
        stalled_after: float = 1.5,
        dead_after: float = 2.0,
        history: int = 256,
        clock=time.time,
    ):
        #: Expected heartbeat interval in seconds (0 disables age checks).
        self.interval = interval
        #: Heartbeat age thresholds, in units of *interval*.
        self.stalled_after = stalled_after
        self.dead_after = dead_after
        self.clock = clock
        self._history = history
        self.peers: Dict[str, PeerTelemetry] = {}
        #: Drain-latency decomposition records, in call order.
        self.drains: List[Dict[str, object]] = []
        #: Clock time until which every verdict of the last :meth:`liveness`
        #: report holds (0 = something touched the timeline since).
        self._settled_until = 0.0

    def register_peer(self, name: str) -> None:
        if name not in self.peers:
            self.peers[name] = PeerTelemetry(name, history=self._history)

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def observe(
        self,
        peer: str,
        body: Dict[str, object],
        kind: str = "telemetry",
        now: Optional[float] = None,
    ) -> None:
        """Feed one telemetry frame or status reply into the timeline.

        Either replaces the view and refreshes the arrival time; only a
        telemetry frame advances the heartbeat sequence (a drain round
        proves the peer alive too, but is no heartbeat).
        """
        entry = self.peers.get(peer)
        if entry is None:
            self.register_peer(peer)
            entry = self.peers[peer]
        now = self.clock() if now is None else now
        entry.last_arrival = now
        self._settled_until = 0.0
        entry.view = {
            key: value for key, value in body.items()
            if key not in ("t", "seq", "wall", "round")
        }
        if kind == "telemetry":
            seq = body.get("seq")
            if isinstance(seq, int) and seq > entry.seq:
                entry.seq = seq
            entry.history.append((now, entry.seq, body.get("committed", 0)))

    def touch(self, peer: str, now: Optional[float] = None) -> None:
        """Any frame from *peer* proves it alive: refresh its arrival time.

        For frames that carry no status document (the went-idle notice).
        """
        self.register_peer(peer)
        self.peers[peer].last_arrival = self.clock() if now is None else now
        self._settled_until = 0.0

    def mark_dead(self, peer: str, reason: str) -> None:
        """Sticky death: control-channel EOF or an explicit kill."""
        self.register_peer(peer)
        self.peers[peer].dead_reason = reason
        self._settled_until = 0.0

    def revive(self, peer: str) -> None:
        """A restarted peer starts a fresh heartbeat stream."""
        self.register_peer(peer)
        entry = self.peers[peer]
        entry.dead_reason = None
        entry.seq = 0
        entry.last_arrival = None
        entry.history.clear()
        self._settled_until = 0.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def latest(self, peer: str) -> Optional[Dict[str, object]]:
        """The latest status document of *peer* (None before any frame)."""
        entry = self.peers.get(peer)
        if entry is None or not entry.view:
            return None
        return dict(entry.view)

    def heartbeat_age(self, peer: str, now: Optional[float] = None) -> Optional[float]:
        entry = self.peers.get(peer)
        if entry is None or entry.last_arrival is None:
            return None
        now = self.clock() if now is None else now
        return max(0.0, now - entry.last_arrival)

    def state(self, peer: str, now: Optional[float] = None) -> str:
        entry = self.peers.get(peer)
        if entry is None:
            return UNKNOWN
        if entry.dead_reason is not None:
            return DEAD
        if entry.last_arrival is None:
            return UNKNOWN
        if self.interval <= 0:
            return LIVE
        age = self.heartbeat_age(peer, now)
        if age >= self.dead_after * self.interval:
            return DEAD
        if age >= self.stalled_after * self.interval:
            return STALLED
        return LIVE

    def liveness(self, now: Optional[float] = None) -> Dict[str, Dict[str, object]]:
        """Per-peer ``{state, age, seq, reason}`` — the watchdog's verdict."""
        now = self.clock() if now is None else now
        report: Dict[str, Dict[str, object]] = {}
        settled_until = float("inf")
        for name, entry in self.peers.items():
            age = self.heartbeat_age(name, now)
            report[name] = {
                "state": self.state(name, now),
                "age": age,
                "seq": entry.seq,
                "reason": entry.dead_reason,
            }
            if age is not None and entry.dead_reason is None:
                # Untouched, this peer's verdict next escalates when its age
                # crosses the first threshold still ahead of it.
                for factor in (self.stalled_after, self.dead_after):
                    if age < factor * self.interval:
                        settled_until = min(
                            settled_until, now + factor * self.interval - age
                        )
        self._settled_until = settled_until
        return report

    def liveness_due(self) -> bool:
        """Whether a verdict may differ from the last :meth:`liveness` report.

        True once a frame, a death or a revival touched the timeline, or a
        peer's stalled/dead deadline passed; callers that only need to notice
        *transitions* (the coordinator's ``poll``) skip the evaluation
        otherwise.  :meth:`liveness` itself is always exact.
        """
        return self.clock() >= self._settled_until

    def committed_rate(self, peer: str) -> Optional[float]:
        """Commits per second over the peer's sample history window."""
        entry = self.peers.get(peer)
        if entry is None or len(entry.history) < 2:
            return None
        first, last = entry.history[0], entry.history[-1]
        elapsed = last[0] - first[0]
        if elapsed <= 0:
            return None
        delta = (last[2] or 0) - (first[2] or 0)
        return delta / elapsed

    # ------------------------------------------------------------------
    # Drain decomposition
    # ------------------------------------------------------------------
    def record_drain(self, record: Dict[str, object]) -> None:
        self.drains.append(record)

    def time_to_idle_series(self) -> List[float]:
        """Seconds-to-first-idle-candidate of each settled drain.

        Only drains that settled carry the measurement
        (``time_to_idle_seconds``): the wall time from drain
        entry until every peer's observed view first looked conserved and
        idle, i.e. the workload's own settle tail with the coordinator's
        confirmation overhead excluded.
        """
        return [
            float(record["time_to_idle_seconds"])
            for record in self.drains
            if "time_to_idle_seconds" in record
        ]

    # ------------------------------------------------------------------
    # Spooling
    # ------------------------------------------------------------------
    @classmethod
    def from_spool(cls, path: str) -> "TelemetryTimeline":
        """Rebuild a timeline from a coordinator's ``telemetry.jsonl``."""
        timeline = cls(interval=0.0)
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                rec = record.get("rec")
                if rec == "meta":
                    timeline.interval = float(record.get("interval", 0.0))
                    stalled = record.get("stalled_after")
                    dead = record.get("dead_after")
                    if stalled is not None:
                        timeline.stalled_after = float(stalled)
                    if dead is not None:
                        timeline.dead_after = float(dead)
                    for name in record.get("peers", []):
                        timeline.register_peer(name)
                elif rec == "telemetry":
                    timeline.observe(
                        record["peer"],
                        record.get("body", {}),
                        kind=record.get("kind", "telemetry"),
                        now=record.get("wall"),
                    )
                elif rec == "liveness":
                    if record.get("state") == DEAD and record.get("reason"):
                        timeline.mark_dead(record["peer"], record["reason"])
                elif rec == "drain":
                    timeline.record_drain(record.get("drain", {}))
        return timeline
