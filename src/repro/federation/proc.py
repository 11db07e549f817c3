"""The peer process: one federation peer behind a socket, in its own OS process.

This is the other half of the multi-process federation (the coordinator side
lives in :mod:`repro.federation.process_network`).  A :class:`PeerHost` is
what runs *inside* each forked process: it starts one
:class:`~repro.federation.peer.Peer` through the coordinator's client desk
(:meth:`~repro.federation.network.ClientDesk._start_peer`, the one peer
start-up of both runtimes, on the objects the child inherited), listens on
its socket address, and runs it in a
:class:`~repro.federation.host.PeerRuntime` — the receive, client and work
code the in-process :class:`~repro.federation.network.FederatedNetwork` runs
for each of its peers — so a drained socket federation is the same exchange
and the differential oracle applies.  The host is the socket shell around
it: selectors, listener and channels, hello and exit, trace export, the
checkpoint's bounded write wait, heartbeats and the flight recorder.  Every
other control message is the runtime's own vocabulary
(:meth:`~repro.federation.host.PeerRuntime.control`), the same the
in-process network's client desk sends.

Two kinds of traffic cross the host's sockets, both as
:mod:`repro.codec.framing` frames:

* **envelope frames** between peers — one frame wraps one
  ``encode_envelope`` document, and a per-destination flush travels as a
  single frame carrying one :class:`~repro.federation.transport.Bundle`
  (many payloads, one round-trip);
* **control frames** between the coordinator and each peer — submissions,
  question answers, status polls, link holds, snapshots, checkpoint/halt and
  exit — with replies and events (terminals of the tickets this peer
  executed, routed ones included; question opened — as its wire payload —
  or vanished; went-idle notices while a drain watches) pushed back on the
  same connection.

The host is single-threaded and reactive: one ``selectors`` loop reads and
writes every socket, its outgoing links included, and every wakeup hands
envelope frames to the runtime and runs its work round to a fixpoint before
handing the links their frames and sleeping again; only a checkpoint waits,
on that loop and for a bounded time, for frames to go out.  When the
coordinator's stream ends or breaks — including because the coordinating
process was killed — the host exits, which is what keeps test teardown free
of orphan processes.  A peer runs only in a child its coordinator forked
(see :mod:`repro.federation.process_network`): no coordinator can attach to
a peer it did not start.
"""

from __future__ import annotations

import selectors
import signal
import time
import traceback
from typing import Dict, List, Optional

from ..codec.framing import FRAME_CONTROL, encode_frame
from ..codec.wire import dumps, encode_payload, loads
from ..obs.flight import FlightRecorder
from ..obs.trace import NOOP_TRACER, Tracer
from .host import PeerRuntime
from .socket_transport import (
    ChannelClosed,
    FrameChannel,
    FrameListener,
    OutgoingLink,
    SocketAddress,
)

#: The reserved peer name the coordinator identifies itself with.
COORDINATOR = "@coordinator"


# ----------------------------------------------------------------------
# The host
# ----------------------------------------------------------------------
class PeerHost:
    """One peer's event loop: sockets in, chase in the middle, sockets out."""

    def __init__(
        self,
        desk,
        name: str,
        addresses: Dict[str, SocketAddress],
        restore: Optional[str] = None,
        trace_path: Optional[str] = None,
        telemetry_interval: float = 0.0,
        flight_dir: Optional[str] = None,
    ):
        """Start peer *name* through *desk* (restoring *restore*, a
        ``checkpoint_peer`` file) and listen on its entry of *addresses*.
        With *trace_path* the peer traces, and exports there at shutdown."""
        self.name = name
        #: Mappings cross the wire by name: every peer and the coordinator
        #: use the desk's one table.
        self._mappings = desk.rules.by_name
        self._trace_path = trace_path
        if trace_path:
            # One tracer per process, ids prefixed with the peer name so the
            # coordinator's merged multi-file export cannot collide.
            self.tracer = Tracer(prefix="{}.".format(name))
        else:
            # Explicitly the noop even under REPRO_TRACE=1: the inherited
            # environment must not wire peer processes to *unprefixed*
            # process-local tracers whose ids would collide when merged.
            self.tracer = NOOP_TRACER

        # -- outgoing links ---------------------------------------------
        # The selector first: a coordinator's dial succeeds the moment the
        # listener listens, and must then find every descriptor the host
        # loop holds already open.
        self._selector = selectors.DefaultSelector()
        self._links: Dict[str, OutgoingLink] = {
            peer: OutgoingLink(peer, address, self._selector)
            for peer, address in addresses.items()
            if peer != name
        }
        self._hello = encode_frame(
            FRAME_CONTROL, dumps({"t": "hello", "peer": name})
        )
        self._coordinator: Optional[FrameChannel] = None
        #: Control frames for the coordinator before its hello names it.
        self._pending_events: List[bytes] = []

        self._exit = False

        self.flight = FlightRecorder(flight_dir, name)
        self.peer, host = desk._start_peer(name, self.tracer, restore)
        self.runtime = PeerRuntime(
            self.peer,
            self._links,
            self._mappings,
            self._event,
            flight=self.flight,
            host=host,
        )

        # -- sockets -----------------------------------------------------
        # Listening only once the peer exists: a restore that fails exits
        # before the coordinator can connect.
        self._listener = FrameListener(addresses[name])
        self._selector.register(self._listener, selectors.EVENT_READ, self._listener)

        # -- telemetry + flight recorder --------------------------------
        #: Unsolicited heartbeat cadence in seconds (0 = telemetry off).
        self._telemetry_interval = float(telemetry_interval)
        self._telemetry_seq = 0
        self._next_telemetry = (
            time.monotonic() + self._telemetry_interval
            if self._telemetry_interval > 0
            else None
        )
        #: How many tracer spans the flight recorder has already captured.
        self._flight_span_index = 0

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        try:
            # SIGTERM (the coordinator's terminate escalation, or an operator)
            # must leave a postmortem: the handler raises so a select blocked
            # without a timeout unblocks (PEP 475 would otherwise retry it).
            signal.signal(signal.SIGTERM, self._on_sigterm)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
        try:
            while not self._exit:
                for key, events in self._selector.select(self._select_timeout()):
                    ready = key.data
                    if ready is self._listener:
                        self._listener.accept(self._selector)
                    elif isinstance(ready, OutgoingLink):
                        ready.ready(events)
                    else:
                        self._read_channel(ready, events)
                if not self.runtime.halted:
                    self._work()
                    self._flush()
                # Heartbeats keep beating while halted: a frozen-for-kill
                # peer is still alive, and the watchdog should know.
                self._telemetry_tick()
                self._idle_push()
        except Exception:
            self._flight_dump(
                "unhandled-exception", error=traceback.format_exc(limit=20)
            )
            raise
        finally:
            self._shutdown()

    def _on_sigterm(self, signum, frame) -> None:
        self._flight_dump("sigterm")
        self._exit = True
        raise SystemExit(0)

    def _select_timeout(self) -> Optional[float]:
        if self._exit:
            return 0.0
        due = []
        if self._next_telemetry is not None:
            due.append(self._next_telemetry)
        if not self.runtime.halted:
            for link in self._links.values():
                link_due = link.next_due()
                if link_due is not None:
                    due.append(link_due)
            if self.peer.retry or self.peer.deferred:
                # Admission frees on commits; retry shortly even without input.
                due.append(time.monotonic() + 0.01)
        if not due:
            return None  # only control traffic matters now
        return max(0.0, min(due) - time.monotonic())

    def _read_channel(self, channel: FrameChannel, events: int) -> None:
        try:
            frames = channel.ready(events)
        except ChannelClosed:
            channel.close()
            if channel is self._coordinator:
                # The coordinating process is gone; there is nobody left to
                # drive or drain this peer.  Exiting here is the orphan
                # protection the harness teardown relies on.
                self._flight_dump("orphan-exit")
                self._exit = True
            return
        for frame in frames:
            if frame.kind == FRAME_CONTROL:
                self._handle_control(channel, loads(frame.payload))
            else:
                self.runtime.receive(channel.label, frame.payload)

    # ------------------------------------------------------------------
    # Control handling
    # ------------------------------------------------------------------
    def _handle_control(self, channel: FrameChannel, body: Dict) -> None:
        """The socket-level kinds; the rest is the runtime's vocabulary."""
        kind = body["t"]
        if self.flight.enabled and kind in ("checkpoint", "exit"):
            self.flight.record("control", control=kind)
        if kind == "hello":
            channel.label = body["peer"]
            if channel.label == COORDINATOR:
                self._coordinator = channel
                channel.write(b"".join(self._pending_events))
                self._pending_events = []
        elif kind == "checkpoint":
            self._handle_checkpoint(body)
        elif kind == "trace-export":
            count = self.tracer.export_jsonl(body["path"])
            self._tell({"t": "trace-exported", "path": body["path"], "spans": count})
        elif kind == "exit":
            self._exit = True
        else:
            self.runtime.control(body)

    def _handle_checkpoint(self, body: Dict) -> None:
        # Reach a local fixpoint, push every queued frame out (redialing at
        # once), and wait on the one selector, reads left pending, until the
        # sockets took them whole: a dying process must not strand them.  A
        # destination that stops reading fails the checkpoint; none halts.
        self._work()
        self._flush(force=True)
        deadline = time.monotonic() + float(body["within"])
        writing = [link for link in self._links.values() if link.writing]
        while writing and time.monotonic() < deadline:
            for key, events in self._selector.select(deadline - time.monotonic()):
                if key.data in writing:
                    key.data.ready(events)
            writing = [link for link in writing if link.writing]
        if time.monotonic() >= deadline:
            stalled = sorted(link.destination for link in writing)
            error = "deadline passed, frames toward {} unwritten".format(stalled)
            self._tell({"t": "checkpoint-done", "path": body["path"], "error": error})
            return
        # The watermarks are exact now: every link toward this peer is held
        # and this peer is caught up (coordinator's checkpoint protocol), so
        # the counters restored from here continue the same streams.
        self.runtime.checkpoint(body["path"])
        if body.get("halt"):
            # Freeze: no more pumps or flushes — the coordinator is about to
            # kill this process, and work done after the checkpoint would
            # fork the state the reborn peer restores.
            self.runtime.halted = True
        self._tell({"t": "checkpoint-done", "path": body["path"]})

    # ------------------------------------------------------------------
    # The work fixpoint
    # ------------------------------------------------------------------
    def _work(self) -> None:
        while self.runtime.work() is not None:
            pass

    def _flush(self, force: bool = False) -> None:
        now = float("inf") if force else time.monotonic()
        if sum(link.flush(now, self._hello) for link in self._links.values()):
            self.runtime.activity_seq += 1

    # ------------------------------------------------------------------
    # Telemetry and the flight recorder
    # ------------------------------------------------------------------
    def _telemetry_tick(self) -> None:
        """Emit one heartbeat frame and sync the flight recorder when due."""
        if self._next_telemetry is None:
            return
        now = time.monotonic()
        if now < self._next_telemetry:
            return
        self._next_telemetry = now + self._telemetry_interval
        self._telemetry_seq += 1
        self.flight.record("heartbeat", seq=self._telemetry_seq)
        self._flight_sync()
        if self._coordinator is not None and not self._coordinator.closed:
            # Only a connected coordinator gets heartbeats: queueing them
            # while disconnected would flood stale frames on reconnect.
            self._tell(self._telemetry_body())

    def _telemetry_body(self) -> Dict:
        """One unsolicited heartbeat: the status document plus seq + wall."""
        body = self.runtime.status(0)
        del body["round"]
        body.update(t="telemetry", seq=self._telemetry_seq, wall=time.time())
        return body

    def _idle_push(self) -> None:
        """The runtime's went-idle notice, for a coordinator still connected."""
        if self._coordinator is not None and not self._coordinator.closed:
            self.runtime.idle_push()

    def _flight_sync(self) -> None:
        """Copy tracer spans recorded since the last sync into the flight ring."""
        if not self.flight.enabled:
            return
        spans = self.tracer.spans
        if self._flight_span_index > len(spans):
            self._flight_span_index = 0  # the tracer was cleared
        for span in spans[self._flight_span_index:]:
            self.flight.record_span(span.to_record())
        self._flight_span_index = len(spans)
        self.flight.flush()

    def _flight_dump(self, reason: str, **fields: object) -> None:
        """Postmortem: sync, re-capture the span tail, and dump to disk."""
        if not self.flight.enabled:
            return
        self._flight_sync()
        # Re-emit the recent span tail: spans captured *open* at an earlier
        # heartbeat have closed since, and the dump must carry their final
        # records (merge_spans dedups, preferring the closed record).
        spans = self.tracer.spans
        for span in spans[-64:]:
            self.flight.record_span(span.to_record())
        self.flight.dump(reason, **fields)

    # ------------------------------------------------------------------
    # Events and replies
    # ------------------------------------------------------------------
    def _event(self, event: Dict) -> None:
        """The runtime's sink: one control frame for the coordinator's client
        desk (queued while it is not connected)."""
        if event["t"] == "question":
            opened = event["q"]
            self.flight.record(
                "question",
                executing=opened.executing_peer,
                decision=opened.decision_id,
            )
            event = dict(event, q=encode_payload(opened, self._mappings))
        elif event["t"] == "ticket":
            self.flight.record("ticket", fid=event["fid"], status=event["status"])
        self._tell(event)

    def _tell(self, body: Dict) -> None:
        """Write one control frame to the coordinator (held back until its
        hello names it); a broken stream is the read path's news."""
        frame = encode_frame(FRAME_CONTROL, dumps(body))
        if self._coordinator is None:
            self._pending_events.append(frame)
        else:
            self._coordinator.write(frame)

    def _shutdown(self) -> None:
        # A graceful shutdown still closes the flight record (first-reason
        # wins: a sigterm/orphan-exit/exception dump keeps its reason).
        self._flight_dump("shutdown")
        if self._trace_path and self.tracer.enabled:
            try:
                self.tracer.export_jsonl(self._trace_path)
            except OSError:  # pragma: no cover - export is best effort
                pass
        # Every channel, outgoing links' included, is on the selector.
        for key in list(self._selector.get_map().values()):
            ready = key.data
            if ready is not self._listener:
                ready.close()
        self._selector.close()
        self._listener.close()
