"""The peer process: one federation peer behind a socket, in its own OS process.

This is the other half of the multi-process federation (the coordinator side
lives in :mod:`repro.federation.process_network`).  A :class:`PeerHost` is
what runs *inside* each spawned process: it builds (or restores) one
:class:`~repro.federation.peer.Peer` from a codec-JSON config file, listens
on its socket address, and runs it in a
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
of orphan processes.

:func:`main` is the one way into a peer.  :class:`ProcessFederation` forks
the coordinator and calls it in the child (POSIX only): the child inherits
the coordinator's imported modules, environment and hash seed, but no
descriptor above 2 — the fork closes them all and points stdout/stderr at
``peer-<name>.log`` before :func:`main` reads its config — so a peer holds
only the sockets and files it opens itself, and dropping the coordinator's
connection still reaches it as EOF.  :func:`main` also is the ``repro-peer``
console entry point, for a peer started on its own (another machine, another
interpreter)::

    repro-peer --config /path/to/peer-config.json
"""

from __future__ import annotations

import argparse
import os
import selectors
import signal
import time
import traceback
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from ..codec.framing import FRAME_CONTROL, encode_frame
from ..codec.wire import (
    WIRE_VERSION,
    CodecError,
    decode_schema,
    decode_tgd,
    decode_tuple,
    dumps,
    encode_payload,
    encode_schema,
    encode_tgd,
    encode_tuple,
    loads,
)
from ..obs.flight import FlightRecorder
from ..obs.trace import NOOP_TRACER, Tracer
from ..service.admission import AdmissionConfig
from ..storage.memory import FrozenDatabase
from .exchange import ExchangeRules
from .host import PeerRuntime
from .peer import Peer
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
# Peer config files (written by the coordinator, read by the peer process)
# ----------------------------------------------------------------------
def encode_peer_config(
    name: str,
    schema,
    initial,
    mappings,
    ownership: Dict[str, Tuple[str, ...]],
    addresses: Dict[str, SocketAddress],
    tracker: str = "PRECISE",
    admission: Optional[AdmissionConfig] = None,
    max_total_steps: int = 1_000_000,
    trace: bool = False,
    trace_path: Optional[str] = None,
    restore: Optional[str] = None,
    telemetry_interval: float = 0.0,
    flight_dir: Optional[str] = None,
    flight_capacity: int = 512,
) -> bytes:
    """One peer's complete startup description, as canonical codec JSON.

    *initial* is the **union** initial database: the peer filters its own
    store down to owned relations but needs the whole thing for null-factory
    avoidance (see :meth:`Peer.build`).
    """
    body = {
        "v": WIRE_VERSION,
        "t": "peer-config",
        "name": name,
        "schema": encode_schema(schema),
        "mappings": [encode_tgd(tgd) for tgd in mappings],
        "ownership": [
            [peer, list(relations)] for peer, relations in ownership.items()
        ],
        "initial": {
            relation: [encode_tuple(row) for row in sorted(
                initial.tuples(relation), key=repr
            )]
            for relation in schema.relation_names()
        },
        "addresses": {
            peer: address.to_body() for peer, address in addresses.items()
        },
        "tracker": tracker,
        "admission": None if admission is None else asdict(admission),
        "max_total_steps": max_total_steps,
        "trace": trace,
        "trace_path": trace_path,
        "restore": restore,
        "telemetry_interval": telemetry_interval,
        "flight_dir": flight_dir,
        "flight_capacity": flight_capacity,
    }
    return dumps(body) + b"\n"


# ----------------------------------------------------------------------
# The host
# ----------------------------------------------------------------------
class PeerHost:
    """One peer's event loop: sockets in, chase in the middle, sockets out."""

    def __init__(self, config: Dict):
        if config.get("v") != WIRE_VERSION:
            raise CodecError(
                "unsupported peer-config version {!r} (this build speaks {})".format(
                    config.get("v"), WIRE_VERSION
                )
            )
        if config.get("t") != "peer-config":
            raise CodecError("not a peer config")
        self.name = config["name"]
        self.schema = decode_schema(config["schema"])
        self.rules = ExchangeRules.for_federation(
            self.schema,
            [decode_tgd(body) for body in config["mappings"]],
            {peer: relations for peer, relations in config["ownership"]},
        )
        #: Mappings cross the wire by name: every peer and the coordinator
        #: build this same table from the same configured mapping list.
        self._mappings = self.rules.by_name
        self._addresses = {
            peer: SocketAddress.from_body(body)
            for peer, body in config["addresses"].items()
        }
        self._trace_path = config.get("trace_path")
        if config.get("trace"):
            # One tracer per process, ids prefixed with the peer name so the
            # coordinator's merged multi-file export cannot collide.
            self.tracer = Tracer(prefix="{}.".format(self.name))
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
            for peer, address in self._addresses.items()
            if peer != self.name
        }
        self._hello = encode_frame(
            FRAME_CONTROL, dumps({"t": "hello", "peer": self.name})
        )
        self._coordinator: Optional[FrameChannel] = None
        #: Control frames for the coordinator before its hello names it.
        self._pending_events: List[bytes] = []

        self._exit = False

        initial = FrozenDatabase(self.schema, {
            relation: frozenset(decode_tuple(body) for body in rows)
            for relation, rows in config["initial"].items()
        })
        service_arguments = {
            "tracker": config["tracker"],
            "admission": None
            if config["admission"] is None
            else AdmissionConfig(**config["admission"]),
            "max_total_steps": config["max_total_steps"],
            "tracer": self.tracer,
        }
        flight_dir = config.get("flight_dir") or os.environ.get(
            "REPRO_FLIGHT_DIR"
        )
        self.flight = FlightRecorder(
            flight_dir,
            self.name,
            capacity=int(config.get("flight_capacity") or 512),
        )
        host = None
        if config.get("restore") is None:
            peer = Peer.build(
                self.name, self.schema, initial, self.rules, **service_arguments
            )
        else:
            peer, restored = Peer.restore(
                self.name, config["restore"], self.rules, **service_arguments
            )
            host = restored.extra.get("host")
        self.runtime = PeerRuntime(
            peer,
            self._links,
            self._mappings,
            self._event,
            flight=self.flight,
            host=host,
        )
        self.peer = peer

        # -- sockets -----------------------------------------------------
        # Listening only once the peer exists: a restore that fails exits
        # before the coordinator can connect.
        self._listener = FrameListener(self._addresses[self.name])
        self._selector.register(self._listener, selectors.EVENT_READ, self._listener)

        # -- telemetry + flight recorder --------------------------------
        #: Unsolicited heartbeat cadence in seconds (0 = telemetry off).
        self._telemetry_interval = float(config.get("telemetry_interval") or 0.0)
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


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """``repro-peer``: run one federation peer from a config file."""
    parser = argparse.ArgumentParser(
        prog="repro-peer",
        description="Run one update-exchange federation peer as a process.",
    )
    parser.add_argument(
        "--config",
        required=True,
        help="path to a codec-JSON peer config (written by ProcessFederation)",
    )
    arguments = parser.parse_args(argv)
    with open(arguments.config, "rb") as handle:
        config = loads(handle.read())
    host = PeerHost(config)
    try:
        host.run()
    except Exception:  # pragma: no cover - surfaced via the process log
        traceback.print_exc()
        return 1
    return 0
