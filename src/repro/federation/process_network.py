"""The process federation: real peer processes, coordinated over sockets.

:class:`ProcessFederation` is the multi-process counterpart of
:class:`~repro.federation.network.FederatedNetwork`: the same description,
but every peer runs as its own OS process (the ``repro-peer`` entry point of
:mod:`repro.federation.proc`, around the
:class:`~repro.federation.host.PeerRuntime` the in-process network runs for
each of its peers, so the in-process federation is the differential oracle
of the same peer code), and the peers exchange envelopes directly over TCP
or Unix-domain sockets, one :mod:`repro.codec.framing` frame per
per-destination bundle.  The coordinator never touches an envelope.  Its
client surface is the in-process network's own
:class:`~repro.federation.network.ClientDesk`, which builds every control
message once; here ``_send`` writes it as a frame, and the peers' event
frames and replies feed the desk back.  So admission backpressure happens
inside the peer, not in the submitting client, in both runtimes.  No call
waits on a peer's reading: a frame a socket cannot take yet leaves when
``poll`` next turns the selector, and a control stream that ends or breaks,
on a read or a write, takes one lost path.

The drain is the desk's too (:meth:`~repro.federation.network.ClientDesk.drain`,
the watermark protocol both runtimes run); here its time passes in
``poll``, and a drain that times out names each peer's liveness.  What
distribution adds is ``checkpoint_peer``'s quiesce loop, ``kill_peer``, and
the telemetry plane: heartbeats feed the timeline, and each drain's record
lands on the timeline and in the spool.

Peers are forked from the coordinator (POSIX only), which has already
imported every module a peer runs, so a peer starts in milliseconds instead
of paying a fresh interpreter's imports.  Each peer is a direct child of the
coordinator and runs exactly what ``repro-peer --config <file>`` runs; besides
stdin it inherits memory only — the imported modules, ``os.environ`` and the
hash seed.  Before it reads its config the child closes every inherited
descriptor from 3 up (the coordinator's control channels, selector, spool
and whatever its caller had open), points fds 1 and 2, ``sys.stdout``,
``sys.stderr`` and ``faulthandler`` at ``peer-<name>.log``, freezes the
inherited heap out of the garbage collector (no coordinator object is
finalized in the child, where a socket finalizer could close a descriptor
number the peer has reused), drops the shared tracer, restores the default
SIGINT/SIGTERM handlers, and leaves only through ``os._exit``.  Forking is
safe only while the coordinator is single-threaded (Python 3.12 warns
otherwise).  A peer on another machine or under another interpreter runs
the ``repro-peer`` console script directly.

Teardown is strict by design: :meth:`close` walks exit-request → ``wait`` →
``terminate`` → ``kill`` and then :meth:`assert_reaped` verifies no child
outlived the federation, which is what keeps failing tests from leaking
orphan processes or socket files.
"""

from __future__ import annotations

import faulthandler
import gc
import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, Iterable, List, Optional, Sequence

from ..codec.framing import FRAME_CONTROL, encode_frame
from ..codec.wire import decode_payload, dumps, loads
from .exchange import FederationError
from .network import REPLY_TIMEOUT, ClientDesk
from ..obs import trace as obs_trace
from ..obs.timeline import TelemetryTimeline
from ..obs.trace import encode_record
from .proc import COORDINATOR, encode_peer_config, main as peer_main
from .socket_transport import (
    ChannelClosed,
    FrameChannel,
    SocketAddress,
    SocketTransportError,
)


#: How long a peer may take to listen (spawn, restart).
STARTUP_TIMEOUT = 20.0


class ProcessFederationError(FederationError):
    """A coordination failure: a peer died, timed out, or misbehaved."""


class _PeerProcess:
    """A forked peer, seen through the slice of ``subprocess.Popen`` the
    coordinator uses: ``pid``, ``returncode``, ``poll``, ``wait``,
    ``send_signal``, ``terminate`` and ``kill``, over ``os.waitpid`` and
    ``os.kill``.  ``returncode`` follows Popen: ``-N`` for death by signal N.
    """

    __slots__ = ("pid", "returncode")

    def __init__(self, pid: int):
        self.pid = pid
        self.returncode: Optional[int] = None

    def _reap(self, flags: int) -> Optional[int]:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, flags)
            except ChildProcessError:
                # Reaped by someone else; like Popen, call it a clean exit.
                self.returncode = 0
            else:
                if pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def poll(self) -> Optional[int]:
        return self._reap(os.WNOHANG)

    def wait(self, timeout: Optional[float] = None) -> int:
        if timeout is None:
            return self._reap(0)
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired("repro-peer", timeout)
            time.sleep(min(delay, remaining))
            delay = min(delay * 2, 0.05)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        # Poll first: a reaped pid may already belong to someone else.
        if self.poll() is None:
            os.kill(self.pid, signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


def _fork_peer(config_path: str, log_path: str) -> _PeerProcess:
    """Fork a child that runs ``repro-peer --config config_path``."""
    # No collection may run in the child before the freeze: the fork hooks
    # allocate, and a collection there would finalize coordinator garbage.
    collecting = gc.isenabled()
    gc.disable()
    pid = None
    try:
        pid = os.fork()
    finally:
        if pid != 0 and collecting:
            gc.enable()
    if pid:
        return _PeerProcess(pid)
    # The child never returns into the coordinator's stack: every way out
    # is the os._exit below, so no coordinator finally-block, atexit hook
    # or buffered file of the coordinator's runs here.
    code = 1
    try:
        gc.freeze()
        if collecting:
            gc.enable()
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        if log > 2:
            os.close(log)
        sys.stdout = open(1, "w", buffering=1, closefd=False)
        sys.stderr = open(
            2, "w", buffering=1, closefd=False, errors="backslashreplace"
        )
        faulthandler.enable(sys.stderr)
        obs_trace._shared_tracer = None
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        code = peer_main(["--config", config_path])
    except SystemExit as exit_request:
        code = exit_request.code or 0
    except BaseException:
        # Not re-raised: it would unwind into the coordinator's frames.
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code if isinstance(code, int) else 1)


class _PeerHandle:
    """Everything the coordinator tracks per peer process."""

    __slots__ = ("name", "address", "log_path", "process", "channel")

    def __init__(self, name: str, address: SocketAddress):
        self.name = name
        self.address = address
        self.log_path: Optional[str] = None
        self.process: Optional[_PeerProcess] = None
        self.channel: Optional[FrameChannel] = None


class ProcessFederation(ClientDesk):
    """Many peer *processes*, one federation, driven over control sockets."""

    def __init__(
        self,
        schema,
        initial,
        mappings: Sequence,
        ownership: Dict[str, Sequence[str]],
        tracker: str = "PRECISE",
        admission=None,
        max_total_steps: int = 1_000_000,
        trace: Optional[bool] = None,
        transport: str = "unix",
        workdir: Optional[str] = None,
        telemetry_interval: float = 0.25,
        flight: bool = True,
        flight_dir: Optional[str] = None,
    ):
        # Checked before anything touches the filesystem: a constructor
        # that raises leaves no workdir or open spool behind.
        if transport not in ("unix", "tcp"):
            raise ProcessFederationError(
                "unknown transport {!r} (use 'unix' or 'tcp')".format(transport)
            )
        self._initial = initial
        self._mappings = list(mappings)
        self._ownership = {
            name: tuple(relations) for name, relations in ownership.items()
        }
        self._open_desk(schema, self._mappings, self._ownership)
        self._tracker = tracker
        self._admission = admission
        self._max_total_steps = max_total_steps
        if trace is None:
            # Same opt-in as everywhere else: REPRO_TRACE=1 turns the whole
            # federation on (each peer process gets its own prefixed tracer).
            trace = os.environ.get("REPRO_TRACE") == "1"
        self._trace = trace
        self._owns_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-fed-")
        os.makedirs(self.workdir, exist_ok=True)
        # -- the live telemetry plane -----------------------------------
        self._telemetry_interval = float(telemetry_interval)
        #: Postmortem flight dumps land here (param > env > workdir/flight).
        self._flight_dir = None
        if flight:
            self._flight_dir = (
                flight_dir
                or os.environ.get("REPRO_FLIGHT_DIR")
                or os.path.join(self.workdir, "flight")
            )
        #: Federation-wide time series + liveness watchdog over heartbeats
        #: (at its default stalled/dead thresholds).
        self.timeline = TelemetryTimeline(interval=self._telemetry_interval)
        for name in self._ownership:
            self.timeline.register_peer(name)
        self._last_liveness: Dict[str, str] = {}
        self._spool_path = os.path.join(self.workdir, "telemetry.jsonl")
        try:
            self._spool_handle = open(self._spool_path, "a")
        except OSError:  # pragma: no cover - unwritable workdir
            self._spool_handle = None
        self._spool({
            "rec": "meta",
            "interval": self._telemetry_interval,
            "stalled_after": self.timeline.stalled_after,
            "dead_after": self.timeline.dead_after,
            "peers": sorted(self._ownership),
            "wall": time.time(),
        })
        self._addresses = self._assign_addresses(transport)
        self._handles: Dict[str, _PeerHandle] = {
            name: _PeerHandle(name, self._addresses[name])
            for name in self._ownership
        }
        self._selector = selectors.DefaultSelector()
        self._closed = False
        #: Peers whose control EOF is expected (killed or exiting).
        self._expect_eof: set = set()
        try:
            for name in self._ownership:
                self._spawn(name, restore=None)
            for name in self._ownership:
                self._connect(name)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Spawning and connecting
    # ------------------------------------------------------------------
    def _assign_addresses(self, transport: str) -> Dict[str, SocketAddress]:
        if transport == "unix":
            return {
                name: SocketAddress.unix(
                    os.path.join(self.workdir, "peer-{}.sock".format(name))
                )
                for name in self._ownership
            }
        addresses: Dict[str, SocketAddress] = {}
        probes = []
        try:
            for name in self._ownership:
                # Bind port 0 and keep the socket open while picking the
                # rest, so the kernel cannot hand two peers the same port.
                probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                probe.bind(("127.0.0.1", 0))
                probes.append(probe)
                addresses[name] = SocketAddress.tcp(
                    "127.0.0.1", probe.getsockname()[1]
                )
        finally:
            for probe in probes:
                probe.close()
        return addresses

    def _spawn(self, name: str, restore: Optional[str]) -> None:
        handle = self._handles[name]
        trace_path = None
        if self._trace:
            trace_path = os.path.join(
                self.workdir, "trace-{}.jsonl".format(name)
            )
        config = encode_peer_config(
            name=name,
            schema=self.schema,
            initial=self._initial,
            mappings=self._mappings,
            ownership=self._ownership,
            addresses=self._addresses,
            tracker=self._tracker,
            admission=self._admission.get(name)
            if isinstance(self._admission, dict)
            else self._admission,
            max_total_steps=self._max_total_steps,
            trace=self._trace,
            trace_path=trace_path,
            restore=restore,
            telemetry_interval=self._telemetry_interval,
            flight_dir=self._flight_dir,
        )
        config_path = os.path.join(self.workdir, "peer-{}.json".format(name))
        with open(config_path, "wb") as handle_file:
            handle_file.write(config)
        handle.log_path = os.path.join(self.workdir, "peer-{}.log".format(name))
        handle.process = _fork_peer(config_path, handle.log_path)

    def _connect(self, name: str) -> None:
        handle = self._handles[name]
        deadline = time.monotonic() + STARTUP_TIMEOUT
        # A forked peer listens within milliseconds: retry fast, then back
        # off so a slow start does not spin.
        delay = 0.001
        while True:
            if handle.process.poll() is not None:
                raise ProcessFederationError(
                    "peer {!r} exited during startup (code {}); see {}".format(
                        name, handle.process.returncode, handle.log_path
                    )
                )
            try:
                sock = handle.address.connect(timeout=1.0)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise ProcessFederationError(
                        "peer {!r} did not start listening within {}s".format(
                            name, STARTUP_TIMEOUT
                        )
                    )
                time.sleep(delay)
                delay = min(delay * 2, 0.02)
        handle.channel = FrameChannel(sock, self._selector, handle, label=name)
        self._expect_eof.discard(name)
        self._send(name, {"t": "hello", "peer": COORDINATOR})

    # ------------------------------------------------------------------
    # Event pumping and the telemetry plane
    # ------------------------------------------------------------------
    def _spool(self, record: Dict) -> None:
        """Append one record to the telemetry spool (what repro-top tails)."""
        if self._spool_handle is None:
            return
        try:
            self._spool_handle.write(encode_record(record) + "\n")
            self._spool_handle.flush()
        except (OSError, ValueError):  # pragma: no cover - best effort
            pass

    def _observe(self, peer: str, body: Dict, kind: str) -> None:
        """A heartbeat or status reply is the drain's view, and the
        timeline's: a drain round proves the peer alive, so post-drain
        metrics() is at least as fresh as the last round."""
        super()._observe(peer, body, kind)
        self.timeline.observe(peer, body, kind=kind)
        self._spool({
            "rec": "telemetry",
            "peer": peer,
            "kind": kind,
            "wall": time.time(),
            "body": body,
        })

    def liveness(self) -> Dict[str, Dict]:
        """The watchdog's verdict per peer; spools state transitions."""
        report = self.timeline.liveness()
        for name, entry in report.items():
            if self._last_liveness.get(name) != entry["state"]:
                self._last_liveness[name] = entry["state"]
                self._spool({
                    "rec": "liveness",
                    "peer": name,
                    "state": entry["state"],
                    "reason": entry.get("reason"),
                    "age": entry.get("age"),
                    "wall": time.time(),
                })
        return report

    def poll(self, timeout: float = 0.0) -> int:
        """Process pending control traffic; returns handled message count."""
        handled = 0
        for key, events in self._selector.select(timeout):
            handle = key.data
            try:
                frames = handle.channel.ready(events)
            except ChannelClosed:
                self._lost(handle)
                continue
            for frame in frames:
                self._dispatch(handle, loads(frame.payload))
                handled += 1
        if self.timeline.liveness_due():
            self.liveness()
        return handled

    def _dispatch(self, handle: _PeerHandle, body: Dict) -> None:
        kind = body["t"]
        if kind == "telemetry":
            self._observe(handle.name, body, "telemetry")
            return
        if kind == "idle":
            # A went-idle notice feeds the drain and proves the peer alive,
            # but is neither kept as the timeline's view nor spooled (a
            # drain gets one per settling of every peer it watches).
            self.timeline.touch(handle.name)
        elif kind == "question":
            body["q"] = decode_payload(body["q"], self.rules.by_name)
        # An event, a went-idle notice, or a reply (status-reply,
        # checkpoint-done, snapshot-reply, trace-exported) for its awaiter.
        self._receive(handle.name, body)

    def _wait(self, name: str, kind: str, deadline: float) -> None:
        if time.monotonic() > deadline:
            raise ProcessFederationError(
                "timed out waiting for {} from peer {!r}".format(kind, name)
            )
        self.poll(0.05)

    def _lost(self, handle: _PeerHandle) -> None:
        """Close a control channel whose stream ended or broke."""
        handle.channel.close()
        handle.channel = None
        if handle.name not in self._expect_eof:
            # A vanished peer is a liveness fact, not a coordinator crash:
            # the watchdog reports it dead right here (well before any drain
            # timeout), and the peer's flight dump plus its log carry the why.
            self.timeline.mark_dead(
                handle.name, "eof(exit={})".format(handle.process.poll())
            )

    def _send(self, name: str, body: Dict) -> None:
        """Queue one control frame for *name*.  Raises when its stream is
        broken; the next :meth:`poll` then takes the lost path."""
        channel = self._handles[name].channel
        if channel is None:
            raise ProcessFederationError(
                "peer {!r} has no control channel".format(name)
            )
        channel.write(encode_frame(FRAME_CONTROL, dumps(body)))
        if channel.error is not None:
            raise SocketTransportError(channel.error)

    def _live_peers(self) -> List[str]:
        return [
            name for name, handle in self._handles.items()
            if handle.channel is not None
        ]

    def _broadcast(self, names: Iterable[str], body: Dict) -> None:
        """Queue one control frame for every live peer of *names*."""
        frame = encode_frame(FRAME_CONTROL, dumps(body))
        for name in names:
            channel = self._handles[name].channel
            if channel is not None:
                channel.write(frame)

    # ------------------------------------------------------------------
    # The drain's socket-specific pieces
    # ------------------------------------------------------------------
    def _pass_time(self, wait: float) -> bool:
        """Up to *wait* seconds on the selector; the peers work on their own."""
        self.poll(wait)
        return True

    def _watch(self, on: bool) -> None:
        """The desk's watch, past broken streams (the next poll takes the
        lost path; a watch left on at a broken peer is harmless)."""
        self._broadcast(self._live_peers(), {"t": "watch", "on": on})

    def _drain_failure_message(self, why: str, replies: Dict[str, Dict]) -> str:
        return "process {} liveness={}".format(
            super()._drain_failure_message(why, replies),
            {name: entry["state"] for name, entry in self.liveness().items()},
        )

    def _record_drain(self, *args, **kwargs) -> None:
        """Each drain's record also lands on the timeline and in the spool."""
        super()._record_drain(*args, **kwargs)
        self.timeline.record_drain(self.last_drain)
        self._spool({"rec": "drain", "wall": time.time(), "drain": self.last_drain})

    # ------------------------------------------------------------------
    # Checkpoint, kill, restart
    # ------------------------------------------------------------------
    def checkpoint_peer(
        self, name: str, path: str, halt: bool = False, timeout: float = 60.0
    ) -> None:
        """Checkpoint peer *name* with the traffic toward it quiesced.

        Every other peer first holds its link toward the victim, and the
        coordinator waits until the victim has consumed everything already
        on the wire (its receive counters catch up with the others' send
        counters) and gone idle — the same "no envelope addressed to the
        victim is in flight" instant the in-process ``checkpoint_peer``
        trivially has.  With ``halt=True`` the victim freezes after writing
        the checkpoint (used by the kill flow, so no work postdates the
        state the reborn process restores) and the holds stay until
        :meth:`restart_peer` releases them; on every other way out — no
        halt, a timeout, a lost peer — the holds are released and the
        federation resumes.
        """
        self._inbox_of(name)
        deadline = time.monotonic() + timeout
        others = [
            other for other in self._handles
            if other != name and self._handles[other].channel is not None
        ]
        for other in others:
            self._send(other, {"t": "hold", "peer": name})
        halted = False
        try:
            while True:
                replies = self._status_round(others + [name], deadline)
                victim = replies[name]
                caught_up = all(
                    victim["received"].get(other, 0)
                    >= replies[other]["sent"].get(name, 0)
                    for other in others
                )
                # The victim need not be fully quiescent (parked questions
                # are checkpointable state, as in-process), but nothing
                # addressed to it may be in flight — received, or still
                # being written by a sender — and nothing may be stuck in
                # its own queues.
                if (
                    caught_up
                    and not any(
                        replies[other]["links"][name]["writing"]
                        for other in others
                    )
                    and not victim["outbox"]
                    and not victim["queued"]
                    and not victim["retry"]
                ):
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        "could not quiesce traffic toward {!r} within {}s".format(
                            name, timeout
                        )
                    )
                self.poll(0.01)
            # Half the time left bounds the victim's wait for its writes.
            within = (deadline - time.monotonic()) / 2
            self._send(name, {
                "t": "checkpoint", "path": path, "halt": halt, "within": within
            })
            reply = self._await_reply(
                name, "checkpoint-done", deadline,
                matches=lambda body: body.get("path") == path,
            )
            if "error" in reply:
                raise ProcessFederationError(reply["error"])
            halted = halt
        finally:
            if not halted:
                self._broadcast(others, {"t": "release", "peer": name})

    def kill_peer(self, name: str, timeout: float = 10.0, force: bool = False) -> None:
        """Terminate a peer process (its unsaved state *is* the crash).

        The default SIGTERM gives the victim's flight recorder a last dump;
        ``force=True`` sends SIGKILL — no dump marker, only what the
        recorder already flushed at its last heartbeat survives.
        """
        self._inbox_of(name)
        handle = self._handles[name]
        self._expect_eof.add(name)
        if handle.channel is not None:
            self._lost(handle)
        if handle.process is not None and handle.process.poll() is None:
            if force:
                handle.process.kill()
            else:
                handle.process.terminate()
            try:
                handle.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                handle.process.kill()
                handle.process.wait(timeout=timeout)
        self.timeline.mark_dead(name, "killed")
        self.liveness()

    def restart_peer(self, name: str, path: str) -> None:
        """Spawn a fresh process for *name* restoring the checkpoint *path*.

        Ends in the in-process ``restart_peer``'s epilogue
        (:meth:`ClientDesk._restarted`), then releases the holds the kill
        flow placed toward the victim so held frames deliver to the reborn
        process (the survivors' links dropped the dead one's connections at
        its EOF).
        """
        self._inbox_of(name)
        if self._handles[name].process is not None:
            if self._handles[name].process.poll() is None:
                raise ProcessFederationError(
                    "peer {!r} is still running; kill_peer first".format(name)
                )
        self._spawn(name, restore=path)
        self._connect(name)
        # The reborn process starts a fresh heartbeat stream.
        self.timeline.revive(name)
        self.liveness()
        self._restarted(name)
        others = [other for other in self._handles if other != name]
        self._broadcast(others, {"t": "release", "peer": name})

    # ------------------------------------------------------------------
    # Global state
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Dict]:
        """The freshest status-shaped document per peer.

        Served from the telemetry timeline: the latest unsolicited heartbeat
        *or* drain-time status reply, whichever came last.  Freshness
        semantics: after ``drain()`` the numbers are at least as fresh as
        the final status round (status replies feed the timeline too);
        between drains they are at most one heartbeat interval old; with
        telemetry off they are exactly the last status round's.  Keys are
        bit-compatible with the raw status reply; peers that have reported
        nothing yet are omitted.
        """
        views = {name: self.timeline.latest(name) for name in self._handles}
        return {name: view for name, view in views.items() if view is not None}

    def export_traces(self) -> List[str]:
        """Ask every live peer to export its spans; returns the JSONL paths."""
        deadline = time.monotonic() + REPLY_TIMEOUT
        paths: List[str] = []
        names = self._live_peers()
        for name in names:
            path = os.path.join(self.workdir, "trace-{}.jsonl".format(name))
            self._send(name, {"t": "trace-export", "path": path})
        for name in names:
            reply = self._await_reply(name, "trace-exported", deadline)
            paths.append(reply["path"])
        return paths

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop every peer process: exit request, then escalate; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._expect_eof.update(self._handles)
        self._broadcast(self._handles, {"t": "exit"})
        deadline = time.monotonic() + timeout
        # What the sockets have not taken yet leaves on the selector.
        while time.monotonic() < deadline and any(
            handle.channel is not None and handle.channel.pending
            for handle in self._handles.values()
        ):
            self.poll(0.05)
        for handle in self._handles.values():
            if handle.process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.terminate()
                try:
                    handle.process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    handle.process.kill()
                    handle.process.wait()
        for handle in self._handles.values():
            if handle.channel is not None:
                self._lost(handle)
        self._selector.close()
        if self._spool_handle is not None:
            try:
                self._spool_handle.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
            self._spool_handle = None
        for address in self._addresses.values():
            if address.kind == "unix":
                try:
                    os.unlink(address.path)
                except OSError:
                    pass
        if self._owns_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def assert_reaped(self) -> None:
        """Raise unless every child exited and no socket file survives."""
        alive = [
            name for name, handle in self._handles.items()
            if handle.process is not None and handle.process.poll() is None
        ]
        if alive:
            raise AssertionError(
                "peer process(es) still alive after close: {}".format(alive)
            )
        leaked = [
            address.path
            for address in self._addresses.values()
            if address.kind == "unix" and os.path.exists(address.path)
        ]
        if leaked:
            raise AssertionError(
                "socket file(s) leaked after close: {}".format(leaked)
            )

    def __enter__(self) -> "ProcessFederation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

