"""The socket transport: framed codec bytes between real OS processes.

This module is the byte-moving half of the multi-process federation.  Where
:class:`~repro.federation.transport.Transport` is the in-memory link layer
of one process, the classes here carry the same encoded envelopes on actual
sockets:

* :class:`SocketAddress` — a Unix-domain path or a TCP host/port, with a
  codec-JSON body so address maps travel inside peer config files;
* :class:`FrameChannel` — one connected stream socket speaking
  :mod:`repro.codec.framing` frames: ``send_frame`` writes, ``receive``
  drains whatever the kernel has and returns complete frames (partials stay
  buffered in the channel's :class:`~repro.codec.framing.FrameDecoder`);
* :class:`FrameListener` — the accepting side, yielding channels;
* :class:`OutgoingLink` — the sender-side per-destination FIFO of frames,
  with ``hold``/``release`` (partition: frames queue, nothing is lost) plus
  transparent reconnect (a dead destination keeps its frames queued until it
  comes back — exactly how the in-memory transport treats a partition).
  Seeded delay and reorder are simulated by the in-memory transport alone.

Everything here is deliberately blocking-socket based: channels use blocking
sockets with a send timeout, and the peer host multiplexes *reads* with a
``selectors`` loop, which keeps the code free of half-written-frame
bookkeeping.  The price is known and unpaid: a blocking ``sendall`` *can*
stall — with 5–10 KB per user operation both ends of a stream fill their
kernel buffers and block in ``sendall`` toward each other until the send
timeout fires (bench finding 1 in ``bench/README.md``; ROADMAP item 5 makes
sends non-blocking).
"""

from __future__ import annotations

import os
import socket
import time
from typing import Dict, List, Optional

from ..codec.framing import FRAME_ENVELOPE, Frame, FrameDecoder, encode_frame

#: Send-side socket timeout: a peer whose kernel buffer stays full this long
#: is treated as dead (frames requeue and the link redials).
SEND_TIMEOUT_SECONDS = 10.0


class SocketTransportError(ConnectionError):
    """A channel operation failed (the peer is gone or the stream broke)."""


class ChannelClosed(SocketTransportError):
    """The remote side closed the stream (EOF)."""


class SocketAddress:
    """Where a peer listens: a Unix-domain path or a TCP endpoint."""

    __slots__ = ("kind", "path", "host", "port")

    def __init__(
        self,
        kind: str,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ):
        if kind not in ("unix", "tcp"):
            raise ValueError("unknown socket address kind {!r}".format(kind))
        if kind == "unix" and not path:
            raise ValueError("a unix address needs a path")
        if kind == "tcp" and (not host or not port):
            raise ValueError("a tcp address needs host and port")
        self.kind = kind
        self.path = path
        self.host = host
        self.port = port

    @classmethod
    def unix(cls, path: str) -> "SocketAddress":
        return cls("unix", path=path)

    @classmethod
    def tcp(cls, host: str, port: int) -> "SocketAddress":
        return cls("tcp", host=host, port=port)

    def to_body(self) -> Dict[str, object]:
        """The JSON body peer config files carry."""
        if self.kind == "unix":
            return {"kind": "unix", "path": self.path}
        return {"kind": "tcp", "host": self.host, "port": self.port}

    @classmethod
    def from_body(cls, body: Dict[str, object]) -> "SocketAddress":
        if body["kind"] == "unix":
            return cls.unix(str(body["path"]))
        return cls.tcp(str(body["host"]), int(body["port"]))

    def _family(self) -> int:
        return socket.AF_UNIX if self.kind == "unix" else socket.AF_INET

    def _target(self):
        return self.path if self.kind == "unix" else (self.host, self.port)

    def connect(self, timeout: float = 5.0) -> socket.socket:
        """Dial this address; returns a connected blocking socket."""
        sock = socket.socket(self._family(), socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(self._target())
        except OSError:
            sock.close()
            raise
        sock.settimeout(SEND_TIMEOUT_SECONDS)
        if self.kind == "tcp":
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def describe(self) -> str:
        if self.kind == "unix":
            return "unix:{}".format(self.path)
        return "tcp:{}:{}".format(self.host, self.port)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return "SocketAddress({})".format(self.describe())


class FrameChannel:
    """One connected stream socket carrying frames in both directions."""

    def __init__(self, sock: socket.socket, label: str = ""):
        self.sock = sock
        #: Who is on the other end ("" until the hello frame names them).
        self.label = label
        self.decoder = FrameDecoder()
        self.closed = False

    def fileno(self) -> int:
        return self.sock.fileno()

    def send_frame(self, kind: int, payload: bytes) -> None:
        self.send_bytes(encode_frame(kind, payload))

    def send_bytes(self, data: bytes) -> None:
        """Write pre-framed bytes (possibly several frames batched)."""
        if self.closed:
            raise SocketTransportError("channel {} is closed".format(self.label))
        try:
            self.sock.sendall(data)
        except OSError as error:
            self.close()
            raise SocketTransportError(
                "send to {} failed: {}".format(self.label or "peer", error)
            )

    def receive(self) -> List[Frame]:
        """Read once and return every frame that completed.

        Call after a readiness notification: one ``recv`` on a readable
        blocking socket returns promptly.  Raises :class:`ChannelClosed` on
        EOF (the remote side is gone).
        """
        if self.closed:
            raise ChannelClosed("channel {} is closed".format(self.label))
        try:
            data = self.sock.recv(1 << 16)
        except OSError as error:
            self.close()
            raise ChannelClosed(
                "recv from {} failed: {}".format(self.label or "peer", error)
            )
        if not data:
            self.close()
            raise ChannelClosed("{} closed the stream".format(self.label or "peer"))
        return self.decoder.feed(data)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - close is best effort
                pass


class FrameListener:
    """The accepting side of a peer: bound, listening, yields channels."""

    def __init__(self, address: SocketAddress, backlog: int = 16):
        self.address = address
        if address.kind == "unix":
            # A stale socket file from a crashed predecessor blocks bind.
            try:
                os.unlink(address.path)
            except OSError:
                pass
        self.sock = socket.socket(address._family(), socket.SOCK_STREAM)
        if address.kind == "tcp":
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(address._target())
        self.sock.listen(backlog)

    def fileno(self) -> int:
        return self.sock.fileno()

    def accept(self) -> FrameChannel:
        sock, _ = self.sock.accept()
        sock.settimeout(SEND_TIMEOUT_SECONDS)
        if self.address.kind == "tcp":
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return FrameChannel(sock)

    def close(self) -> None:
        try:
            self.sock.close()
        finally:
            if self.address.kind == "unix":
                try:
                    os.unlink(self.address.path)
                except OSError:
                    pass


class OutgoingLink:
    """Sender-side state of one directed peer link: a FIFO of frame bytes.

    ``hold`` parks the whole link (partition — frames are *held*, never
    dropped).  The channel is dialed lazily and redialed after failures;
    frames stay queued across reconnects, so a killed-and-restarted
    destination receives everything once it listens again.
    """

    def __init__(self, destination: str, address: SocketAddress):
        self.destination = destination
        self.address = address
        self.held = False
        #: Frames not yet written, in send order.
        self.queue: List[bytes] = []
        self.channel: Optional[FrameChannel] = None
        #: Earliest next redial (monotonic seconds); backs off on failure.
        self._retry_at = 0.0
        #: Frames actually written to the socket (the drain accounting the
        #: coordinator compares against the destination's received count).
        self.frames_sent = 0

    def send(self, data: bytes, kind: str, payloads: int, clock) -> None:
        """Queue one encoded envelope as a frame: the peer runtime's link
        call (a socket link needs only the bytes)."""
        self.queue.append(encode_frame(FRAME_ENVELOPE, data))

    @property
    def queued(self) -> int:
        return len(self.queue)

    @property
    def connected(self) -> bool:
        return self.channel is not None and not self.channel.closed

    def stats(self) -> Dict[str, object]:
        """Inflight gauges for the telemetry plane (cheap, no syscalls)."""
        return {
            "queued": len(self.queue),
            "held": self.held,
            "connected": self.connected,
            "frames_sent": self.frames_sent,
        }

    def next_due(self) -> Optional[float]:
        """When a disconnected link with queued frames redials next (None
        otherwise: the host flushes a connected link on every pass)."""
        if self.held or not self.queue or self.connected:
            return None
        return self._retry_at

    def _connect(self, hello: Optional[bytes]) -> Optional[FrameChannel]:
        try:
            sock = self.address.connect()
        except OSError:
            return None
        channel = FrameChannel(sock, label=self.destination)
        if hello is not None:
            try:
                channel.send_bytes(hello)
            except SocketTransportError:
                return None
        return channel

    def flush(self, now: float, hello: Optional[bytes] = None) -> int:
        """Send every queued frame; returns how many went out.

        *hello* is the identification frame a fresh connection must lead
        with (the receiver learns who is dialing from it).  On any send
        failure the frames stay queued and the link backs off before
        redialing — delivery is at-least-once over reconnects, which is the
        same contract the in-process transport gives a healed partition.
        """
        if self.held or not self.queue:
            return 0
        if not self.connected:
            if now < self._retry_at:
                return 0
            self.channel = self._connect(hello)
            if self.channel is None:
                self._retry_at = now + 0.05
                return 0
        try:
            # One syscall for the whole queue: the receiver's decoder splits
            # the coalesced segment back into frames.
            self.channel.send_bytes(b"".join(self.queue))
        except SocketTransportError:
            # Nothing (or everything) went out; sendall gives no partial
            # count.  Keep the whole queue — receivers absorb duplicates
            # idempotently, exactly like redelivery after a heal.
            self._retry_at = now + 0.05
            return 0
        sent = len(self.queue)
        self.queue = []
        self.frames_sent += sent
        return sent

    def reset(self) -> None:
        """Drop the connection (keep the queue); the next flush redials.

        Needed when the *destination* process is replaced: a TCP connection
        to a killed peer can accept one more ``sendall`` into its dead
        buffer without an error (the RST races the write), silently losing
        the frame — and this side never notices, because outgoing links are
        write-only.  Resetting before traffic resumes makes the next flush
        dial the reborn listener instead.
        """
        self.close()
        self._retry_at = 0.0

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()
            self.channel = None


def monotonic() -> float:
    """The clock links and hosts share (separable for tests)."""
    return time.monotonic()
