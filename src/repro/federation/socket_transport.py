"""The socket transport: framed codec bytes between real OS processes.

This module is the byte-moving half of the multi-process federation.  Where
:class:`~repro.federation.transport.Transport` is the in-memory link layer
of one process, the classes here carry the same encoded envelopes on actual
sockets:

* :class:`SocketAddress` — a Unix-domain path or a TCP host/port;
* :class:`FrameChannel` — one connected non-blocking stream socket speaking
  :mod:`repro.codec.framing` frames, registered with its owner's selector:
  ``write`` queues, ``ready`` serves a selector report (partial frames stay
  in its :class:`~repro.codec.framing.FrameDecoder`);
* :class:`FrameListener` — the accepting side, yielding channels;
* :class:`OutgoingLink` — the sender-side per-destination FIFO of frames,
  with ``hold``/``release`` (partition: frames queue, nothing is lost) plus
  transparent reconnect (a dead destination keeps its frames queued until it
  comes back — exactly how the in-memory transport treats a partition).
  Seeded delay and reorder are simulated by the in-memory transport alone.

No write waits: a channel sends what its socket takes and leaves the rest
to ``EVENT_WRITE`` on its owner's one ``selectors`` loop, which reads every
channel — outgoing links too, so a link drops a replaced destination's dead
connection at its EOF instead of writing into it.  A broken stream, noticed
by a read or a write, surfaces from ``ready``, the owner's one lost path.
"""

from __future__ import annotations

import os
import selectors
import socket
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..codec.framing import FRAME_ENVELOPE, Frame, FrameDecoder, encode_frame


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

    def _family(self) -> int:
        return socket.AF_UNIX if self.kind == "unix" else socket.AF_INET

    def _target(self):
        return self.path if self.kind == "unix" else (self.host, self.port)

    def connect(self, timeout: float = 5.0) -> socket.socket:
        """Dial this address; returns a connected socket."""
        sock = socket.socket(self._family(), socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(self._target())
        except OSError:
            sock.close()
            raise
        if self.kind == "tcp":
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock


class FrameChannel:
    """One connected non-blocking stream socket carrying frames both ways.

    The channel registers with its owner's *selector*, which reports to
    *data* (the channel itself by default).  What :meth:`write` cannot send
    at once leaves on ``EVENT_WRITE`` of that selector (see :meth:`ready`).
    """

    def __init__(
        self, sock: socket.socket, selector: selectors.BaseSelector,
        data=None, label: str = "",
    ):
        sock.setblocking(False)
        self.sock = sock
        #: Who is on the other end ("" until the hello frame names them).
        self.label = label
        self.decoder = FrameDecoder()
        self.closed = False
        #: Why the stream broke on a write (None while it has not).
        self.error: Optional[str] = None
        #: Bytes the socket has not taken yet, and the count it has taken.
        self._out = bytearray()
        self.written = 0
        self._selector = selector
        self._data = self if data is None else data
        selector.register(self, selectors.EVENT_READ, self._data)

    def fileno(self) -> int:
        return self.sock.fileno()

    @property
    def pending(self) -> bool:
        return bool(self._out)

    def write(self, data: bytes) -> int:
        """Queue *data*, send what the socket takes now; returns the stream
        offset at which *data* ends (compare with :attr:`written`).  The
        offset holds even when the stream broke, so nothing in a failed
        write ever reads as taken."""
        end = self.written + len(self._out) + len(data)
        if not self.closed and self.error is None:
            self._out += data
            self._send()
        return end

    def _send(self) -> None:
        try:
            sent = self.sock.send(self._out)
            del self._out[:sent]
            self.written += sent
        except BlockingIOError:
            pass
        except OSError as error:
            self.error = "send to {} failed: {}".format(self.label or "peer", error)
            self._out.clear()
        self._arm()

    def _arm(self) -> None:
        """Ask for ``EVENT_WRITE`` exactly while bytes wait (the selector
        makes no system call while the events stay the same)."""
        writing = selectors.EVENT_WRITE if self._out else 0
        self._selector.modify(self, selectors.EVENT_READ | writing, self._data)

    def ready(self, events: int) -> List[Frame]:
        """Serve one selector report; returns every frame that completed.
        Raises :class:`ChannelClosed` on EOF or a broken write."""
        if events & selectors.EVENT_WRITE and self._out:
            self._send()
        if self.error is not None:
            raise ChannelClosed(self.error)
        if not events & selectors.EVENT_READ:
            return []
        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        except OSError as error:
            raise ChannelClosed(
                "recv from {} failed: {}".format(self.label or "peer", error)
            )
        if not data:
            raise ChannelClosed("{} closed the stream".format(self.label or "peer"))
        return self.decoder.feed(data)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._selector.unregister(self)
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

    def accept(self, selector: selectors.BaseSelector) -> FrameChannel:
        sock, _ = self.sock.accept()
        if self.address.kind == "tcp":
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return FrameChannel(sock, selector)

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
    dropped).  The channel is dialed lazily and redialed after its EOF;
    frames not yet written whole stay queued across reconnects, so a
    killed-and-restarted destination receives everything once it listens.
    """

    def __init__(
        self, destination: str, address: SocketAddress,
        selector: selectors.BaseSelector,
    ):
        self.destination = destination
        self.address = address
        self.held = False
        #: Frames not yet handed to a channel, in send order.
        self.queue: List[bytes] = []
        #: Frames handed to the channel, each with the stream offset at
        #: which it ends, until the socket has taken it whole.
        self._in_channel: Deque[Tuple[int, bytes]] = deque()
        self.channel: Optional[FrameChannel] = None
        self._selector = selector
        #: Earliest next redial (monotonic seconds); backs off on failure.
        self._retry_at = 0.0
        #: Frames the socket took whole (the drain accounting the
        #: coordinator compares against the destination's received count).
        self.frames_sent = 0

    def send(self, data: bytes, kind: str, payloads: int, clock) -> None:
        """Queue one encoded envelope as a frame: the peer runtime's link
        call (a socket link needs only the bytes)."""
        self.queue.append(encode_frame(FRAME_ENVELOPE, data))

    @property
    def queued(self) -> int:
        """Frames not yet written whole."""
        return len(self.queue) + len(self._in_channel)

    @property
    def writing(self) -> bool:
        """Whether the channel holds frames not yet written whole."""
        return bool(self._in_channel)

    def stats(self) -> Dict[str, object]:
        """Inflight gauges for the telemetry plane (cheap, no syscalls)."""
        return {
            "queued": len(self.queue),
            "writing": len(self._in_channel),
            "held": self.held,
            "connected": self.channel is not None,
            "frames_sent": self.frames_sent,
        }

    def next_due(self) -> Optional[float]:
        """When a disconnected link with queued frames redials next (None
        otherwise: the host flushes a connected link on every pass)."""
        if self.held or not self.queue or self.channel is not None:
            return None
        return self._retry_at

    def flush(self, now: float, hello: Optional[bytes] = None) -> int:
        """Hand every queued frame to the channel; returns how many.

        *hello* is the identification frame a fresh connection must lead
        with (the receiver learns who is dialing from it).  A failed dial
        keeps the frames queued and backs off before redialing.
        """
        if self.held or not self.queue:
            return 0
        if self.channel is None:
            if now < self._retry_at:
                return 0
            try:
                sock = self.address.connect()
            except OSError:
                self._retry_at = now + 0.05
                return 0
            self.channel = FrameChannel(
                sock, self._selector, self, label=self.destination
            )
            if hello is not None:
                self.channel.write(hello)
        # One write for the whole queue: the receiver's decoder splits the
        # coalesced segment back into frames.
        data = b"".join(self.queue)
        offset = self.channel.write(data) - len(data)
        for frame in self.queue:
            offset += len(frame)
            self._in_channel.append((offset, frame))
        handed = len(self.queue)
        self.queue = []
        self.ready(0)
        return handed

    def ready(self, events: int) -> None:
        """Serve the channel's selector report; count the frames written
        whole.  A destination sends nothing back, so a read finds its EOF:
        the frames not written whole go again, whole, after a redial
        (at-least-once, like redelivery after a heal)."""
        if self.channel is None:  # lost earlier in the same select batch
            return
        try:
            self.channel.ready(events)
            lost = False
        except ChannelClosed:
            lost = True
        while self._in_channel and self._in_channel[0][0] <= self.channel.written:
            self._in_channel.popleft()
            self.frames_sent += 1
        if lost:
            self.queue[:0] = [frame for _, frame in self._in_channel]
            self._in_channel.clear()
            self.close()

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()
            self.channel = None
