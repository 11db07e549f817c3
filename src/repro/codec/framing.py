"""Length-prefixed binary framing: the codec's socket-stream envelope.

The wire codec (:mod:`repro.codec.wire`) produces self-delimiting *documents*
— one JSON envelope per payload — but a TCP or Unix-domain stream has no
document boundaries: reads split and coalesce arbitrarily.  This module adds
the minimal stream discipline on top: every message travels as one **frame**

::

    offset  size  field
    0       2     magic   b"RF"           (reject foreign streams loudly)
    2       1     version == WIRE_VERSION (the codec's version gate)
    3       1     kind    (FRAME_ENVELOPE | FRAME_CONTROL)
    4       4     length  (payload bytes, unsigned big-endian)
    8       n     payload (codec bytes for FRAME_ENVELOPE, canonical JSON
                           for FRAME_CONTROL)

Framing is **opt-in**: it only exists on the socket path.  The unframed JSON
dialect — what the in-process byte transport and the golden-bytes fixture pin
— is byte-for-byte unchanged; a frame merely wraps those same bytes.  A
:class:`~repro.federation.transport.Bundle` encodes to a single envelope, so
one frame carries a whole per-destination flush (many payloads, one header,
one round-trip) — the round-trip reduction the trace phase breakdown asked
for, not a byte-count optimization.

:class:`FrameDecoder` is the receive half: feed it whatever ``recv`` returned
— partial headers, split payloads, many frames coalesced into one segment —
and it yields complete frames in order, buffering the remainder.  Anything
structurally wrong (bad magic, unknown version or kind, a length beyond the
decoder's limit) raises :class:`FramingError` immediately: framing errors are
protocol corruption, never data.
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple

from .wire import WIRE_VERSION, CodecError

#: The two-byte stream signature every frame starts with.
FRAME_MAGIC = b"RF"

#: Frame kinds (a closed set; decoders reject anything else).
FRAME_ENVELOPE = 1  #: payload is :func:`repro.codec.wire.encode_envelope` bytes
FRAME_CONTROL = 2  #: payload is canonical JSON (harness control messages)

_KINDS = frozenset((FRAME_ENVELOPE, FRAME_CONTROL))

#: ``>2s B B I`` — magic, version, kind, payload length (network byte order).
_HEADER = struct.Struct(">2sBBI")

HEADER_SIZE = _HEADER.size

#: Default per-frame payload ceiling.  Generously above any real bundle (the
#: paper-scale bench's largest frame is a few hundred KB) while keeping a
#: corrupted or hostile length field from ballooning the receive buffer.
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024


class FramingError(CodecError):
    """A malformed frame: wrong magic, version, kind, or excessive length."""


class Frame(NamedTuple):
    """One reassembled frame: its kind tag and raw payload bytes."""

    kind: int
    payload: bytes


def encode_frame(kind: int, payload: bytes) -> bytes:
    """Wrap *payload* in one frame (header + bytes), ready to write to a socket."""
    if kind not in _KINDS:
        raise FramingError("unknown frame kind {!r}".format(kind))
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise FramingError(
            "frame payload of {} bytes exceeds the {} byte limit".format(
                len(payload), MAX_FRAME_PAYLOAD
            )
        )
    return _HEADER.pack(FRAME_MAGIC, WIRE_VERSION, kind, len(payload)) + payload


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary chunking of the stream.

    ``feed`` never blocks and never loses bytes: complete frames come back in
    arrival order, a trailing partial frame stays buffered for the next feed.
    The decoder validates each header as soon as its eight bytes are present,
    so corruption is reported at the earliest possible moment — *before*
    waiting for (or allocating) a bogus payload length.
    """

    def __init__(self, max_payload: int = MAX_FRAME_PAYLOAD):
        self._max_payload = max_payload
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb *data*; return every frame it completed, in order."""
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                break
            magic, version, kind, length = _HEADER.unpack_from(self._buffer)
            if magic != FRAME_MAGIC:
                raise FramingError(
                    "bad frame magic {!r} (expected {!r})".format(
                        bytes(magic), FRAME_MAGIC
                    )
                )
            if version != WIRE_VERSION:
                raise FramingError(
                    "unsupported frame version {!r} (this build speaks {})".format(
                        version, WIRE_VERSION
                    )
                )
            if kind not in _KINDS:
                raise FramingError("unknown frame kind {!r}".format(kind))
            if length > self._max_payload:
                raise FramingError(
                    "frame length {} exceeds the {} byte limit".format(
                        length, self._max_payload
                    )
                )
            if len(self._buffer) < HEADER_SIZE + length:
                break
            payload = bytes(self._buffer[HEADER_SIZE:HEADER_SIZE + length])
            del self._buffer[:HEADER_SIZE + length]
            frames.append(Frame(kind=kind, payload=payload))
        return frames
