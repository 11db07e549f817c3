"""Framing robustness: reassembly under arbitrary chunking, rejection of rot.

The socket transport trusts :class:`~repro.codec.framing.FrameDecoder` to turn
an arbitrary chunking of the byte stream back into the frames the sender
wrote.  These tests pin that contract over the *golden* payload corpus (the
same representative set the golden-bytes fixture freezes): a seeded
byte-chopper replays every corpus stream in random splits and coalescings and
the decoder must reproduce the frame sequence exactly; truncation leaves
bytes pending rather than fabricating a frame; and every header corruption —
wrong magic, unknown version, unknown kind, a length beyond the limit — is
rejected as :class:`~repro.codec.framing.FramingError` the moment the header
is readable.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.codec import (
    FRAME_CONTROL,
    FRAME_ENVELOPE,
    FRAME_MAGIC,
    HEADER_SIZE,
    WIRE_VERSION,
    FrameDecoder,
    FramingError,
    decode_envelope,
    encode_envelope,
    encode_frame,
)

from test_golden import golden_payloads


def _golden_frames():
    """The corpus stream: every golden payload, framed, in fixture order."""
    return [
        (name, encode_frame(FRAME_ENVELOPE, encode_envelope(payload)))
        for name, payload in golden_payloads()
    ]


def _chop(data: bytes, rng: random.Random):
    """Split *data* into random-size chunks (1..max segment), keeping order."""
    chunks = []
    position = 0
    while position < len(data):
        size = rng.randint(1, max(1, min(37, len(data) - position)))
        chunks.append(data[position:position + size])
        position += size
    return chunks


def test_single_frame_round_trip():
    for name, payload in golden_payloads():
        encoded = encode_envelope(payload)
        frames = FrameDecoder().feed(encode_frame(FRAME_ENVELOPE, encoded))
        assert len(frames) == 1
        assert frames[0].kind == FRAME_ENVELOPE
        assert frames[0].payload == encoded
        # The frame wraps the *unchanged* unframed dialect: stripping the
        # header yields bytes the plain codec decodes to the same payload.
        assert decode_envelope(frames[0].payload) == payload


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 2026])
def test_chopped_stream_reassembles(seed):
    """Seeded byte-chopper: any split of the stream yields the same frames."""
    rng = random.Random(seed)
    expected = _golden_frames()
    stream = b"".join(frame for _, frame in expected)
    decoder = FrameDecoder()
    received = []
    for chunk in _chop(stream, rng):
        received.extend(decoder.feed(chunk))
    assert len(decoder._buffer) == 0
    assert len(received) == len(expected)
    for (name, framed), frame in zip(expected, received):
        assert framed == b"".join(
            (framed[:HEADER_SIZE], frame.payload)
        ), "frame for {!r} did not survive reassembly".format(name)


def test_coalesced_segments():
    """Many frames arriving in one recv() come back as many frames."""
    expected = _golden_frames()
    stream = b"".join(frame for _, frame in expected)
    frames = FrameDecoder().feed(stream)
    assert [f.payload for f in frames] == [
        framed[HEADER_SIZE:] for _, framed in expected
    ]


def test_truncated_frame_stays_pending():
    framed = encode_frame(FRAME_ENVELOPE, encode_envelope("transport-smoke"))
    decoder = FrameDecoder()
    # Header split across feeds: nothing delivered, bytes pending.
    assert decoder.feed(framed[:3]) == []
    assert len(decoder._buffer) == 3
    # Full header, partial payload: still nothing delivered.
    assert decoder.feed(framed[3:-2]) == []
    assert len(decoder._buffer) == len(framed) - 2
    # The last bytes complete the frame.
    frames = decoder.feed(framed[-2:])
    assert len(frames) == 1
    assert decode_envelope(frames[0].payload) == "transport-smoke"
    assert len(decoder._buffer) == 0


def test_bad_magic_rejected():
    framed = encode_frame(FRAME_CONTROL, b"{}")
    corrupted = b"XX" + framed[2:]
    with pytest.raises(FramingError, match="magic"):
        FrameDecoder().feed(corrupted)


def test_unknown_version_rejected():
    framed = bytearray(encode_frame(FRAME_CONTROL, b"{}"))
    framed[2] = WIRE_VERSION + 1
    with pytest.raises(FramingError, match="version"):
        FrameDecoder().feed(bytes(framed))


def test_unknown_kind_rejected():
    framed = bytearray(encode_frame(FRAME_CONTROL, b"{}"))
    framed[3] = 99
    with pytest.raises(FramingError, match="kind"):
        FrameDecoder().feed(bytes(framed))


def test_oversized_length_rejected_before_payload_arrives():
    header = struct.pack(">2sBBI", FRAME_MAGIC, WIRE_VERSION, FRAME_ENVELOPE, 1 << 30)
    decoder = FrameDecoder(max_payload=1024)
    # The header alone is enough to reject: no 1 GiB buffer is ever awaited.
    with pytest.raises(FramingError, match="limit"):
        decoder.feed(header)


def test_oversized_payload_rejected_at_encode():
    with pytest.raises(FramingError, match="limit"):
        encode_frame(FRAME_ENVELOPE, b"x" * (64 * 1024 * 1024 + 1))


def test_unknown_kind_rejected_at_encode():
    with pytest.raises(FramingError, match="kind"):
        encode_frame(42, b"{}")


def test_interleaved_kinds_keep_order():
    control = encode_frame(FRAME_CONTROL, b'{"t":"hello","peer":"p0"}')
    envelope = encode_frame(FRAME_ENVELOPE, encode_envelope("transport-smoke"))
    frames = FrameDecoder().feed(control + envelope + control)
    assert [f.kind for f in frames] == [FRAME_CONTROL, FRAME_ENVELOPE, FRAME_CONTROL]


@pytest.mark.parametrize("seed", [11, 13])
def test_chopper_with_interleaved_control_frames(seed):
    """The chopper again, over a stream mixing control and envelope frames."""
    rng = random.Random(seed)
    stream_frames = []
    for index, (name, payload) in enumerate(golden_payloads()):
        stream_frames.append(encode_frame(FRAME_ENVELOPE, encode_envelope(payload)))
        if index % 3 == 0:
            stream_frames.append(
                encode_frame(FRAME_CONTROL, b'{"t":"status","round":%d}' % index)
            )
    stream = b"".join(stream_frames)
    decoder = FrameDecoder()
    received = []
    for chunk in _chop(stream, rng):
        received.extend(decoder.feed(chunk))
    assert len(received) == len(stream_frames)
    assert b"".join(encode_frame(f.kind, f.payload) for f in received) == stream
    assert len(decoder._buffer) == 0
