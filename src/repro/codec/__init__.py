"""The wire-format codec: one canonical byte encoding for everything exchanged.

Every object that crosses a process boundary in this reproduction — federation
envelopes on the transport, rows in the SQLite backend, write-log segments and
snapshots on disk, service checkpoints — goes through this package.  Two
encodings live here:

* the **row codec** (:mod:`repro.codec.rows`): the flat one-string-per-term
  encoding the SQL layer stores in TEXT columns (``c:<value>`` / ``n:<name>``),
  shared verbatim by the SQLite backend and the generated SQL;
* the **wire codec** (:mod:`repro.codec.wire`): a self-describing, versioned,
  ``pickle``-free JSON encoding with round-trip identity for terms, tuples,
  mappings, writes, frontier structures, user operations, update tickets and
  every federation envelope (bundles included).

The wire codec is deliberately deterministic (sorted keys, compact
separators, canonical member ordering) so that golden-bytes fixtures can pin
the format: an accidental change to any encoder fails the fixture check
loudly instead of silently forking the wire dialect.

Layering: this package sits below storage, service and federation (at import
time it only imports ``core`` and ``obs``; :mod:`repro.codec.late` binds the
upper layers' types into the wire codec once the package root has loaded
them), and all three route their byte-level representation through it — the
codec is the single place where "what do these objects look like as bytes"
is decided.
"""

from .framing import (
    FRAME_CONTROL,
    FRAME_ENVELOPE,
    FRAME_MAGIC,
    HEADER_SIZE,
    MAX_FRAME_PAYLOAD,
    Frame,
    FrameDecoder,
    FramingError,
    encode_frame,
)
from .rows import decode_row, decode_term, encode_row, encode_term
from .wire import (
    CodecError,
    WIRE_VERSION,
    decode_envelope,
    decode_payload,
    decode_schema,
    decode_tuple,
    decode_user_operation,
    encode_envelope,
    encode_payload,
    encode_schema,
    encode_tuple,
    encode_user_operation,
    payload_kind,
    payloads_equivalent,
)

__all__ = [
    "CodecError",
    "FRAME_CONTROL",
    "FRAME_ENVELOPE",
    "FRAME_MAGIC",
    "Frame",
    "FrameDecoder",
    "FramingError",
    "HEADER_SIZE",
    "MAX_FRAME_PAYLOAD",
    "WIRE_VERSION",
    "decode_envelope",
    "decode_payload",
    "decode_row",
    "decode_schema",
    "decode_term",
    "decode_tuple",
    "decode_user_operation",
    "encode_envelope",
    "encode_frame",
    "encode_payload",
    "encode_row",
    "encode_schema",
    "encode_term",
    "encode_tuple",
    "encode_user_operation",
    "payload_kind",
    "payloads_equivalent",
]
