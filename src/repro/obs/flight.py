"""The always-on flight recorder: the last N observations, crash-safe on disk.

A :class:`FlightRecorder` is the black box of one peer process.  It captures
a bounded window of *observations* — span records copied from the process's
tracer, peer events (control messages, ticket terminals, question
open/close, heartbeats), and delivery decisions — and keeps them crash-safe
by appending to a pair of rotating JSONL segment files.  The two segments
form a ring on disk: the recorder appends to the current segment and, when
it reaches ``segment_records`` lines, truncates the other segment and
switches to it, so the directory never holds more than ``2 ×
segment_records`` records per recorder and the *most recent* window always
survives.

Crash-safety model: records are buffered in memory and appended to disk on
:meth:`flush` (the peer host flushes on every telemetry heartbeat, and the
recorder self-flushes when the buffer reaches a segment's worth).  A flushed
record survives ``SIGKILL`` — the write has reached the kernel; losing it
would take the whole OS down, not just the process.  Graceful failure paths
(unhandled exception, orphan-exit, ``SIGTERM``) go through :meth:`dump`,
which flushes everything *including* the not-yet-flushed tail and appends a
terminal ``dump`` marker naming the reason.

Record shapes (one JSON object per line)::

    {"rec": "event", "seq": 17, "wall": ..., "kind": "delivery", ...}
    {"rec": "span",  "seq": 18, "span": {<Span.to_record() document>}}
    {"rec": "event", "seq": 19, "kind": "dump", "reason": "sigterm", ...}

The cost discipline matches the tracer's: recording is a dict build, its
JSON line and a deque append (no I/O), disabled recorders
(``directory=None``) return after one attribute read, and nothing here ever
touches the chase hot path — the recorder only sees host-level events, whose
rate is per-delivery and per-commit, not per-chase-step.  Measured on a
shared 2-core box: ≈5.7 µs per six-field event record under ``timeit``,
flushes included, with the JSON encoder built once per process (≈6.7 µs
when ``JSONEncoder.encode`` built one per record).  Section-timed inside
``sock_relay`` peers (cache-cold, between socket reads) a record cost
≈23 µs with the per-record encoder; a relayed insert leaves 3 records on
its peers (control at the submitting peer; delivery and ticket at the
owner, which reports the terminal status).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Union

from .trace import Span, encode_record

#: Default bounded window: observations kept per recorder (ring + disk).
DEFAULT_CAPACITY = 1024


class FlightRecorder:
    """A bounded, crash-safe ring of observations for one process."""

    def __init__(
        self,
        directory: Optional[str],
        name: str,
        capacity: int = DEFAULT_CAPACITY,
        segment_records: Optional[int] = None,
        clock=time.time,
    ):
        #: ``False`` when *directory* is None: every method no-ops cheaply.
        self.enabled = directory is not None
        self.directory = directory
        self.name = name
        self.capacity = capacity
        self.segment_records = segment_records or capacity
        self.clock = clock
        #: The in-memory window (introspection and the dump tail).
        self.ring: Deque[Dict[str, object]] = deque(maxlen=capacity)
        #: Serialised records not yet on disk, one JSONL line each.
        self._pending: List[str] = []
        self._seq = 0
        self._dumped = False
        self._segment = 0
        self._segment_count = 0
        self._paths: List[str] = []
        if self.enabled:
            os.makedirs(directory, exist_ok=True)
            # The pid keeps reborn peers and parallel federations sharing one
            # postmortem directory from clobbering each other's dumps.
            stem = "flight-{}-{}".format(name, os.getpid())
            self._paths = [
                os.path.join(directory, "{}.{}.jsonl".format(stem, index))
                for index in (0, 1)
            ]
            for path in self._paths:
                with open(path, "w"):
                    pass

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind: str, **fields: object) -> None:
        """Capture one peer event or delivery decision (no I/O)."""
        if not self.enabled:
            return
        self._seq += 1
        entry: Dict[str, object] = {
            "rec": "event",
            "seq": self._seq,
            "wall": self.clock(),
            "kind": kind,
        }
        entry.update(fields)
        self._append(entry)

    def record_span(self, span_record: Dict[str, object]) -> None:
        """Capture one span's JSONL record (open spans carry no ``end``)."""
        if not self.enabled:
            return
        self._seq += 1
        self._append({"rec": "span", "seq": self._seq, "span": span_record})

    def _append(self, entry: Dict[str, object]) -> None:
        self.ring.append(entry)
        # Serialised here, not at flush: the host flushes once per heartbeat,
        # and dumping a whole interval's records in one go would stall the
        # peer's loop for milliseconds (it showed as the p99 turnaround).
        self._pending.append(encode_record(entry) + "\n")
        if len(self._pending) >= self.segment_records:
            # Self-flush on pressure: the unflushed window a crash can lose
            # stays bounded even if the host never reaches a heartbeat.
            self.flush()

    def records(self) -> List[Dict[str, object]]:
        """The in-memory window, oldest first."""
        return list(self.ring)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Append buffered records to the current segment; returns the count.

        Rotation happens *between* flushes: once the current segment holds
        ``segment_records`` lines, the other segment is truncated and
        becomes current — the on-disk pair always covers at least the last
        ``segment_records`` and at most twice that.
        """
        if not self.enabled or not self._pending:
            return 0
        pending, self._pending = self._pending, []
        written = 0
        try:
            with open(self._paths[self._segment], "a") as handle:
                for line in pending:
                    handle.write(line)
                    written += 1
                    self._segment_count += 1
                    if self._segment_count >= self.segment_records:
                        break
                handle.flush()
            if written < len(pending):
                # Rotate and keep writing the remainder into the fresh one.
                self._rotate()
                with open(self._paths[self._segment], "a") as handle:
                    for line in pending[written:]:
                        handle.write(line)
                        written += 1
                        self._segment_count += 1
                    handle.flush()
            elif self._segment_count >= self.segment_records:
                self._rotate()
        except OSError:  # pragma: no cover - the disk died; keep flying
            pass
        return written

    def _rotate(self) -> None:
        self._segment = 1 - self._segment
        self._segment_count = 0
        try:
            with open(self._paths[self._segment], "w"):
                pass
        except OSError:  # pragma: no cover - best effort
            pass

    def dump(self, reason: str, **fields: object) -> List[str]:
        """Flush everything and append a terminal marker; returns the paths.

        Idempotent on the marker: only the *first* reason is recorded (a
        SIGTERM dump followed by the shutdown path's dump keeps ``sigterm``),
        but the flush always runs, so late records still reach disk.
        """
        if not self.enabled:
            return []
        if not self._dumped:
            self._dumped = True
            self.record("dump", reason=reason, **fields)
        self.flush()
        return list(self._paths)

    @property
    def dumped(self) -> bool:
        return self._dumped


# ----------------------------------------------------------------------
# Loading dumps back
# ----------------------------------------------------------------------
def flight_paths(directory: str) -> List[str]:
    """Every flight segment file under *directory*, sorted by name."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        os.path.join(directory, name)
        for name in names
        if name.startswith("flight-") and name.endswith(".jsonl")
    )


def _group_key(path: str) -> str:
    # "flight-<name>-<pid>.<segment>.jsonl" -> "flight-<name>-<pid>"
    base = os.path.basename(path)
    return base.rsplit(".", 2)[0]


def load_flight_records(
    target: Union[str, Iterable[str]]
) -> List[Dict[str, object]]:
    """Load flight records from a postmortem directory or explicit files.

    Records are grouped per recorder (the two rotating segments of one
    process re-interleave by their ``seq`` counter) and groups concatenate
    in name order, so one peer's observations always read oldest→newest.
    """
    if isinstance(target, str):
        paths = flight_paths(target) if os.path.isdir(target) else [target]
    else:
        paths = list(target)
    groups: Dict[str, List[Dict[str, object]]] = {}
    for path in paths:
        try:
            with open(path) as handle:
                lines = handle.readlines()
        except OSError:
            continue
        bucket = groups.setdefault(_group_key(path), [])
        for line in lines:
            line = line.strip()
            if line:
                bucket.append(json.loads(line))
    records: List[Dict[str, object]] = []
    for key in sorted(groups):
        records.extend(sorted(groups[key], key=lambda entry: entry.get("seq", 0)))
    return records


def load_flight_spans(target: Union[str, Iterable[str]]) -> List[Span]:
    """The span records inside a flight dump, as :class:`Span` objects.

    Duplicates are possible by design (a span captured open at a heartbeat
    is re-captured closed by the final dump); merge with
    :func:`repro.obs.analysis.merge_spans`, which prefers the closed record.
    """
    spans: List[Span] = []
    for entry in load_flight_records(target):
        if entry.get("rec") == "span":
            spans.append(Span.from_record(entry["span"]))
    return spans
