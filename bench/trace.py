"""Timing shims: spans around the program's public callables, recorded from here.

The benchmark's per-layer numbers come from a separate traced pass.  Nothing
inside ``src/`` is edited for it: :class:`SpanRecorder` replaces a callable at
the attribute its callers resolve (a method on its class, a function in the
module that imported it) with a shim that records one span per call — name,
layer, start, end, parent and operation id — and restores the original on
:meth:`SpanRecorder.uninstall`.  Spans stay in memory; :meth:`write_jsonl`
dumps them when the workload ends.

A span's *self time* is its duration minus the part its child spans cover, so
the self times of everything under one root add up to the root's wall exactly;
the root's own self time is what no shim saw (the printed residual).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: One recorded span: (name, layer, start, end, parent index or -1, op id).
SpanRecord = Tuple[str, str, float, float, int, Optional[str]]


class SpanRecorder:
    """Installs shims, records their spans, and sums self time per span name."""

    def __init__(self):
        self.spans: List[Optional[SpanRecord]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Open spans: [span index, seconds covered by children, op id].
        self._stack: List[list] = []
        self._installed: List[Tuple[object, str, object]] = []
        #: Shims pass straight through unless a measured phase is open.
        self.recording = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _enter(self, op: Optional[str]) -> list:
        if op is None and self._stack:
            op = self._stack[-1][2]  # work done for a request inherits its id
        index = len(self.spans)
        self.spans.append(None)  # filled in when the span closes
        frame = [index, 0.0, op]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, layer: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        self.self_seconds[name] += duration - frame[1]
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        self.spans[frame[0]] = (name, layer, start, end, parent, frame[2])

    @contextlib.contextmanager
    def measuring(self):
        """A measured phase: record, under one ``workload.loop`` root span.

        Set-up and warm-up run with the shims installed but outside any
        measured phase, so they leave no spans and no self time.
        """
        self.recording = True
        frame = self._enter(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, "workload.loop", "workload", start)
            self.recording = False

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        op_of: Optional[Callable[[tuple], str]] = None,
    ) -> None:
        """Shim ``owner.attribute``; *name* is ``<layer>.<metric stem>``.

        *op_of* derives the operation id from the call's positional arguments
        (spans without one inherit their parent's).
        """
        original = getattr(owner, attribute)
        layer = name.split(".", 1)[0]
        recorder = self

        def shim(*args, **kwargs):
            if not recorder.recording:
                return original(*args, **kwargs)
            frame = recorder._enter(op_of(args) if op_of is not None else None)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                recorder._exit(frame, name, layer, start)

        shim.__wrapped__ = original
        setattr(owner, attribute, shim)
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every shimmed attribute (newest first)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> int:
        with open(path, "w") as handle:
            for index, record in enumerate(self.spans):
                if record is None:
                    continue  # still open when the dump was taken
                name, layer, start, end, parent, op = record
                handle.write(json.dumps({
                    "id": index, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "op": op,
                }) + "\n")
        return len(self.spans)


def install_program_shims(recorder: SpanRecorder) -> None:
    """Shim the in-process program's public callables, layer by layer.

    Each is patched where its callers look it up: methods on their class, and
    the codec/conflict functions in the modules that imported them by name.
    """
    from repro.concurrency import dependencies, optimistic
    from repro.concurrency.execution import UpdateExecution
    from repro.federation import network, transport
    from repro.query.violation_query import ViolationQuery
    from repro.service.repository import RepositoryService
    from repro.storage.durable import WriteLogSegments
    from repro.storage.versioned import VersionedDatabase

    def priority(args: tuple) -> str:
        return "p{}".format(args[0].priority)

    recorder.wrap(UpdateExecution, "run_step", "core.chase", op_of=priority)
    recorder.wrap(ViolationQuery, "evaluate", "query.violation")
    recorder.wrap(dependencies.PreciseTracker, "dependencies", "concurrency.tracker")
    scheduler = optimistic.OptimisticScheduler
    recorder.wrap(optimistic, "find_direct_conflicts", "concurrency.validate_commit")
    recorder.wrap(scheduler, "_advance_commit_watermark", "concurrency.validate_commit")
    for method in ("submit", "pump", "run", "resume"):
        recorder.wrap(scheduler, method, "concurrency.scheduler")
    for method in ("apply_write", "apply_writes", "extend_log", "rollback"):
        recorder.wrap(VersionedDatabase, method, "storage.apply")
    recorder.wrap(VersionedDatabase, "load_initial", "storage.load_initial")
    recorder.wrap(VersionedDatabase, "compact_below", "storage.compact")
    recorder.wrap(WriteLogSegments, "append", "storage.segment_append")
    recorder.wrap(RepositoryService, "checkpoint", "storage.checkpoint")
    recorder.wrap(RepositoryService, "submit", "service.submit")
    recorder.wrap(RepositoryService, "pump", "service.pump")
    recorder.wrap(RepositoryService, "answer", "service.answer")
    recorder.wrap(transport, "encode_envelope", "codec.encode")
    recorder.wrap(transport, "decode_envelope", "codec.decode")
    recorder.wrap(transport.Transport, "pump", "federation.transport_pump")
    for method in ("submit", "pump", "answer", "run_until_quiescent"):
        recorder.wrap(network.FederatedNetwork, method, "federation.network")


def install_coordinator_shims(recorder: SpanRecorder) -> None:
    """Shim the coordinator-side calls of the socket federation.

    The peers are other processes; what this process can time is how long it
    spends submitting, waiting in ``poll``, answering and draining.
    """
    from repro.federation.process_network import ProcessFederation

    recorder.wrap(ProcessFederation, "submit", "federation.coord_submit")
    recorder.wrap(ProcessFederation, "answer", "federation.coord_submit")
    recorder.wrap(ProcessFederation, "poll", "federation.coord_poll_wait")
    recorder.wrap(ProcessFederation, "drain", "federation.drain")
