"""The single-threaded closed-loop load generator and the statistics it reports.

Load model (every streaming workload): ``CLIENTS`` logical clients, zero think
time.  A client submits its next operation when the previous one reached a
terminal ticket status — collaborators wait for their own commit notice, so
callers-that-wait is the honest model.  Frontier questions are answered the
moment they appear (human think time is not the system's).  Turnaround runs
from just before ``submit()`` to the first loop iteration that observes the
terminal status after the system's ``advance()`` returned.

The loop is time-bounded: clients stop submitting when the window closes, the
operations still in flight get ``OP_DEADLINE_S`` to finish, and whatever is
failed, refused, lost to a dead peer or still not terminal by then enters the
percentiles at the deadline and counts as failed.

A *system* is anything with ``submit(client, operation) -> ticket`` (the ticket
has ``is_done`` and ``status``), ``advance()``, ``answer_questions() -> int``,
``drain()`` and an ``errors`` tuple naming the exceptions that mean "the system
under test broke" rather than "the harness is wrong".
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence

from repro.service import AdmissionError, TicketStatus

#: Logical closed-loop clients (one per peer on the federations).
CLIENTS = 4
#: An operation not terminal this long after the window closed is failed.
OP_DEADLINE_S = 60.0


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class LoopResult:
    """What one closed-loop run measured."""

    def __init__(self, clients: int):
        self.clients = clients
        #: Seconds per attempted operation (failed ones at the deadline).
        self.latencies: List[float] = []
        #: Completion instants relative to ``begin`` (successful ones only).
        self.finished_at: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.questions = 0
        self.begin = 0.0
        #: Last terminal status observed (before the drain).
        self.loop_end = 0.0
        #: ``drain()`` returned.
        self.end = 0.0
        #: ``repr`` of the system error that ended the run early, if any.
        self.error: Optional[str] = None

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def wall(self) -> float:
        return max(self.end - self.begin, 1e-9)

    def fail(self, count: int = 1) -> None:
        self.failed += count
        self.latencies.extend([OP_DEADLINE_S] * count)

    def ops_per_s(self) -> float:
        """Operations that reached COMMITTED per second of window + tail + drain."""
        return self.completed / self.wall

    def turnaround_ms(self, fraction: float) -> float:
        return 1e3 * percentile(sorted(self.latencies), fraction)

    def failed_share(self) -> float:
        return self.failed / max(self.attempted, 1)

    def seconds_for(self, count: int) -> float:
        """Seconds from the window's start to the *count*-th completion."""
        return self.finished_at[count - 1] if count else 0.0

    def rate_decay(self) -> float:
        """Completion rate of the last quarter of operations over the first."""
        quarter = len(self.finished_at) // 4
        if quarter < 2:
            return 0.0
        stamps = self.finished_at
        first = quarter / max(stamps[quarter - 1], 1e-9)
        last = quarter / max(stamps[-1] - stamps[-quarter - 1], 1e-9)
        return last / first

    def littles_law_error(self) -> float:
        """|throughput x mean turnaround - clients| / clients over the loop.

        Only meaningful when nothing failed; the closing tail (fewer than
        ``clients`` in flight once submissions stop) is why it is not 0.
        """
        if not self.latencies or self.failed or not self.clients:
            return 0.0
        in_flight = sum(self.latencies) / max(self.loop_end - self.begin, 1e-9)
        return abs(in_flight - self.clients) / self.clients


def closed_loop(
    system,
    streams: Sequence[Iterator],
    seconds: float,
    max_ops: Optional[int] = None,
) -> LoopResult:
    """Drive *system* with one client per stream for *seconds* (or *max_ops*)."""
    clients = len(streams)
    result = LoopResult(clients)
    outstanding: List[Optional[object]] = [None] * clients
    started = [0.0] * clients
    submitting = True
    give_up_at = float("inf")
    result.begin = time.perf_counter()
    stop_at = result.begin + seconds
    try:
        while True:
            now = time.perf_counter()
            if submitting and (
                now >= stop_at
                or (max_ops is not None and result.attempted >= max_ops)
            ):
                submitting = False
                give_up_at = now + OP_DEADLINE_S
            busy = 0
            for index in range(clients):
                ticket = outstanding[index]
                if ticket is not None and ticket.is_done:
                    if ticket.status is TicketStatus.COMMITTED:
                        result.latencies.append(now - started[index])
                        result.finished_at.append(now - result.begin)
                    else:
                        result.fail()
                    result.loop_end = now
                    ticket = outstanding[index] = None
                if (
                    ticket is None
                    and submitting
                    and (max_ops is None or result.attempted < max_ops)
                ):
                    operation = next(streams[index])
                    result.attempted += 1
                    started[index] = time.perf_counter()
                    try:
                        outstanding[index] = system.submit(index, operation)
                    except AdmissionError:
                        result.fail()  # refused at admission
                if outstanding[index] is not None:
                    busy += 1
            result.questions += system.answer_questions()
            if not submitting and not busy:
                break
            if now >= give_up_at:
                raise TimeoutError(
                    "{} operation(s) not terminal {}s after the window".format(
                        busy, OP_DEADLINE_S
                    )
                )
            system.advance()
        system.drain()
    except system.errors as error:
        # The system broke (dead peer, transport error, drain timeout): what
        # was still in flight is lost, and the run reports it instead of dying.
        result.error = repr(error)
        result.fail(sum(1 for ticket in outstanding if ticket is not None))
    result.end = time.perf_counter()
    if not result.loop_end:
        result.loop_end = result.end
    return result
