"""Test drivers: federated closed and open loops, and a service pump loop.

The closed loop (:class:`FederatedClosedLoopDriver`) is the multi-peer sibling
of :mod:`repro.workload.closed_loop`: each client belongs to one peer, keeps
at most one federated update outstanding (remote ones count as outstanding
until their owner reports the terminal status to the client desk), and
thinks for a configurable number of rounds between submissions.  Frontier
questions wait in their *originating* peer's federated inbox for
``answer_delay`` rounds before a client of that peer answers them — for a
question raised at a remote executing peer, the answer then travels back
over the transport like any other envelope.

The open loop (:class:`FederatedOpenLoopDriver`) submits *without waiting
for completions*: arrivals at each peer follow a seeded Poisson process (or
fixed-size batches on a fixed interval), which is what exercises admission
control — a closed loop self-paces and never builds the bursty queues where
compatible-group admission has headroom.  A submission a peer's admission
queue turns away waits there, first come, first served, so every arrival is
submitted on the round it arrives.

The benchmark's load generator is ``bench/loadgen.py``; these drivers run
the federation differentials and the service tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple as PyTuple, Union

from repro.core.frontier import FrontierOperation
from repro.core.update import UserOperation
from repro.federation.network import (
    FederatedNetwork,
    FederatedQuestion,
    FederatedTicket,
)
from repro.service import PumpReport, RepositoryService
from repro.workload.federated_loop import expanding_answer
from repro.workload.federation_gen import FederationEnvironment

#: ``strategy(question) -> answer`` over federated questions.
FederatedAnswerStrategy = Callable[[FederatedQuestion], Union[FrontierOperation, int]]


def all_operations(environment: FederationEnvironment) -> List[UserOperation]:
    """Every operation of *environment*, interleaved round-robin across peers.

    This is the canonical serial order the single-repository reference
    replays; for the terminating, insert-plus-free-delete scenarios the
    generator produces, any serial order chases to an equivalent result.
    """
    streams = [list(environment.operations[peer]) for peer in sorted(environment.operations)]
    merged: List[UserOperation] = []
    cursor = 0
    while any(streams):
        stream = streams[cursor % len(streams)]
        if stream:
            merged.append(stream.pop(0))
        cursor += 1
    return merged


def run_until_blocked(service: RepositoryService, max_pumps: int = 10_000) -> List[PumpReport]:
    """Pump *service* until it needs outside input (answers or submissions).

    Returns the reports of every pump performed.  On return, either all
    work is done or every remaining in-flight update is parked on an open
    inbox question.
    """
    reports: List[PumpReport] = []
    for _ in range(max_pumps):
        report = service.pump()
        reports.append(report)
        if service._queue.depth == 0 and service.scheduler.is_idle:
            break
        if not report.steps and not report.admitted:
            # No progress possible: every admission slot is held by a
            # parked update and only an answer can free one.
            break
    return reports


@dataclass
class FederatedClientSpec:
    """Static description of one closed-loop client at one peer."""

    peer: str
    name: str
    operations: List[UserOperation]
    think_time: int = 1


class _FederatedClient:
    def __init__(self, spec: FederatedClientSpec):
        self.spec = spec
        self._cursor = 0
        self._thinking = 0
        self.outstanding: Optional[FederatedTicket] = None

    @property
    def is_done(self) -> bool:
        return self.outstanding is None and self._cursor >= len(self.spec.operations)

    def tick(self, network: FederatedNetwork) -> Optional[FederatedTicket]:
        if self.outstanding is not None:
            if not self.outstanding.is_done:
                return None
            self.outstanding = None
            self._thinking = self.spec.think_time
        if self._cursor >= len(self.spec.operations):
            return None
        if self._thinking > 0:
            self._thinking -= 1
            return None
        operation = self.spec.operations[self._cursor]
        self._cursor += 1
        self.outstanding = network.submit(self.spec.peer, operation)
        return self.outstanding


@dataclass
class FederatedDriverReport:
    """Outcome of one federated closed-loop run."""

    rounds: int = 0
    submitted: int = 0
    answered: int = 0
    all_done: bool = False
    drained: bool = False
    #: Question waits in rounds (asked round -> answered round), per answer.
    question_wait_rounds: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class ArrivalProcess:
    """How open-loop submissions arrive at each peer, per federation round.

    * ``kind="poisson"`` — every round, every peer draws
      ``k ~ Poisson(rate)`` and submits its next *k* operations (Knuth's
      product-of-uniforms sampler over a seeded RNG, so runs reproduce).
    * ``kind="batch"`` — every ``interval`` rounds, every peer submits a
      burst of ``batch_size`` operations at once (the worst case for
      admission, and the shape where compatible-group admission shows).
    """

    kind: str = "poisson"
    #: Mean arrivals per round per peer (Poisson mode).
    rate: float = 1.0
    #: Burst size (batch mode).
    batch_size: int = 4
    #: Rounds between bursts (batch mode).
    interval: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "batch"):
            raise ValueError("arrival kind must be 'poisson' or 'batch'")
        if self.rate < 0:
            raise ValueError("the Poisson rate cannot be negative")
        if self.batch_size < 1 or self.interval < 1:
            raise ValueError("batch arrivals need batch_size >= 1 and interval >= 1")

    def draw(self, rng: random.Random, round_number: int) -> int:
        """Arrivals for one peer on one round."""
        if self.kind == "batch":
            # Bursts on rounds 1, 1+interval, 1+2*interval, ...; the modulo
            # is taken on (round - 1) so interval=1 means "every round".
            return self.batch_size if (round_number - 1) % self.interval == 0 else 0
        # Knuth: count multiplications of uniforms until the product drops
        # below e^-rate.  Exact for the modest per-round rates used here.
        threshold = math.exp(-self.rate)
        count = 0
        product = rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count


@dataclass
class FederatedOpenLoopReport:
    """Outcome of one federated open-loop run."""

    rounds: int = 0
    submitted: int = 0
    answered: int = 0
    #: Deepest admission queue observed at any peer during the run.
    max_queue_depth: int = 0
    all_submitted: bool = False
    drained: bool = False


class _QuestionLoop:
    """The round both federated drivers run: pump, answer the questions that
    waited ``answer_delay`` rounds in their peer's inbox, pump again."""

    def __init__(
        self,
        network: FederatedNetwork,
        answer_delay: int,
        answer_strategy: FederatedAnswerStrategy,
    ):
        self.network = network
        self.answer_delay = answer_delay
        self.answer_strategy = answer_strategy
        #: (inbox peer, question key) -> the round the question was first seen.
        self._asked_round: Dict[PyTuple[str, PyTuple[str, int]], int] = {}

    def _refresh_questions(self, round_number: int) -> None:
        open_keys = set()
        for peer_name in self.network.peer_names():
            for question in self.network.inbox(peer_name):
                key = (peer_name, question.key)
                open_keys.add(key)
                self._asked_round.setdefault(key, round_number)
        for key in list(self._asked_round):
            if key not in open_keys:
                del self._asked_round[key]

    def _answer_due(self, round_number: int) -> List[int]:
        """Answer every question that waited long enough; returns the waits."""
        waits: List[int] = []
        for peer_name in self.network.peer_names():
            for question in self.network.inbox(peer_name):
                key = (peer_name, question.key)
                asked = self._asked_round.get(key, round_number)
                if round_number - asked < self.answer_delay:
                    continue
                self.network.answer(
                    peer_name, question, self.answer_strategy(question)
                )
                waits.append(round_number - asked)
                self._asked_round.pop(key, None)
        return waits

    def _exchange_round(self, round_number: int) -> List[int]:
        """One driver round after submissions; returns the answered waits."""
        self.network.pump()
        self._refresh_questions(round_number)
        waits = self._answer_due(round_number)
        self.network.pump()
        self._refresh_questions(round_number)
        return waits


class FederatedOpenLoopDriver(_QuestionLoop):
    """Submits per-peer operation streams on an open-loop arrival process."""

    def __init__(
        self,
        network: FederatedNetwork,
        operations: Dict[str, Sequence[UserOperation]],
        arrivals: ArrivalProcess,
        answer_delay: int = 1,
        answer_strategy: FederatedAnswerStrategy = expanding_answer,
    ):
        super().__init__(network, answer_delay, answer_strategy)
        self.arrivals = arrivals
        self._streams: Dict[str, List[UserOperation]] = {
            peer: list(stream) for peer, stream in operations.items()
        }
        self._rng = random.Random(arrivals.seed)

    def _submit_arrivals(
        self, round_number: int, report: FederatedOpenLoopReport
    ) -> None:
        for peer in self.network.peer_names():
            stream = self._streams.get(peer)
            if not stream:
                continue
            due = min(self.arrivals.draw(self._rng, round_number), len(stream))
            for operation in stream[:due]:
                self.network.submit(peer, operation)
            del stream[:due]
            report.submitted += due

    def _observe_queues(self, report: FederatedOpenLoopReport) -> None:
        for peer in self.network.peers():
            report.max_queue_depth = max(
                report.max_queue_depth, peer.service._queue.depth
            )

    def run(self, max_rounds: int = 10_000) -> FederatedOpenLoopReport:
        """Run until every stream is submitted *and* the federation drained."""
        report = FederatedOpenLoopReport()
        for round_number in range(1, max_rounds + 1):
            report.rounds = round_number
            self._submit_arrivals(round_number, report)
            self._observe_queues(report)
            report.answered += len(self._exchange_round(round_number))
            if not any(self._streams.values()):
                report.all_submitted = True
                if self.network.quiescent():
                    report.drained = True
                    break
        return report


class FederatedClosedLoopDriver(_QuestionLoop):
    """Drives a :class:`FederatedNetwork` with think-time clients per peer."""

    def __init__(
        self,
        network: FederatedNetwork,
        specs: Sequence[FederatedClientSpec],
        answer_delay: int = 1,
        answer_strategy: FederatedAnswerStrategy = expanding_answer,
    ):
        super().__init__(network, answer_delay, answer_strategy)
        self.clients = [_FederatedClient(spec) for spec in specs]

    def run(self, max_rounds: int = 10_000) -> FederatedDriverReport:
        """Run until every client finished *and* the federation drained."""
        report = FederatedDriverReport()
        for round_number in range(1, max_rounds + 1):
            report.rounds = round_number
            for client in self.clients:
                if client.tick(self.network) is not None:
                    report.submitted += 1
            waits = self._exchange_round(round_number)
            report.answered += len(waits)
            report.question_wait_rounds.extend(waits)
            if all(client.is_done for client in self.clients):
                report.all_done = True
                if self.network.quiescent():
                    report.drained = True
                    break
        return report
