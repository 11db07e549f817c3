"""Frontier oracles: the stand-ins for the humans in the cooperative chase.

Youtopia is designed around human intervention: when a chase reaches a
frontier it blocks until a user performs a frontier operation.  The paper's
experiments simulate the user by "choosing an option uniformly at random among
all available alternatives" (Section 6); this module provides that simulation
plus deterministic variants useful for examples and tests:

* :class:`RandomOracle` — the paper's simulated user (seeded for
  reproducibility);
* :class:`AlwaysExpandOracle` / :class:`AlwaysUnifyOracle` — fixed policies;
* :class:`ScriptedOracle` — replays a prepared list of decisions;
* :class:`CallbackOracle` — delegates to an arbitrary function;
* :class:`InteractiveOracle` — prompts a human on stdin;
* :class:`DeferredOracle` — answers *asynchronously*: ``decide`` never returns
  an operation but registers a :class:`PendingDecision` and raises
  :class:`FrontierPending`, parking the asking update until somebody posts an
  answer (the service layer's frontier inbox is built on this).
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..storage.interface import DatabaseView
from .frontier import (
    DeleteSubsetOperation,
    ExpandOperation,
    FrontierOperation,
    FrontierRequest,
    NegativeFrontierRequest,
    PositiveFrontierRequest,
    UnifyOperation,
)


class OracleError(RuntimeError):
    """Raised when an oracle cannot produce a decision."""


class FrontierOracle(ABC):
    """Something that can answer frontier requests (a user, or a simulation)."""

    @abstractmethod
    def decide(
        self, request: FrontierRequest, view: DatabaseView
    ) -> FrontierOperation:
        """Return the frontier operation to perform for *request*."""

    def cancel(self, decision_id: int) -> None:
        """Withdraw an asynchronous decision whose asking update aborted.

        A no-op for synchronous oracles (they never leave decisions open);
        :class:`DeferredOracle` overrides it, so executions can always cancel
        through whatever oracle they hold.
        """

    def reset(self) -> None:
        """Reset any internal state (between experiment runs)."""


class RandomOracle(FrontierOracle):
    """Uniform random choice among all available alternatives (Section 6).

    Because a unification (rather than an expansion) is chosen with non-zero
    probability on every positive frontier, all chases terminate with
    probability one even when the mappings have cycles — the property the
    paper relies on for its experiments.
    """

    def __init__(self, seed: Optional[int] = None, rng: Optional[random.Random] = None):
        if rng is not None:
            self._rng = rng
        else:
            self._rng = random.Random(seed)
        self._seed = seed

    def decide(
        self, request: FrontierRequest, view: DatabaseView
    ) -> FrontierOperation:
        alternatives = request.alternatives()
        if not alternatives:
            raise OracleError("frontier request offers no alternatives: {!r}".format(request))
        return self._rng.choice(alternatives)

    def reset(self) -> None:
        if self._seed is not None:
            self._rng = random.Random(self._seed)


class AlwaysExpandOracle(FrontierOracle):
    """Always expand positive frontier tuples; delete the first candidate otherwise.

    Useful to exhibit the controlled non-termination of cyclic mappings (the
    genealogy example keeps producing new ancestors for as long as the oracle
    keeps expanding).
    """

    def decide(
        self, request: FrontierRequest, view: DatabaseView
    ) -> FrontierOperation:
        if isinstance(request, PositiveFrontierRequest):
            return ExpandOperation(request.frontier_tuples[0])
        return DeleteSubsetOperation((request.candidates[0],))


class AlwaysUnifyOracle(FrontierOracle):
    """Prefer unification with the first candidate; expand only when forced.

    This is the most "conservative" user: it never grows the database at a
    frontier, so every forward chase terminates quickly.
    """

    def decide(
        self, request: FrontierRequest, view: DatabaseView
    ) -> FrontierOperation:
        if isinstance(request, NegativeFrontierRequest):
            return DeleteSubsetOperation((request.candidates[0],))
        for frontier_tuple in request.frontier_tuples:
            if frontier_tuple.candidates:
                return UnifyOperation(frontier_tuple, frontier_tuple.candidates[0])
        return ExpandOperation(request.frontier_tuples[0])


class ScriptedOracle(FrontierOracle):
    """Replay a fixed sequence of frontier operations.

    Each scripted entry may be a ready-made :class:`FrontierOperation` or a
    callable ``request, view -> FrontierOperation``; the latter is convenient
    when the exact frontier tuple objects are not known up front.
    """

    def __init__(
        self,
        script: Sequence[
            Union[FrontierOperation, Callable[[FrontierRequest, DatabaseView], FrontierOperation]]
        ],
    ):
        self._script = list(script)
        self._position = 0

    def decide(
        self, request: FrontierRequest, view: DatabaseView
    ) -> FrontierOperation:
        if self._position >= len(self._script):
            raise OracleError(
                "scripted oracle exhausted after {} decisions".format(len(self._script))
            )
        entry = self._script[self._position]
        self._position += 1
        if callable(entry) and not isinstance(
            entry, (ExpandOperation, UnifyOperation, DeleteSubsetOperation)
        ):
            return entry(request, view)
        return entry

    def reset(self) -> None:
        self._position = 0


class CallbackOracle(FrontierOracle):
    """Delegate every decision to a user-supplied function."""

    def __init__(
        self, callback: Callable[[FrontierRequest, DatabaseView], FrontierOperation]
    ):
        self._callback = callback

    def decide(
        self, request: FrontierRequest, view: DatabaseView
    ) -> FrontierOperation:
        return self._callback(request, view)


class InteractiveOracle(FrontierOracle):
    """Prompt a human on standard input (for the interactive example only)."""

    def __init__(self, input_function: Callable[[str], str] = input, echo: Callable[[str], None] = print):
        self._input = input_function
        self._echo = echo

    def decide(
        self, request: FrontierRequest, view: DatabaseView
    ) -> FrontierOperation:
        alternatives = request.alternatives()
        self._echo("Frontier reached for {}:".format(request.violation.describe()))
        for index, alternative in enumerate(alternatives):
            self._echo("  [{}] {}".format(index, alternative.describe()))
        while True:
            answer = self._input("choose an option number: ").strip()
            if answer.isdigit() and int(answer) < len(alternatives):
                return alternatives[int(answer)]
            self._echo("please enter a number between 0 and {}".format(len(alternatives) - 1))


@dataclass
class PendingDecision:
    """A frontier question that has been asked but not yet answered.

    The decision is *answered* when a client posts a frontier operation for it
    and *cancelled* when the asking update was aborted (its restart will ask a
    fresh question).  A decision can be answered at most once; answering a
    cancelled or already-answered decision is an :class:`OracleError`.
    """

    decision_id: int
    request: "FrontierRequest"
    answer: Optional[FrontierOperation] = None
    answered: bool = False
    cancelled: bool = False

    def alternatives(self) -> List[FrontierOperation]:
        """The legal answers, in the order clients may index them."""
        return self.request.alternatives()


class FrontierPending(RuntimeError):
    """Raised by :class:`DeferredOracle` when a decision has no answer yet.

    Carries the registered :class:`PendingDecision` so the execution layer can
    park the update and the service layer can route the question to a client.
    """

    def __init__(self, decision: PendingDecision):
        super().__init__(
            "frontier decision #{} is pending a human answer".format(
                decision.decision_id
            )
        )
        self.decision = decision


class DeferredOracle(FrontierOracle):
    """An oracle that never answers synchronously: the asynchronous inbox core.

    ``decide`` registers the request as a :class:`PendingDecision` and raises
    :class:`FrontierPending`; the asking update is parked in
    ``WAITING_FRONTIER`` by its :class:`~repro.concurrency.execution.UpdateExecution`.
    Later, a client answers via :meth:`post` (with a ready frontier operation
    or an index into the request's alternatives) and the update is resumed
    with that operation — ``decide`` itself is never retried.
    """

    def __init__(self, start: int = 1) -> None:
        #: Open decisions only; closed ones are dropped so a long-running
        #: service does not retain every request ever asked.
        self._decisions: Dict[int, PendingDecision] = {}
        #: Ids of cancelled decisions.  Issued ids are monotonic, so a missing
        #: id below the counter was closed — this set only disambiguates
        #: "cancelled" from "already answered" in errors, and it grows only
        #: with aborts of parked updates, not with every decision served.
        self._cancelled_ids: set = set()
        #: *start* lets a restored service resume numbering past everything a
        #: checkpointed predecessor issued, so question-routing envelopes
        #: still in flight can never collide with fresh decisions.
        self._issued = start - 1
        self._counter = itertools.count(start)

    @property
    def next_decision_id(self) -> int:
        """The id the next :meth:`decide` will issue (checkpointed by services)."""
        return self._issued + 1

    def decide(
        self, request: FrontierRequest, view: DatabaseView
    ) -> FrontierOperation:
        decision = PendingDecision(decision_id=next(self._counter), request=request)
        self._issued = decision.decision_id
        self._decisions[decision.decision_id] = decision
        raise FrontierPending(decision)

    # ------------------------------------------------------------------
    # The asynchronous half
    # ------------------------------------------------------------------
    def get(self, decision_id: int) -> PendingDecision:
        """Look an *open* decision up; closed or unknown ids are an :class:`OracleError`."""
        decision = self._decisions.get(decision_id)
        if decision is None:
            self._raise_closed_or_unknown(decision_id)
        return decision

    def _raise_closed_or_unknown(self, decision_id: int) -> None:
        if decision_id in self._cancelled_ids:
            raise OracleError(
                "frontier decision #{} was cancelled (its update aborted)".format(decision_id)
            )
        if 0 < decision_id <= self._issued:
            raise OracleError(
                "frontier decision #{} was already answered".format(decision_id)
            )
        raise OracleError("unknown frontier decision #{}".format(decision_id))

    def pending(self) -> List[PendingDecision]:
        """Every decision still awaiting an answer, oldest first."""
        return [self._decisions[decision_id] for decision_id in sorted(self._decisions)]

    def post(
        self, decision_id: int, answer: Union[FrontierOperation, int]
    ) -> PendingDecision:
        """Answer a pending decision.

        *answer* is a ready :class:`FrontierOperation` or an index into the
        request's :meth:`~PositiveFrontierRequest.alternatives`.  Posting to a
        cancelled decision, answering twice, indexing out of range, or
        supplying an operation that does not answer *this* request raises
        :class:`OracleError`; the first valid answer wins.
        """
        decision = self.get(decision_id)
        if isinstance(answer, int):
            alternatives = decision.alternatives()
            if not 0 <= answer < len(alternatives):
                raise OracleError(
                    "decision #{} has {} alternatives; got index {}".format(
                        decision_id, len(alternatives), answer
                    )
                )
            answer = alternatives[answer]
        else:
            self._validate_answer(decision, answer)
        decision.answer = answer
        decision.answered = True
        del self._decisions[decision_id]
        return decision

    @staticmethod
    def _validate_answer(
        decision: PendingDecision, answer: FrontierOperation
    ) -> None:
        """Reject operations built for a *different* question.

        Without this, one wrong ``decision_id`` in a client would resume a
        parked update with writes meant for another repair.  Negative
        requests additionally allow any non-empty subset of their candidates
        (the singleton alternatives are just the uniform-simulation menu).
        """
        request = decision.request
        if isinstance(request, NegativeFrontierRequest):
            if (
                isinstance(answer, DeleteSubsetOperation)
                and answer.rows
                and set(answer.rows) <= set(request.candidates)
            ):
                return
        elif answer in request.alternatives():
            return
        raise OracleError(
            "operation {!r} does not answer frontier decision #{}".format(
                answer, decision.decision_id
            )
        )

    def cancel(self, decision_id: int) -> None:
        """Cancel a decision (idempotent; used when the asking update aborts)."""
        decision = self._decisions.pop(decision_id, None)
        if decision is not None:
            decision.cancelled = True
            self._cancelled_ids.add(decision_id)

    def reset(self) -> None:
        self._decisions.clear()
        self._cancelled_ids.clear()
        self._issued = 0
        self._counter = itertools.count(1)
