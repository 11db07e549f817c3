"""Repair planning shared by the single-update and concurrent chase engines.

The planner owns the *firing state* of forward repairs: the RHS tuples a
violation's firing generated but that have not been inserted or unified away
yet.  Keeping this state across frontier operations is what makes tuples of
the same firing share their freshly generated nulls consistently (Section 2.2
of the paper), and it prevents the chase from re-generating new nulls every
time it revisits a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from ..query.compiled import get_plan
from ..query.correction_query import MoreSpecificQuery, NullOccurrenceQuery
from ..storage.interface import DatabaseView
from .frontier import (
    DeterministicRepair,
    FrontierRequest,
    FrontierTuple,
    PositiveFrontierRequest,
    RepairPlan,
    UnifyOperation,
    plan_backward_repair,
)
from .terms import LabeledNull, NullFactory
from .tuples import Tuple, unification_assignment
from .violations import ReadRecorder, Violation
from .writes import Write, insert


@dataclass
class FiringState:
    """Generated-but-unresolved RHS tuples of one forward firing."""

    rows: List[Tuple]
    fresh_nulls: frozenset

    def substitute(self, substitution: Dict[LabeledNull, object]) -> None:
        """Apply a null substitution to the pending rows in place."""
        self.rows = [row.substitute(substitution) for row in self.rows]


class RepairPlanner:
    """Plans violation repairs, remembering per-violation firing state."""

    def __init__(self, mappings: Sequence, null_factory: NullFactory):
        self._mappings = list(mappings)
        self._null_factory = null_factory
        self._firings: Dict[Violation, FiringState] = {}
        # ``still_holds`` memo, keyed to the view's change token.  One chase
        # step re-validates the same violations several times (queue refresh,
        # stale-firing sweep, deterministic planning, request building) with
        # no write in between; the memo collapses those to one evaluation.
        # ``still_holds`` is never recorded as a read, so memoizing it cannot
        # change read logs, tracker counters or conflict checks.
        self._holds_token: Optional[object] = None
        self._holds_memo: Dict[Violation, bool] = {}

    def _still_holds(self, violation: Violation, view: DatabaseView) -> bool:
        token = view.change_token()
        if token is None:
            return violation.still_holds(view)
        if token != self._holds_token:
            self._holds_token = token
            self._holds_memo.clear()
        verdict = self._holds_memo.get(violation)
        if verdict is None:
            verdict = violation.still_holds(view)
            self._holds_memo[violation] = verdict
        return verdict

    @property
    def mappings(self) -> List:
        """The mappings the planner repairs against."""
        return list(self._mappings)

    # ------------------------------------------------------------------
    # Queue maintenance
    # ------------------------------------------------------------------
    def refresh_queue(
        self,
        queue: List[Violation],
        new_violations: Sequence[Violation],
        view: DatabaseView,
    ) -> List[Violation]:
        """Drop satisfied violations, append new ones, keep FIFO order."""
        kept = [violation for violation in queue if self._still_holds(violation, view)]
        for stale in list(self._firings):
            if not self._still_holds(stale, view):
                del self._firings[stale]
        existing = set(kept)
        for violation in new_violations:
            if violation not in existing and self._still_holds(violation, view):
                kept.append(violation)
                existing.add(violation)
        return kept

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        violation: Violation,
        view: DatabaseView,
        recorder: Optional[ReadRecorder] = None,
    ) -> Optional[RepairPlan]:
        """Plan the repair of *violation* on *view* (``None`` when satisfied)."""
        if violation.is_rhs():
            return plan_backward_repair(violation, view, recorder)
        return self._plan_forward(violation, view, recorder)

    def _plan_forward(
        self,
        violation: Violation,
        view: DatabaseView,
        recorder: Optional[ReadRecorder],
    ) -> Optional[RepairPlan]:
        if not self._still_holds(violation, view):
            self._firings.pop(violation, None)
            return None
        state = self._firings.get(violation)
        if state is None:
            state = self._generate_firing(violation)
            self._firings[violation] = state
        missing = [row for row in state.rows if not view.contains(row)]
        if not missing:
            return None
        frontier_tuples: List[FrontierTuple] = []
        nondeterministic = False
        for row in missing:
            query = MoreSpecificQuery(row)
            candidates = tuple(sorted(query.evaluate(view), key=repr))
            if recorder is not None:
                recorder(query, frozenset(candidates))
            if candidates:
                nondeterministic = True
                for null in sorted(row.null_set() - state.fresh_nulls, key=lambda n: n.name):
                    occurrence = NullOccurrenceQuery(null)
                    answer = occurrence.evaluate(view)
                    if recorder is not None:
                        recorder(occurrence, answer)
            frontier_tuples.append(
                FrontierTuple(
                    row=row,
                    violation=violation,
                    candidates=candidates,
                    fresh_nulls=state.fresh_nulls & row.null_set(),
                )
            )
        if not nondeterministic:
            return DeterministicRepair(
                violation=violation,
                writes=tuple(insert(row) for row in missing),
            )
        return PositiveFrontierRequest(
            violation=violation, frontier_tuples=tuple(frontier_tuples)
        )

    def _generate_firing(self, violation: Violation) -> FiringState:
        plan = get_plan(violation.tgd)
        assignment = violation.exported_assignment()
        fresh: Dict = {}
        for variable in plan.sorted_existentials:
            fresh[variable] = self._null_factory.fresh()
        full_assignment = dict(assignment)
        full_assignment.update(fresh)
        rows = [atom.instantiate(full_assignment) for atom in violation.tgd.rhs]
        return FiringState(rows=rows, fresh_nulls=frozenset(fresh.values()))

    # ------------------------------------------------------------------
    # Step helpers
    # ------------------------------------------------------------------
    def next_deterministic_writes(
        self,
        queue: List[Violation],
        view: DatabaseView,
        recorder: Optional[ReadRecorder] = None,
    ) -> PyTuple[List[Write], List[Violation], int]:
        """Find the first deterministically repairable violation in *queue*.

        Returns ``(writes, remaining_queue, violations_examined)``; ``writes``
        is empty when no violation in the queue is deterministically
        repairable (Algorithm 1's "all v await frontier ops" condition).
        """
        remaining: List[Violation] = []
        examined = 0
        for index, violation in enumerate(queue):
            plan = self.plan(violation, view, recorder)
            examined += 1
            if plan is None:
                continue
            remaining.append(violation)
            if isinstance(plan, DeterministicRepair):
                remaining.extend(queue[index + 1:])
                return list(plan.writes), remaining, examined
        return [], remaining, examined

    def build_request(
        self,
        violation: Violation,
        view: DatabaseView,
        recorder: Optional[ReadRecorder] = None,
    ) -> Optional[FrontierRequest]:
        """The frontier request for *violation*, or ``None`` when not needed."""
        plan = self.plan(violation, view, recorder)
        if plan is None or isinstance(plan, DeterministicRepair):
            return None
        return plan

    def note_frontier_operation(self, operation) -> None:
        """Keep firing state consistent after a frontier operation.

        A unification substitutes labeled nulls globally; pending rows of
        *other* firings that share those nulls must be rewritten too.
        """
        if not isinstance(operation, UnifyOperation):
            return
        substitution = unification_assignment(
            operation.frontier_tuple.row, operation.target
        )
        if not substitution:
            return
        for state in self._firings.values():
            state.substitute(substitution)

    def reset(self) -> None:
        """Forget all firing state (used when an update aborts and restarts)."""
        self._firings.clear()
        self._holds_token = None
        self._holds_memo.clear()
