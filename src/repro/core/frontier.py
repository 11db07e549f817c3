"""Frontier tuples, frontier operations, and repair planning.

The Youtopia forward chase stops along a path when it generates a tuple ``t``
for which the target relation already contains a *more specific* tuple: the
system cannot know whether ``t`` is genuinely new or a duplicate of an
existing fact, so it sets ``t`` aside as a **positive frontier tuple** and
asks a human.  The human answers with a **frontier operation**:

* ``expand`` — ``t`` really is a new fact; insert it;
* ``unify`` — ``t`` refers to the same fact as a chosen more-specific tuple
  ``t'``; collapse them by substituting ``t``'s labeled nulls.

The backward chase has a symmetric notion: when several witness tuples could
be deleted to repair an RHS-violation, they become **negative frontier
tuples** and the human selects the subset to delete.

This module also plans the backward repair (:func:`plan_backward_repair`);
the forward repair, which keeps per-firing state, is planned by
:class:`~repro.core.planner.RepairPlanner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple as PyTuple, Union

from ..query.base import ReadQuery
from ..query.correction_query import NullOccurrenceQuery
from ..storage.interface import DatabaseView
from .terms import LabeledNull
from .tuples import Tuple, unification_assignment
from .violations import ReadRecorder, Violation
from .writes import Write, delete, insert, modify


class FrontierError(RuntimeError):
    """Raised when a frontier operation is malformed or no longer applicable."""


@dataclass(frozen=True)
class FrontierTuple:
    """A positive frontier tuple: generated but not inserted (Section 2.2)."""

    #: The generated tuple that was withheld from insertion.
    row: Tuple
    #: The violation whose repair generated it.
    violation: Violation
    #: Visible tuples more specific than ``row`` — the unification candidates.
    candidates: PyTuple[Tuple, ...]
    #: Labeled nulls freshly created for this firing (they occur nowhere else,
    #: so unification never needs occurrence queries for them).
    fresh_nulls: FrozenSet[LabeledNull] = frozenset()

    def __repr__(self) -> str:
        return "FrontierTuple({!r}, {} candidate(s))".format(
            self.row, len(self.candidates)
        )


# ----------------------------------------------------------------------
# Frontier operations (what a user / oracle answers with)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExpandOperation:
    """Positive frontier operation: insert the frontier tuple as a new fact."""

    frontier_tuple: FrontierTuple

    def describe(self) -> str:
        return "expand {!r}".format(self.frontier_tuple.row)


@dataclass(frozen=True)
class UnifyOperation:
    """Positive frontier operation: collapse the frontier tuple into *target*."""

    frontier_tuple: FrontierTuple
    target: Tuple

    def describe(self) -> str:
        return "unify {!r} with {!r}".format(self.frontier_tuple.row, self.target)


@dataclass(frozen=True)
class DeleteSubsetOperation:
    """Negative frontier operation: delete the chosen witness tuples."""

    rows: PyTuple[Tuple, ...]

    def describe(self) -> str:
        return "delete {}".format(", ".join(repr(row) for row in self.rows))


FrontierOperation = Union[ExpandOperation, UnifyOperation, DeleteSubsetOperation]


# ----------------------------------------------------------------------
# Repair plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeterministicRepair:
    """The violation can be repaired without human input: just perform writes."""

    violation: Violation
    writes: PyTuple[Write, ...]


@dataclass(frozen=True)
class PositiveFrontierRequest:
    """A forward-chase repair needs a human decision on these frontier tuples."""

    violation: Violation
    frontier_tuples: PyTuple[FrontierTuple, ...]

    def alternatives(self) -> List[FrontierOperation]:
        """Every frontier operation a user could legally answer with.

        Used by the random oracle, which (as in the paper's experiments)
        picks uniformly among all available alternatives.
        """
        options: List[FrontierOperation] = []
        for frontier_tuple in self.frontier_tuples:
            options.append(ExpandOperation(frontier_tuple))
            for candidate in frontier_tuple.candidates:
                options.append(UnifyOperation(frontier_tuple, candidate))
        return options

    def index_of(self, operation: FrontierOperation) -> Optional[int]:
        """Position of *operation* in :meth:`alternatives` (``None`` if absent)."""
        if not isinstance(operation, (ExpandOperation, UnifyOperation)):
            return None
        offset = 0
        for frontier_tuple in self.frontier_tuples:
            if operation.frontier_tuple == frontier_tuple:
                if isinstance(operation, ExpandOperation):
                    return offset
                try:
                    return offset + 1 + frontier_tuple.candidates.index(operation.target)
                except ValueError:
                    return None
            offset += 1 + len(frontier_tuple.candidates)
        return None


@dataclass(frozen=True)
class NegativeFrontierRequest:
    """A backward-chase repair needs a human choice of witness tuples to delete."""

    violation: Violation
    candidates: PyTuple[Tuple, ...]

    def alternatives(self) -> List[FrontierOperation]:
        """One deletion alternative per single witness tuple.

        Any non-empty subset would be legal; offering the singletons keeps the
        uniform-random simulation of Section 6 simple and unbiased.  Oracles
        are free to construct larger :class:`DeleteSubsetOperation` values.
        """
        return [DeleteSubsetOperation((row,)) for row in self.candidates]

    def index_of(self, operation: FrontierOperation) -> Optional[int]:
        """Position of *operation* in :meth:`alternatives` (``None`` if absent)."""
        if isinstance(operation, DeleteSubsetOperation) and len(operation.rows) == 1:
            try:
                return self.candidates.index(operation.rows[0])
            except ValueError:
                pass
        return None


FrontierRequest = Union[PositiveFrontierRequest, NegativeFrontierRequest]
RepairPlan = Union[DeterministicRepair, PositiveFrontierRequest, NegativeFrontierRequest]


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_backward_repair(
    violation: Violation,
    view: DatabaseView,
    recorder: Optional[ReadRecorder] = None,
) -> Union[DeterministicRepair, NegativeFrontierRequest, None]:
    """Plan the backward-chase repair of an RHS-violation.

    The witness tuples are the deletion candidates.  With a single candidate
    the repair is deterministic; with several the choice is deferred to a
    human (negative frontier).  No further reads are needed (Section 4.2:
    "In the case of RHS-violations, no further reads are performed").
    """
    if not violation.still_holds(view):
        return None
    candidates = tuple(row for row in violation.witness if view.contains(row))
    if not candidates:
        return None
    if len(candidates) == 1:
        return DeterministicRepair(
            violation=violation, writes=(delete(candidates[0]),)
        )
    return NegativeFrontierRequest(violation=violation, candidates=candidates)


# ----------------------------------------------------------------------
# Turning frontier operations into writes
# ----------------------------------------------------------------------
def writes_for_operation(
    operation: FrontierOperation,
    view: DatabaseView,
    recorder: Optional[ReadRecorder] = None,
) -> List[Write]:
    """Translate a frontier operation into the tuple-level writes it implies.

    * ``expand`` inserts the frontier tuple.
    * ``unify`` computes the null substitution against the chosen target and
      rewrites every visible tuple containing one of the substituted nulls
      (this is where the occurrence correction queries pay off).
    * ``delete`` deletes the chosen witness tuples.
    """
    if isinstance(operation, ExpandOperation):
        return [insert(operation.frontier_tuple.row)]
    if isinstance(operation, DeleteSubsetOperation):
        if not operation.rows:
            raise FrontierError("a negative frontier operation must delete something")
        return [delete(row) for row in operation.rows]
    if isinstance(operation, UnifyOperation):
        general = operation.frontier_tuple.row
        substitution = unification_assignment(general, operation.target)
        writes: List[Write] = []
        rewritten = set()
        for null, value in substitution.items():
            occurrence = NullOccurrenceQuery(null)
            affected = occurrence.evaluate(view)
            if recorder is not None:
                recorder(occurrence, affected)
            for row in affected:
                if row in rewritten:
                    continue
                rewritten.add(row)
                new_row = row.substitute(substitution)
                if new_row != row:
                    writes.append(modify(row, new_row, null, value))
        return writes
    raise FrontierError("unknown frontier operation {!r}".format(operation))
