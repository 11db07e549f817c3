"""User operations synthesized by the federation's exchange layer.

When a committed update at one peer affects a cross-peer mapping, the
federation does not reach into the remote store: it packages the effect as a
:class:`~repro.core.update.UserOperation` and submits it through the remote
peer's admission queue, exactly like a client would.  The remote peer's own
chase then takes over — including violations of *its* local mappings, abort
and restart under its optimistic scheduler, and frontier questions (routed
back to the originating peer by the network layer).

Two shapes exist, mirroring the two chase directions:

* :class:`RemoteFiringOperation` — the forward direction.  A cross-peer tgd's
  LHS matched at the source peer; the operation re-checks the RHS against the
  destination's *current* state (the match may have been satisfied by an
  earlier firing or a concurrent update while the envelope was in flight —
  the standard chase's "violation no longer holds" absorption) and inserts
  the instantiated head tuples only if it is still unsatisfied.
* :class:`RemoteRetractionOperation` — the backward direction.  A deletion at
  the RHS-owning peer destroyed the last RHS match for some exported
  assignment; every LHS match of that assignment at the source peer is now an
  RHS-violation.  The repair deletes the first witness tuple of each
  violating match — the same deterministic choice as
  :func:`~repro.workload.closed_loop.conservative_answer` makes at a negative
  frontier (``candidates[0]``), applied without a human because the witness
  choice cannot be routed during exchange.  Cascading local backward repairs
  (and their negative frontiers) still go through the peer's normal chase.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple as PyTuple

from ..core.terms import DataTerm, Variable
from ..core.tgd import Tgd
from ..core.tuples import Tuple
from ..core.update import UserOperation
from ..core.writes import Write, delete, insert
from ..query.compiled import get_plan
from ..storage.interface import DatabaseView


def _assignment_text(assignment: Dict[Variable, DataTerm]) -> str:
    return ", ".join(
        "{}={}".format(variable.name, value)
        for variable, value in sorted(assignment.items(), key=lambda item: item[0].name)
    )


class RemoteFiringOperation(UserOperation):
    """Fire a cross-peer mapping at the peer owning its head relations."""

    def __init__(
        self,
        tgd: Tgd,
        assignment: Dict[Variable, DataTerm],
        head_rows: Sequence[Tuple],
    ):
        self.tgd = tgd
        #: The exported (frontier-variable) assignment of the LHS match.
        self.assignment = dict(assignment)
        #: The RHS atoms instantiated at the source: exported variables bound,
        #: existentials already materialized as source-fresh labeled nulls.
        self.head_rows = tuple(head_rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RemoteFiringOperation):
            return NotImplemented
        return (
            self.tgd == other.tgd
            and self.assignment == other.assignment
            and self.head_rows == other.head_rows
        )

    def __hash__(self) -> int:
        return hash(("fire", self.tgd, frozenset(self.assignment.items()), self.head_rows))

    def initial_writes(self, view: DatabaseView) -> List[Write]:
        plan = get_plan(self.tgd)
        if plan.rhs.exists_match(view, self.assignment):
            # Satisfied while the envelope was in flight (an earlier firing,
            # a concurrent local update): the violation no longer holds, so
            # the chase absorbs it — no writes, immediate termination.
            return []
        return [insert(row) for row in self.head_rows if not view.contains(row)]

    def target_relations(self):
        return frozenset(row.relation for row in self.head_rows)

    def describe(self) -> str:
        return "fire {} [{}]".format(self.tgd.name, _assignment_text(self.assignment))


class RemoteRetractionOperation(UserOperation):
    """Repair cross-peer RHS-violations at the peer owning the LHS relations."""

    def __init__(self, tgd: Tgd, assignment: Dict[Variable, DataTerm]):
        self.tgd = tgd
        #: The exported assignment whose last RHS match was deleted remotely.
        self.assignment = dict(assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RemoteRetractionOperation):
            return NotImplemented
        return self.tgd == other.tgd and self.assignment == other.assignment

    def __hash__(self) -> int:
        return hash(("retract", self.tgd, frozenset(self.assignment.items())))

    def initial_writes(self, view: DatabaseView) -> List[Write]:
        plan = get_plan(self.tgd)
        writes: List[Write] = []
        chosen: Set[Tuple] = set()
        for _, witness in plan.lhs.find_matches(view, self.assignment):
            surviving: PyTuple[Tuple, ...] = tuple(
                row for row in witness if row not in chosen
            )
            if not surviving:
                continue  # an earlier chosen deletion already breaks this match
            target = surviving[0]
            chosen.add(target)
            writes.append(delete(target))
        return writes

    def target_relations(self):
        return get_plan(self.tgd).lhs_relations

    def describe(self) -> str:
        return "retract {} [{}]".format(self.tgd.name, _assignment_text(self.assignment))
