"""Violations and witnesses (Definitions 2.1 and 2.2) and their detection.

A violation of a mapping σ is an assignment of values to σ's free variables
such that the LHS is satisfied but the RHS is not; its *witness* is the set of
LHS tuples realizing the assignment.  Youtopia classifies violations by what
caused them:

* **LHS-violations** arise from insertions and null-replacements (the new or
  changed tuple is part of the witness) and are repaired by the forward chase;
* **RHS-violations** arise from deletions (the deleted tuple used to complete
  some RHS match) and are repaired by the backward chase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple as PyTuple

from ..query.base import ReadQuery
from ..query.compiled import CompiledMappings, compile_mappings, get_plan
from ..query.violation_query import (
    ViolationQuery,
    ViolationRow,
    violation_queries_for_write_row,
)
from ..storage.interface import DatabaseView
from .tgd import Tgd
from .terms import DataTerm, Variable
from .tuples import Tuple
from .writes import Write, WriteKind

#: Callback used to log read queries (and their answers) for concurrency control.
ReadRecorder = Callable[[ReadQuery, object], None]


class ViolationKind(enum.Enum):
    """How a violation arose, which determines the repairing chase variant."""

    LHS = "lhs"
    RHS = "rhs"


@dataclass(frozen=True)
class Violation:
    """A concrete violation of one mapping, with its witness."""

    tgd: Tgd
    bindings: FrozenSet[PyTuple[Variable, DataTerm]]
    witness: PyTuple[Tuple, ...]
    kind: ViolationKind

    @classmethod
    def from_row(cls, tgd: Tgd, row: ViolationRow, kind: ViolationKind) -> "Violation":
        """Build a violation from a violation-query answer row."""
        return cls(tgd=tgd, bindings=row.bindings, witness=row.witness, kind=kind)

    def assignment(self) -> Dict[Variable, DataTerm]:
        """The variable assignment as a dictionary."""
        return dict(self.bindings)

    def exported_assignment(self) -> Dict[Variable, DataTerm]:
        """The assignment restricted to the mapping's frontier variables."""
        frontier = get_plan(self.tgd).frontier_variables
        return {
            variable: value
            for variable, value in self.bindings
            if variable in frontier
        }

    def is_rhs(self) -> bool:
        """``True`` for RHS-violations (backward-chase repairs)."""
        return self.kind is ViolationKind.RHS

    def still_holds(self, view: DatabaseView) -> bool:
        """Re-check the violation against *view*.

        A violation disappears when some witness tuple is gone (the LHS match
        broke) or when the RHS has become satisfiable for its assignment —
        both can happen because of other repairs performed in the meantime,
        which is why the chase re-checks before repairing (Algorithm 2 removes
        queue entries "which will be repaired by W′").
        """
        for row in self.witness:
            if not view.contains(row):
                return False
        plan = get_plan(self.tgd)
        return not plan.rhs.exists_match(view, self.exported_assignment())

    def describe(self) -> str:
        """One-line description for logs and interactive oracles."""
        witness_text = ", ".join(repr(row) for row in self.witness)
        return "{} violation of {} witnessed by [{}]".format(
            self.kind.value.upper(), self.tgd.name, witness_text
        )

    def __repr__(self) -> str:
        return "Violation({})".format(self.describe())


# ----------------------------------------------------------------------
# Detection
# ----------------------------------------------------------------------
def find_all_violations(
    mappings: Iterable[Tgd], view: DatabaseView
) -> List[Violation]:
    """Exhaustively find every violation of every mapping in *view*.

    Used to verify that an initial database satisfies its mappings (the
    serializability definitions assume this) and by tests; the chase itself
    uses the incremental, write-seeded detection below.
    """
    violations: List[Violation] = []
    for tgd in mappings:
        query = ViolationQuery(tgd)
        for row in query.evaluate(view):
            violations.append(Violation.from_row(tgd, row, ViolationKind.LHS))
    return violations


def satisfies_all(mappings: Iterable[Tgd], view: DatabaseView) -> bool:
    """``True`` when *view* satisfies every mapping."""
    return not find_all_violations(mappings, view)


def violation_queries_for_write(
    write: Write, mappings: Sequence[Tgd]
) -> List[PyTuple[ViolationQuery, ViolationKind]]:
    """The violation queries a chase step must ask after performing *write*.

    * An insertion (or the new content of a modification) can only create
      LHS-violations of mappings whose LHS mentions the written relation.
    * A deletion can only create RHS-violations of mappings whose RHS mentions
      the written relation.
    * A modification that is part of a null-replacement cannot create
      RHS-violations (all occurrences of the null change consistently), so
      only its new content is considered, against LHS atoms.

    *mappings* may be a plain tgd sequence or a pre-built
    :class:`~repro.query.compiled.CompiledMappings`; either way the
    relation-keyed plan lookups replace the historical scan over every
    mapping (which re-derived each mapping's relation sets per write).
    """
    compiled = compile_mappings(mappings)
    queries: List[PyTuple[ViolationQuery, ViolationKind]] = []
    added = write.added_row()
    if added is not None:
        for plan in compiled.reading(added.relation):
            for query in violation_queries_for_write_row(plan.tgd, added, removed=False):
                queries.append((query, ViolationKind.LHS))
    if write.kind is WriteKind.DELETE:
        removed = write.removed_row()
        if removed is not None:
            for plan in compiled.writing(removed.relation):
                for query in violation_queries_for_write_row(plan.tgd, removed, removed=True):
                    queries.append((query, ViolationKind.RHS))
    return queries


def violations_for_write(
    write: Write,
    mappings: Sequence[Tgd],
    view: DatabaseView,
    recorder: Optional[ReadRecorder] = None,
) -> List[Violation]:
    """Detect the new violations caused by *write* on *view*.

    Every violation query asked along the way is reported through *recorder*
    (together with its answer) so that the concurrency-control layer can log
    the step's reads.
    """
    violations: List[Violation] = []
    seen = set()
    for query, kind in violation_queries_for_write(write, mappings):
        answer = query.evaluate(view)
        if recorder is not None:
            recorder(query, answer)
        for row in answer:
            violation = Violation.from_row(query.tgd, row, kind)
            key = (violation.tgd, violation.bindings, violation.kind)
            if key in seen:
                continue
            seen.add(key)
            violations.append(violation)
    return violations


def violations_for_writes(
    writes: Sequence[Write],
    mappings: Sequence[Tgd],
    view: DatabaseView,
    recorder: Optional[ReadRecorder] = None,
) -> List[Violation]:
    """Detect the new violations caused by a whole write set."""
    violations: List[Violation] = []
    seen = set()
    for write in writes:
        for violation in violations_for_write(write, mappings, view, recorder):
            key = (violation.tgd, violation.bindings, violation.kind)
            if key in seen:
                continue
            seen.add(key)
            violations.append(violation)
    return violations
