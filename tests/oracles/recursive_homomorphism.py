"""The recursive backtracker ``find_homomorphism`` used to run.

One Python frame per null-carrying fact, the remaining facts re-sorted at
every level (fewest unbound nulls first), candidates found by a linear scan
of the target relation.  :func:`repro.query.homomorphism.find_homomorphism`
must reach the same verdict on every pair of databases.  Kept here as
written; it needs a raised recursion limit beyond a few hundred facts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.terms import DataTerm, LabeledNull
from repro.core.tuples import Tuple
from repro.storage.interface import DatabaseView


def _facts(view: DatabaseView) -> List[Tuple]:
    facts: List[Tuple] = []
    for relation in view.relations():
        facts.extend(view.tuples(relation))
    return facts


def find_homomorphism_recursive(
    source: DatabaseView, target: DatabaseView
) -> Optional[Dict[LabeledNull, DataTerm]]:
    """A mapping of *source*'s nulls to *target*'s terms embedding every fact.

    Constants map to themselves; a labeled null may map to any constant or
    null, consistently across its occurrences.  Returns the assignment, or
    ``None`` when no homomorphism exists.  Backtracking search, facts with the
    fewest unresolved nulls first; ground facts reduce to set membership.
    """
    target_index: Dict[str, List[Tuple]] = {}
    target_sets: Dict[str, Set[Tuple]] = {}
    for relation in target.relations():
        rows = list(target.tuples(relation))
        target_index[relation] = rows
        target_sets[relation] = set(rows)

    pending: List[Tuple] = []
    for row in _facts(source):
        if row.null_set():
            pending.append(row)
        elif row not in target_sets.get(row.relation, ()):
            return None  # a ground fact must be present verbatim

    assignment: Dict[LabeledNull, DataTerm] = {}

    def image_or_none(row: Tuple) -> Optional[Tuple]:
        """The fully mapped image of *row*, or ``None`` if nulls are unbound."""
        values = []
        for value in row.values:
            if isinstance(value, LabeledNull):
                bound = assignment.get(value)
                if bound is None:
                    return None
                values.append(bound)
            else:
                values.append(value)
        return Tuple(row.relation, values)

    def candidates_for(row: Tuple) -> List[Tuple]:
        matches: List[Tuple] = []
        for candidate in target_index.get(row.relation, ()):
            consistent = True
            for position, value in enumerate(row.values):
                if isinstance(value, LabeledNull):
                    bound = assignment.get(value)
                    if bound is not None and candidate[position] != bound:
                        consistent = False
                        break
                elif candidate[position] != value:
                    consistent = False
                    break
            if consistent:
                matches.append(candidate)
        return matches

    def solve(remaining: List[Tuple]) -> bool:
        if not remaining:
            return True
        # Most-constrained first: fewest unbound nulls, then fewest candidates.
        def unbound_count(row: Tuple) -> int:
            return sum(1 for null in row.null_set() if null not in assignment)

        remaining.sort(key=unbound_count)
        row = remaining[0]
        rest = remaining[1:]
        mapped = image_or_none(row)
        if mapped is not None:
            if mapped in target_sets.get(mapped.relation, ()):
                return solve(rest)
            return False
        for candidate in candidates_for(row):
            newly_bound: List[LabeledNull] = []
            ok = True
            for position, value in enumerate(row.values):
                if isinstance(value, LabeledNull) and value not in assignment:
                    assignment[value] = candidate[position]
                    newly_bound.append(value)
                elif isinstance(value, LabeledNull):
                    if candidate[position] != assignment[value]:
                        ok = False
                        break
            if ok and solve(rest):
                return True
            for null in newly_bound:
                del assignment[null]
        return False

    if solve(pending):
        return dict(assignment)
    return None
