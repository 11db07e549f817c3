"""The recursive join ``CompiledConjunction.find_matches`` used to run.

A closure that calls itself, one candidate probe per atom with every column
the atom has bound.  The compiled match plans must return exactly what this
returns: the same assignments, witnesses and order, with and without a
``limit``.  Kept here as written, including the reference cycle its closure
makes on every call.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple as PyTuple

from repro.core.atoms import Atom
from repro.core.terms import DataTerm, is_variable
from repro.core.tuples import Tuple
from repro.query.compiled import Assignment, CompiledConjunction, Match
from repro.storage.interface import DatabaseView


def find_matches_recursive(
    conjunction: CompiledConjunction,
    view: DatabaseView,
    assignment: Optional[Assignment] = None,
    limit: Optional[int] = None,
) -> List[Match]:
    seed: Assignment = dict(assignment) if assignment else {}
    ordered = conjunction.ordering_for(frozenset(seed), view)
    atom_count = len(ordered)
    results: List[Match] = []

    def recurse(depth: int, current: Assignment, chosen: List[Tuple]) -> bool:
        if depth == atom_count:
            witness: List[Optional[Tuple]] = [None] * atom_count
            for (atom, position), row in zip(ordered, chosen):
                witness[position] = row
            results.append((dict(current), tuple(witness)))  # type: ignore[arg-type]
            return limit is not None and len(results) >= limit
        atom = ordered[depth][0]
        for row in _candidate_tuples(atom, current, view):
            extended = atom.match(row, current)
            if extended is None:
                continue
            chosen.append(row)
            if recurse(depth + 1, extended, chosen):
                return True
            chosen.pop()
        return False

    recurse(0, seed, [])
    return results


def _candidate_tuples(
    atom: Atom, assignment: Assignment, view: DatabaseView
) -> Iterable[Tuple]:
    """Tuples of the view that could match *atom* under *assignment*.

    One probe with every column the atom has bound — its constants and its
    already-assigned variables, in position order — so ``Atom.match`` only
    runs on rows that agree with all of them.
    """
    bound: List[PyTuple[int, DataTerm]] = []
    for position, term in enumerate(atom.terms):
        if is_variable(term):
            term = assignment.get(term)
            if term is None:
                continue
        bound.append((position, term))
    return view.tuples_matching(atom.relation, bound)
