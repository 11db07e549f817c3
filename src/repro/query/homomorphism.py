"""Homomorphism search: matching conjunctions of atoms against a database view.

Satisfaction of the left- or right-hand side of a mapping is defined by the
existence of a homomorphism from the formula into the database (Section 2 of
the paper, following Fagin et al.).  The search itself — a depth-first join
over an explicit stack of candidate iterators, atoms matched most-bound-first,
each probed with every column it has bound — lives in
:class:`repro.query.compiled.CompiledConjunction`, which compiles a match plan
per ordering; this module keeps the historical ad-hoc entry points, which
compile the conjunction on the fly.  Hot callers (the chase, the violation
queries) hold a compiled plan instead and skip the per-call compilation.

:func:`find_homomorphism` maps one *database* into another on the same
executor, without recursion: each connected component of null-carrying facts
is a conjunction (nulls as variables) run to its first match, its atoms in
breadth-first order over shared nulls; ground facts are membership tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..core.atoms import Atom
from ..core.terms import DataTerm, LabeledNull, Variable
from ..core.tuples import Tuple
from ..storage.interface import DatabaseView
from .compiled import Assignment, CompiledConjunction, Match, first_match_in_order


def find_matches(
    atoms: Sequence[Atom],
    view: DatabaseView,
    assignment: Optional[Assignment] = None,
    limit: Optional[int] = None,
) -> List[Match]:
    """Find homomorphisms from the conjunction *atoms* into *view*.

    ``assignment`` seeds the search with pre-bound variables (for example the
    bindings obtained by matching a newly written tuple against one atom).
    ``limit`` stops the search after that many matches, which makes existence
    checks cheap.

    Returns a list of (assignment, witness-tuples) pairs.  The witness tuples
    are reported in the order of the *original* atom sequence, which is what
    the violation machinery expects when it builds witnesses.
    """
    return CompiledConjunction(atoms).find_matches(view, assignment, limit)


def exists_match(
    atoms: Sequence[Atom],
    view: DatabaseView,
    assignment: Optional[Assignment] = None,
) -> bool:
    """``True`` when at least one homomorphism extending *assignment* exists."""
    return CompiledConjunction(atoms).exists_match(view, assignment)


def formula_satisfied(
    lhs: Sequence[Atom],
    rhs: Sequence[Atom],
    view: DatabaseView,
) -> bool:
    """Check ``∀ x (LHS(x) → ∃ z RHS(x, z))`` over the view.

    This is tgd satisfaction: every homomorphism of the LHS must extend to a
    homomorphism of the RHS.
    """
    rhs_plan = CompiledConjunction(rhs)
    rhs_variables = rhs_plan.variable_set
    for assignment, _ in find_matches(lhs, view):
        exported = {
            variable: value
            for variable, value in assignment.items()
            if variable in rhs_variables
        }
        if not rhs_plan.exists_match(view, exported):
            return False
    return True


def find_homomorphism(
    source: DatabaseView, target: DatabaseView
) -> Optional[Dict[LabeledNull, DataTerm]]:
    """A mapping of *source*'s nulls to *target*'s terms embedding every fact.

    Constants map to themselves; a labeled null may map to any constant or
    null, consistently across its occurrences.  Returns the assignment, or
    ``None`` when no homomorphism exists.
    """
    carrying: List[Tuple] = []
    facts_of: Dict[LabeledNull, List[Tuple]] = {}
    for relation in source.relations():
        for row in source.tuples(relation):
            nulls = row.null_set()
            if not nulls:
                if not target.contains(row):
                    return None  # a ground fact must be present verbatim
                continue
            carrying.append(row)
            for null in nulls:
                facts_of.setdefault(null, []).append(row)
    # Each component starts from its fact with the fewest distinct nulls.
    carrying.sort(key=lambda row: len(row.null_set()))
    assignment: Dict[LabeledNull, DataTerm] = {}
    placed: Set[Tuple] = set()
    for start in carrying:
        if start in placed:
            continue
        placed.add(start)
        component = [start]
        for fact in component:  # grows while read: breadth-first
            for null in fact.nulls():
                for row in facts_of.pop(null, ()):
                    if row not in placed:
                        placed.add(row)
                        component.append(row)
        atoms = [
            Atom(row.relation, [
                Variable(value.name) if isinstance(value, LabeledNull) else value
                for value in row.values
            ])
            for row in component
        ]
        match = first_match_in_order(atoms, target)
        if match is None:
            return None
        for variable, value in match.items():
            assignment[LabeledNull(variable.name)] = value
    return assignment
