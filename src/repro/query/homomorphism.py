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
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.atoms import Atom
from ..storage.interface import DatabaseView
from .compiled import Assignment, CompiledConjunction, Match


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
