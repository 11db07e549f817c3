"""Plain conjunctive queries and tgd satisfaction over a database view.

These are the ``LHS query`` and ``RHS query`` building blocks of the violation
queries of Section 4.2.  The tests evaluate them through the in-memory match
search and through generated SQL on the SQLite oracle, and compare; and they
hold :func:`~repro.core.violations.satisfies_all` to the definition of tgd
satisfaction (:func:`formula_satisfied`).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Tuple as PyTuple

from repro.core.atoms import Atom, atoms_relations, atoms_variables
from repro.core.terms import DataTerm, Variable
from repro.query.base import ReadQuery
from repro.query.compiled import CompiledConjunction
from repro.query.homomorphism import Assignment, find_matches
from repro.storage.interface import DatabaseView

#: A query answer: the values of the answer variables, in order.
AnswerRow = PyTuple[DataTerm, ...]


class ConjunctiveQuery(ReadQuery):
    """``q(answer_vars) :- atom_1, ..., atom_n`` evaluated set-semantically."""

    kind = "conjunctive"

    def __init__(
        self,
        atoms: Sequence[Atom],
        answer_variables: Optional[Sequence[Variable]] = None,
        seed: Optional[Assignment] = None,
    ):
        if not atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        self._atoms: PyTuple[Atom, ...] = tuple(atoms)
        if answer_variables is None:
            answer_variables = sorted(atoms_variables(self._atoms), key=lambda v: v.name)
        self._answer_variables: PyTuple[Variable, ...] = tuple(answer_variables)
        body_variables = atoms_variables(self._atoms)
        for variable in self._answer_variables:
            if variable not in body_variables:
                raise ValueError(
                    "answer variable {} does not occur in the query body".format(variable)
                )
        self._seed: Assignment = dict(seed) if seed else {}

    @property
    def atoms(self) -> PyTuple[Atom, ...]:
        """Body atoms."""
        return self._atoms

    @property
    def answer_variables(self) -> PyTuple[Variable, ...]:
        """Head (answer) variables."""
        return self._answer_variables

    @property
    def seed(self) -> Assignment:
        """Pre-bound variables (bindings coming from a written tuple)."""
        return dict(self._seed)

    def relations(self) -> FrozenSet[str]:
        return atoms_relations(self._atoms)

    def evaluate(self, view: DatabaseView) -> FrozenSet[AnswerRow]:
        """All answer rows, as a frozenset (set semantics)."""
        answers = set()
        for assignment, _ in find_matches(self._atoms, view, self._seed):
            answers.add(tuple(assignment[v] for v in self._answer_variables))
        return frozenset(answers)

    def holds(self, view: DatabaseView) -> bool:
        """Existence check (useful for boolean queries)."""
        return bool(find_matches(self._atoms, view, self._seed, limit=1))

    def __repr__(self) -> str:
        head = ", ".join(str(v) for v in self._answer_variables)
        body = ", ".join(repr(atom) for atom in self._atoms)
        return "ConjunctiveQuery(({}) :- {})".format(head, body)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self._atoms == other._atoms
            and self._answer_variables == other._answer_variables
            and self._seed == other._seed
        )

    def __hash__(self) -> int:
        return hash(
            (self._atoms, self._answer_variables, frozenset(self._seed.items()))
        )


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
