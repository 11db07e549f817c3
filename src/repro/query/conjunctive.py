"""Plain conjunctive queries over a database view.

These are the ``LHS query`` and ``RHS query`` building blocks of the violation
queries of Section 4.2, and they are also exposed directly as a small query
facility for examples and for cross-checking the SQLite backend against the
in-memory evaluator.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple as PyTuple

from ..core.atoms import Atom, atoms_relations, atoms_variables
from ..core.terms import DataTerm, Variable
from ..storage.interface import DatabaseView
from .base import ReadQuery
from .homomorphism import Assignment, find_matches

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

    def is_boolean(self) -> bool:
        """``True`` when the query has no answer variables."""
        return not self._answer_variables

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
