"""Relational atoms, the building blocks of mappings and conjunctive queries.

An atom is a relation name applied to a list of terms, e.g. ``T(n, c, c')``.
Atom terms are either mapping :class:`~repro.core.terms.Variable` objects or
:class:`~repro.core.terms.Constant` objects.  Atoms never contain labeled
nulls: nulls live only in the data.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple as PyTuple

from .terms import Constant, DataTerm, QueryTerm, Variable, is_constant, is_variable
from .tuples import Tuple


class AtomError(ValueError):
    """Raised when an atom is malformed (e.g. contains a labeled null)."""


class Atom:
    """A relational atom ``R(t1, ..., tk)`` over variables and constants."""

    __slots__ = ("_relation", "_terms", "_hash", "_constant_positions", "_variable_positions")

    def __init__(self, relation: str, terms: Iterable[object]):
        normalized: List[QueryTerm] = []
        for term in terms:
            if isinstance(term, (Variable, Constant)):
                normalized.append(term)
            elif isinstance(term, str) and term and term[0].islower():
                # Bare lowercase strings are treated as variables for
                # convenience when building atoms programmatically.
                normalized.append(Variable(term))
            else:
                normalized.append(Constant(term))
        self._relation = relation
        self._terms: PyTuple[QueryTerm, ...] = tuple(normalized)
        self._hash = hash((self._relation, self._terms))
        # Precompiled match structure: constant positions are checked before
        # any allocation (the common failure mode of a hot join candidate),
        # variable positions drive the binding loop.
        self._constant_positions: PyTuple[PyTuple[int, QueryTerm], ...] = tuple(
            (index, term)
            for index, term in enumerate(self._terms)
            if not isinstance(term, Variable)
        )
        self._variable_positions: PyTuple[PyTuple[int, Variable], ...] = tuple(
            (index, term)
            for index, term in enumerate(self._terms)
            if isinstance(term, Variable)
        )

    @property
    def relation(self) -> str:
        """Relation name."""
        return self._relation

    @property
    def terms(self) -> PyTuple[QueryTerm, ...]:
        """Atom terms in positional order."""
        return self._terms

    @property
    def arity(self) -> int:
        """Number of terms."""
        return len(self._terms)

    def __iter__(self) -> Iterator[QueryTerm]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self._relation == other._relation and self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rendered = ", ".join(str(term) for term in self._terms)
        return "{}({})".format(self._relation, rendered)

    def variables(self) -> PyTuple[Variable, ...]:
        """Variables of the atom, in positional order, with repeats."""
        return tuple(term for term in self._terms if is_variable(term))

    def variable_set(self) -> FrozenSet[Variable]:
        """Set of distinct variables."""
        return frozenset(term for term in self._terms if is_variable(term))

    def constants(self) -> PyTuple[Constant, ...]:
        """Constants of the atom, in positional order."""
        return tuple(term for term in self._terms if is_constant(term))

    # ------------------------------------------------------------------
    # Instantiation and matching
    # ------------------------------------------------------------------
    def instantiate(self, assignment: Dict[Variable, DataTerm]) -> Tuple:
        """Build the data tuple obtained by applying *assignment* to the atom.

        Every variable of the atom must be bound in *assignment*; constants
        pass through unchanged.
        """
        values: List[DataTerm] = []
        for term in self._terms:
            if is_variable(term):
                try:
                    values.append(assignment[term])
                except KeyError:
                    raise AtomError(
                        "assignment does not bind variable {} of atom {!r}".format(
                            term, self
                        )
                    ) from None
            else:
                values.append(term)
        return Tuple(self._relation, values)

    def match(
        self, row: Tuple, assignment: Optional[Dict[Variable, DataTerm]] = None
    ) -> Optional[Dict[Variable, DataTerm]]:
        """Try to match *row* against this atom, extending *assignment*.

        Matching binds each variable of the atom to the corresponding term of
        the row.  A constant in the atom must equal the corresponding row
        term exactly (labeled nulls do not match constants: the chase treats a
        null as a distinct, unknown value).  Repeated variables must bind to
        equal terms.

        Returns the extended assignment, or ``None`` when the row does not
        match.  The input assignment is never mutated.
        """
        values = row.values
        if row.relation != self._relation or len(values) != len(self._terms):
            return None
        # Constants first, before any allocation: a candidate failing on a
        # constant position costs nothing but the comparisons.
        for index, term in self._constant_positions:
            if term != values[index]:
                return None
        result: Dict[Variable, DataTerm] = dict(assignment) if assignment else {}
        for index, term in self._variable_positions:
            value = values[index]
            bound = result.get(term)
            if bound is None:
                result[term] = value
            elif bound != value:
                return None
        return result


def atoms_variables(atoms: Sequence[Atom]) -> FrozenSet[Variable]:
    """Union of the variable sets of *atoms*."""
    variables: set = set()
    for atom in atoms:
        variables.update(atom.variable_set())
    return frozenset(variables)


def atoms_relations(atoms: Sequence[Atom]) -> FrozenSet[str]:
    """Set of relation names mentioned by *atoms*."""
    return frozenset(atom.relation for atom in atoms)
