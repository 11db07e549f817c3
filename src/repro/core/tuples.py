"""Tuples and the *more-specific-than* relation (Definition 2.4).

A :class:`Tuple` is an immutable row belonging to a named relation.  Its
fields are data terms: constants or labeled nulls.  The specificity relation
between tuples drives the forward chase's nondeterminism detection: when the
chase generates a tuple ``t`` and the target relation already contains a tuple
``t'`` that is *more specific* than ``t``, the chase stops and produces a
frontier tuple instead of inserting ``t`` (Section 2.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple as PyTuple

from .terms import Constant, DataTerm, LabeledNull, as_data_term, is_null


class Tuple:
    """An immutable tuple ``R(a1, ..., ak)`` of data terms.

    Tuples are value objects: two tuples are equal when they belong to the same
    relation and hold equal terms in every position.  The multiversion store
    additionally assigns tuple identifiers; those live in the storage layer,
    not here.
    """

    __slots__ = ("_relation", "_values", "_hash", "_null_set", "_repr")

    def __init__(self, relation: str, values: Iterable[object]):
        self._relation = relation
        self._values: PyTuple[DataTerm, ...] = tuple(as_data_term(v) for v in values)
        self._hash = hash((self._relation, self._values))
        #: Lazily computed by :meth:`null_set` — tuples are immutable and the
        #: set is consulted on every log append, content indexing and
        #: conflict pre-filter, so recomputing it per call was pure churn.
        self._null_set: Optional[frozenset] = None
        #: Lazily rendered by :meth:`__repr__`: the repair planner sorts
        #: every correction-query answer with ``key=repr``.
        self._repr: Optional[str] = None

    @property
    def relation(self) -> str:
        """Name of the relation this tuple belongs to."""
        return self._relation

    @property
    def values(self) -> PyTuple[DataTerm, ...]:
        """The tuple's terms, in schema order."""
        return self._values

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[DataTerm]:
        return iter(self._values)

    def __getitem__(self, index: int) -> DataTerm:
        return self._values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return self._relation == other._relation and self._values == other._values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cached = self._repr
        if cached is None:
            rendered = ", ".join(str(value) for value in self._values)
            cached = self._repr = "{}({})".format(self._relation, rendered)
        return cached

    # ------------------------------------------------------------------
    # Labeled-null helpers
    # ------------------------------------------------------------------
    def nulls(self) -> PyTuple[LabeledNull, ...]:
        """All labeled nulls occurring in this tuple, in positional order."""
        return tuple(value for value in self._values if is_null(value))

    def null_set(self) -> frozenset:
        """The set of distinct labeled nulls occurring in this tuple (cached)."""
        cached = self._null_set
        if cached is None:
            cached = frozenset(value for value in self._values if is_null(value))
            self._null_set = cached
        return cached

    def contains_null(self, null: LabeledNull) -> bool:
        """``True`` when *null* occurs in some field of this tuple."""
        return null in self._values

    # ------------------------------------------------------------------
    # Substitution
    # ------------------------------------------------------------------
    def substitute(self, mapping: Dict[LabeledNull, DataTerm]) -> "Tuple":
        """Return a copy with every labeled null replaced per *mapping*.

        Nulls absent from *mapping* are kept unchanged.  This implements the
        effect of a null-replacement or of a frontier unification on a single
        tuple; the storage layer applies it to every tuple containing the null.
        """
        new_values = [
            mapping.get(value, value) if is_null(value) else value
            for value in self._values
        ]
        return Tuple(self._relation, new_values)

    # ------------------------------------------------------------------
    # Specificity (Definition 2.4)
    # ------------------------------------------------------------------
    def specificity_map(self, other: "Tuple") -> Optional[Dict[DataTerm, DataTerm]]:
        """Return the witnessing map when ``self`` is more specific than *other*.

        Following Definition 2.4, ``t`` (self) is *more specific than* ``t'``
        (other) if the positional map ``f(a'_i) = a_i`` is a function and the
        identity on constants.  The returned dictionary maps each term of
        *other* to the term of ``self`` it is sent to; ``None`` is returned
        when no such map exists.

        Note that the relation is reflexive (every tuple is more specific than
        itself) and that it is only defined between tuples of the same relation
        and arity.
        """
        if self._relation != other._relation or len(self) != len(other):
            return None
        assignment: Dict[DataTerm, DataTerm] = {}
        for mine, theirs in zip(self._values, other._values):
            if isinstance(theirs, Constant):
                if mine != theirs:
                    return None
                assignment[theirs] = mine
                continue
            # ``theirs`` is a labeled null: it may map to any term, but
            # consistently across positions.
            bound = assignment.get(theirs)
            if bound is None:
                assignment[theirs] = mine
            elif bound != mine:
                return None
        return assignment

    def is_more_specific_than(self, other: "Tuple") -> bool:
        """``True`` when ``self`` is more specific than *other* (Def. 2.4)."""
        return self.specificity_map(other) is not None


def make_tuple(relation: str, *values: object) -> Tuple:
    """Convenience constructor: ``make_tuple('C', 'Ithaca')``."""
    return Tuple(relation, values)


def unification_assignment(
    general: Tuple, specific: Tuple
) -> Dict[LabeledNull, DataTerm]:
    """Compute the null substitution induced by unifying *general* with *specific*.

    This is the data-level content of the *unify* frontier operation
    (Section 2.2): a user states that the frontier tuple *general* refers to
    the same fact as the already stored, more specific tuple *specific*.  The
    resulting substitution maps each labeled null of *general* to the
    corresponding term of *specific* and must then be applied globally.

    Raises :class:`ValueError` when *specific* is not in fact more specific
    than *general*, or when the substitution would be inconsistent.
    """
    if not specific.is_more_specific_than(general):
        raise ValueError(
            "{!r} is not more specific than {!r}; cannot unify".format(
                specific, general
            )
        )
    assignment: Dict[LabeledNull, DataTerm] = {}
    for general_term, specific_term in zip(general.values, specific.values):
        if not is_null(general_term):
            continue
        bound = assignment.get(general_term)
        if bound is None:
            assignment[general_term] = specific_term
        elif bound != specific_term:
            raise ValueError(
                "inconsistent unification of {} against {!r}".format(
                    general_term, specific
                )
            )
    # Drop identity bindings: unifying a null with itself is a no-op.
    return {
        null: term for null, term in assignment.items() if null != term
    }
