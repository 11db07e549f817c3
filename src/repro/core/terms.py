"""Terms: the values that appear inside Youtopia tuples and mappings.

A Youtopia database contains *constants* and *labeled nulls* (also called
variables in the paper).  A labeled null such as ``x3`` stands for a value
that is known to exist but whose identity is not yet known; the same labeled
null may occur in several tuples, and replacing it (a *null-replacement*,
Section 2 of the paper) changes every occurrence consistently.

Mappings additionally use *mapping variables* on their left- and right-hand
sides; those are represented by :class:`Variable` and never appear inside a
stored tuple.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Union


@dataclass(frozen=True, order=True)
class Constant:
    """A concrete, known value such as ``'Ithaca'`` or ``42``.

    Constants compare equal when their payloads compare equal.  The payload is
    stored as-is; any hashable Python value is accepted, although the workload
    generators only produce strings and integers.
    """

    value: object

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return "Constant({!r})".format(self.value)

    @property
    def is_null(self) -> bool:
        """Constants are never labeled nulls."""
        return False


@dataclass(frozen=True, order=True)
class LabeledNull:
    """A labeled null (existential placeholder) such as ``x3``.

    Labeled nulls are identified by their name: two :class:`LabeledNull`
    objects with the same name denote the same unknown value, wherever they
    occur in the database.
    """

    name: str

    def __str__(self) -> str:
        return "#{}".format(self.name)

    def __repr__(self) -> str:
        return "LabeledNull({!r})".format(self.name)

    @property
    def is_null(self) -> bool:
        """Labeled nulls are, by definition, nulls."""
        return True


@dataclass(frozen=True, order=True)
class Variable:
    """A variable appearing in a mapping or query, never inside stored data."""

    name: str

    def __str__(self) -> str:
        return "?{}".format(self.name)

    def __repr__(self) -> str:
        return "Variable({!r})".format(self.name)

    @property
    def is_null(self) -> bool:
        """Mapping variables are not labeled nulls."""
        return False


#: A term that can appear inside a stored tuple.
DataTerm = Union[Constant, LabeledNull]

#: A term that can appear inside a mapping atom or query atom.
QueryTerm = Union[Constant, Variable]

#: Any term.
Term = Union[Constant, LabeledNull, Variable]


def is_constant(term: Term) -> bool:
    """Return ``True`` when *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


def is_null(term: Term) -> bool:
    """Return ``True`` when *term* is a :class:`LabeledNull`."""
    return isinstance(term, LabeledNull)


def is_variable(term: Term) -> bool:
    """Return ``True`` when *term* is a mapping/query :class:`Variable`."""
    return isinstance(term, Variable)


def as_data_term(value: object) -> DataTerm:
    """Coerce a raw Python value into a data term.

    Existing :class:`Constant` and :class:`LabeledNull` objects pass through
    unchanged; anything else is wrapped in a :class:`Constant`.  Passing a
    :class:`Variable` is an error because variables may not be stored.
    """
    if isinstance(value, (Constant, LabeledNull)):
        return value
    if isinstance(value, Variable):
        raise TypeError(
            "mapping variables cannot be stored in the database: {!r}".format(value)
        )
    return Constant(value)


class NullFactory:
    """Generates fresh labeled nulls with globally unique names.

    The chase needs fresh nulls when it fires a tgd whose right-hand side has
    existentially quantified variables (Example 1.1 in the paper: the review
    ``x3``).  A factory instance hands out names ``x1, x2, ...`` with an
    optional prefix so that nulls created by different chases are easy to tell
    apart when debugging.

    Freshness matters: a "fresh" null colliding with a null already present in
    the database would silently identify two unrelated unknowns.  Use
    :meth:`avoiding` to start numbering past whatever the database already
    contains.

    The factory is thread-safe: the optimistic scheduler may drive several
    chases whose steps interleave.
    """

    def __init__(self, prefix: str = "x", start: int = 1):
        self._prefix = prefix
        self._next = start
        self._lock = threading.Lock()

    @classmethod
    def avoiding(cls, existing_names: "Iterable[str]", prefix: str = "x") -> "NullFactory":
        """A factory whose names cannot collide with *existing_names*.

        Names of the form ``<prefix><integer>`` among *existing_names* push the
        starting index past their maximum; other names cannot collide with the
        generated pattern and are ignored.
        """
        highest = 0
        for name in existing_names:
            if name.startswith(prefix) and name[len(prefix):].isdigit():
                highest = max(highest, int(name[len(prefix):]))
        return cls(prefix=prefix, start=highest + 1)

    @classmethod
    def avoiding_view(cls, view: "object", prefix: str = "x") -> "NullFactory":
        """A factory avoiding every labeled null visible in *view*.

        *view* is any :class:`~repro.storage.interface.DatabaseView`; the
        import is kept out of this module to avoid a dependency cycle, so the
        parameter is duck-typed.
        """
        names = []
        for relation in view.relations():
            for row in view.tuples(relation):
                for null in row.null_set():
                    names.append(null.name)
        return cls.avoiding(names, prefix=prefix)

    def fresh(self) -> LabeledNull:
        """Return a labeled null that has never been returned before."""
        with self._lock:
            index = self._next
            self._next += 1
        return LabeledNull("{}{}".format(self._prefix, index))

    def fresh_many(self, count: int) -> list:
        """Return *count* distinct fresh labeled nulls."""
        return [self.fresh() for _ in range(count)]

    @property
    def prefix(self) -> str:
        """The prefix used for generated null names."""
        return self._prefix

    def state(self) -> "tuple":
        """The ``(prefix, next_index)`` pair a checkpoint persists.

        Restoring through :meth:`from_state` resumes the exact numbering, so
        nulls minted after a restart cannot collide with nulls this factory
        shipped elsewhere (in envelopes, or in another peer's store) before
        the checkpoint — which merely re-scanning the local store could not
        guarantee.
        """
        with self._lock:
            return (self._prefix, self._next)

    @classmethod
    def from_state(cls, state: "Iterable") -> "NullFactory":
        """Rebuild a factory from a persisted :meth:`state` pair."""
        prefix, next_index = state
        return cls(prefix=prefix, start=int(next_index))


#: Module-level default factory, convenient for examples and small tests.
DEFAULT_NULL_FACTORY = NullFactory()

