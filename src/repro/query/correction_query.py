"""Correction queries: the reads needed to decide how to repair a violation.

Section 4.2 identifies two correction-query shapes for LHS-violations:

* *more-specific* queries — given a frontier tuple ``t`` of relation ``R``,
  find the tuples ``t' ∈ R`` that are more specific than ``t`` (these are the
  unification candidates, and their existence is what makes ``t`` a frontier
  tuple in the first place);
* *null-occurrence* queries — for a labeled null ``x`` that would disappear in
  a unification, find every tuple containing ``x`` (all of them must be
  updated when the unification is chosen).

Both have exact, database-free tests for "does this write change my answer?",
which the paper exploits when computing read dependencies (Section 5.1.1).
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, List, Tuple as PyTuple

from ..core.terms import Constant, LabeledNull
from ..core.tuples import Tuple
from ..core.writes import Write
from ..storage.interface import DatabaseView
from .base import ReadQuery


class MoreSpecificQuery(ReadQuery):
    """Find all visible tuples more specific than a pattern tuple."""

    kind = "more-specific"

    def __init__(self, pattern: Tuple):
        self._pattern = pattern
        # A more specific row repeats every constant of the pattern in place
        # (Definition 2.4), so it falls under the first one's key; a pattern
        # of nulls alone is watched relation-wide.
        for position, value in enumerate(pattern.values):
            if isinstance(value, Constant):
                self._watch_keys: PyTuple[Hashable, ...] = (
                    (pattern.relation, position, value),
                )
                break
        else:
            self._watch_keys = (pattern.relation,)

    @property
    def pattern(self) -> Tuple:
        """The (usually frontier) tuple the candidates must refine."""
        return self._pattern

    def relations(self) -> FrozenSet[str]:
        return frozenset({self._pattern.relation})

    def watch_keys(self) -> PyTuple[Hashable, ...]:
        return self._watch_keys

    def evaluate(self, view: DatabaseView) -> FrozenSet[Tuple]:
        return frozenset(view.more_specific_tuples(self._pattern))

    def might_be_affected_by(self, write: Write) -> bool:
        # Exact and database-free: the write changes the answer iff one of the
        # tuple values it adds or removes is itself more specific than the
        # pattern.  (Adding such a tuple adds an answer; removing one removes
        # an answer; nothing else can matter.)
        if write.relation != self._pattern.relation:
            return False
        return any(
            row.is_more_specific_than(self._pattern) for row in write.rows_touched()
        )

    def affected_by(self, write: Write, view: DatabaseView) -> bool:
        return self.might_be_affected_by(write)

    def __repr__(self) -> str:
        return "MoreSpecificQuery({!r})".format(self._pattern)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MoreSpecificQuery):
            return NotImplemented
        return self._pattern == other._pattern

    def __hash__(self) -> int:
        return hash(("more-specific", self._pattern))


class NullOccurrenceQuery(ReadQuery):
    """Find every visible tuple containing a given labeled null."""

    kind = "null-occurrence"

    def __init__(self, null: LabeledNull, relations: FrozenSet[str] = frozenset()):
        self._null = null
        # The set of all relation names is recorded only so that COARSE-style
        # relation-level reasoning has something to work with; the exact
        # affectedness test below does not need it.
        self._relations = relations

    @property
    def null(self) -> LabeledNull:
        """The labeled null whose occurrences are sought."""
        return self._null

    def relations(self) -> FrozenSet[str]:
        return self._relations

    def watch_keys(self) -> PyTuple[Hashable, ...]:
        return (self._null,)

    def evaluate(self, view: DatabaseView) -> FrozenSet[Tuple]:
        return frozenset(view.tuples_containing_null(self._null))

    def might_be_affected_by(self, write: Write) -> bool:
        # Exact and database-free (this is the paper's own example: "if a
        # correction query asks for all tuples containing variable x2, a write
        # changes the answer iff the tuple written contains x2").
        return any(row.contains_null(self._null) for row in write.rows_touched())

    def affected_by(self, write: Write, view: DatabaseView) -> bool:
        return self.might_be_affected_by(write)

    def __repr__(self) -> str:
        return "NullOccurrenceQuery({})".format(self._null)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NullOccurrenceQuery):
            return NotImplemented
        return self._null == other._null

    def __hash__(self) -> int:
        return hash(("null-occurrence", self._null))


def correction_queries_for_frontier_tuple(
    frontier_tuple: Tuple, view: DatabaseView
) -> List[ReadQuery]:
    """The correction queries the chase issues for one positive frontier tuple.

    First the more-specific query; then, if candidates exist, one
    null-occurrence query per labeled null of the frontier tuple (those are
    the nulls whose occurrences would have to be rewritten by a unification).
    """
    queries: List[ReadQuery] = [MoreSpecificQuery(frontier_tuple)]
    candidates = view.more_specific_tuples(frontier_tuple)
    if candidates:
        for null in sorted(frontier_tuple.null_set(), key=lambda n: n.name):
            queries.append(NullOccurrenceQuery(null))
    return queries
