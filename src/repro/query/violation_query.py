"""Violation queries: ``SELECT * FROM (LHS query) WHERE NOT EXISTS (RHS query)``.

A chase step that has just performed a write asks one violation query per
potentially affected mapping (Section 4.2, Example 4.1).  The query is seeded
with the bindings obtained by matching the written tuple against one atom of
the mapping, so its answer contains exactly the witnesses of the new
violations this write is involved in.

Evaluation goes through the mapping's :class:`~repro.query.compiled.CompiledTgd`
plan (memoized per mapping), and the delta test behind
:meth:`ViolationQuery.affected_by` is *seeded* as well: instead of evaluating
the full query on the view and on the view-without-the-write and comparing,
it enumerates only the answer rows that could involve the written tuple —
witnesses using it on the LHS, and LHS matches whose ``NOT EXISTS`` flips
because the RHS gained or lost a match through it.  The verdict is exactly
the one full double evaluation would produce (the two views differ by at most
one added and one removed tuple *value*, and every differing answer row must
involve one of them); only the cost changes, which is what the PRECISE
tracker and the conflict checker need from their hottest call.

Most writes are decided before any of that, with no view at all.  Every one
of those answer rows unifies the written row with an atom of the mapping
*consistently with the query's seed*: an LHS atom matched under the seed, or
an RHS atom whose frontier bindings merge with it.  What that takes of a row
is fixed the day the query is built — the atom's constants, the seed's values
at the positions of the variables it binds, equal values where an unbound
variable repeats.  That conjunction is a :class:`JoinTest`, one per atom, and
:meth:`ViolationQuery.affected_by` drops a written row no test of its
relation admits before ``contains``, the overlay or any join.  Nothing is
approximated: a test admits a row exactly when ``Atom.match`` under the seed
would, so the rows dropped are the ones for which every loop below would have
found no atom to start from (99 % of the calls on the Section 6 workload).

One bound pair of each test is the query's *watch key* under that atom
(:meth:`ViolationQuery.watch_keys`): the read log files the query there and
the trackers look writers up there, so a write comes to meet only the reads
whose seed it can join.  Keys are compiled when a log first files the query
and tests for the few queries a write then reaches; an update that runs with
nobody else in flight pays for neither.
:meth:`~repro.query.base.ReadQuery.might_be_affected_by` keeps its
relation-overlap meaning — the Figure 3/4 cost model charges by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple as PyTuple

from ..core.terms import DataTerm, Variable
from ..core.tgd import Tgd
from ..core.tuples import Tuple
from ..core.writes import Write
from ..storage.interface import DatabaseView
from ..storage.overlay import view_without_write
from .base import ReadQuery
from .compiled import AtomShape, CompiledTgd, get_plan
from .homomorphism import Assignment


@dataclass(frozen=True)
class ViolationRow:
    """One answer row of a violation query.

    ``bindings`` is the (hashable) assignment of the mapping's LHS variables
    and ``witness`` the LHS tuples matched — the violation's witness in the
    sense of Definition 2.2.
    """

    bindings: FrozenSet[PyTuple[Variable, DataTerm]]
    witness: PyTuple[Tuple, ...]

    def assignment(self) -> Dict[Variable, DataTerm]:
        """The bindings as a dictionary."""
        return dict(self.bindings)


def _merge_bindings(
    base: Assignment, extra: Assignment
) -> Optional[Assignment]:
    """Merge two assignments; ``None`` on conflicting bindings."""
    merged = dict(base)
    for variable, value in extra.items():
        bound = merged.get(variable)
        if bound is None:
            merged[variable] = value
        elif bound != value:
            return None
    return merged


def _bound_pairs(
    shape: AtomShape, seed: Assignment
) -> PyTuple[PyTuple[int, DataTerm], ...]:
    """The ``(position, value)`` a row unifying with the atom under *seed* holds.

    The seed's value wherever the atom has a variable the seed binds, then
    the atom's constants in place.  Seed-bound positions come first because
    the first pair is what the atom is watched under: seeds differ from query
    to query, a mapping's constants do not.
    """
    _, _, constants, variables, _ = shape
    return tuple(
        [
            (position, seed[variable])
            for position, variable in variables
            if variable in seed
        ]
    ) + constants


def _watch_key(shape: AtomShape, seed: Assignment) -> Hashable:
    """The index key every row unifying with the atom under *seed* falls under.

    One bound pair is enough to file under — the first, with the relation in
    front; an atom that binds nothing is watched relation-wide.
    """
    pairs = _bound_pairs(shape, seed)
    if pairs:
        return (shape[0],) + pairs[0]
    return shape[0]


class JoinTest:
    """What a row must look like to unify with one atom under one seed.

    ``pairs`` are the ``(position, value)`` the row must hold
    (:func:`_bound_pairs`, so the atom's watch key is the first of them) and
    ``equal`` the position pairs a repeated variable the seed leaves open
    forces equal.
    """

    __slots__ = ("arity", "pairs", "equal")

    def __init__(self, shape: AtomShape, seed: Assignment):
        _, self.arity, _, _, repeats = shape
        self.pairs = _bound_pairs(shape, seed)
        self.equal: PyTuple[PyTuple[int, int], ...] = tuple(
            [
                (first, again)
                for first, again, variable in repeats
                if variable not in seed
            ]
        )

    def admits(self, row: Tuple) -> bool:
        """Would the atom match *row* under the seed?  (The relation is the caller's.)"""
        values = row.values
        if len(values) != self.arity:
            return False
        for position, value in self.pairs:
            if values[position] != value:
                return False
        for first, again in self.equal:
            if values[first] != values[again]:
                return False
        return True


def _admitted(tests: PyTuple[JoinTest, ...], row: Tuple) -> bool:
    for test in tests:
        if test.admits(row):
            return True
    return False


class ViolationQuery(ReadQuery):
    """Find LHS matches of a mapping that have no corresponding RHS match."""

    kind = "violation"

    def __init__(self, tgd: Tgd, seed: Optional[Assignment] = None):
        self._tgd = tgd
        self._seed: Assignment = dict(seed) if seed else {}
        self._plan: CompiledTgd = get_plan(tgd)
        #: The read log and the tracker's verdict memo key on the query, two
        #: or more hashes per logged read; neither field changes afterwards.
        self._hash = hash((tgd, frozenset(self._seed.items())))
        #: One key per atom, each once, and per relation one test per atom:
        #: compiled when the logs first file the query, and when a write into
        #: the relation first gets as far as :meth:`affected_by`.  A query
        #: nobody else's write ever meets needs neither.
        self._watch_keys: Optional[PyTuple[Hashable, ...]] = None
        self._join_tests: Dict[str, PyTuple[JoinTest, ...]] = {}

    @property
    def tgd(self) -> Tgd:
        """The mapping whose violations the query detects."""
        return self._tgd

    @property
    def seed(self) -> Assignment:
        """Bindings contributed by the written tuple (may be empty)."""
        return dict(self._seed)

    def relations(self) -> FrozenSet[str]:
        # Both sides are read: the LHS to find candidate witnesses, the RHS in
        # the NOT EXISTS subquery.
        return self._plan.relations

    def sorted_relations(self) -> PyTuple[str, ...]:
        return self._plan.sorted_relations

    def join_tests(self, relation: str) -> PyTuple[JoinTest, ...]:
        """One test per atom over *relation*, LHS atoms first."""
        tests = self._join_tests.get(relation)
        if tests is None:
            tests = self._join_tests[relation] = tuple(
                JoinTest(shape, self._seed)
                for shape in self._plan.join_shapes_by_relation.get(relation, ())
            )
        return tests

    def watch_keys(self) -> PyTuple[Hashable, ...]:
        """Each atom's key under the seed: a joining row falls under one of them."""
        keys = self._watch_keys
        if keys is None:
            keys = self._watch_keys = tuple(
                {_watch_key(shape, self._seed): None for shape in self._plan.join_shapes}
            )
        return keys

    def evaluate(self, view: DatabaseView) -> FrozenSet[ViolationRow]:
        plan = self._plan
        rows: List[ViolationRow] = []
        for assignment, witness in plan.lhs.find_matches(view, self._seed):
            if plan.rhs.exists_match(view, plan.exported(assignment)):
                continue
            rows.append(
                ViolationRow(
                    bindings=frozenset(assignment.items()),
                    witness=witness,
                )
            )
        return frozenset(rows)

    # ------------------------------------------------------------------
    # Seeded delta test
    # ------------------------------------------------------------------
    def affected_by(self, write: Write, view: DatabaseView) -> bool:
        """Exact test: does *write* change this query's answer on *view*?

        *view* includes the write; the comparison state is
        :func:`~repro.storage.overlay.view_without_write`, which differs from
        *view* by at most one visible tuple value in each direction.  Any
        answer-row difference must involve one of those values, so only the
        seeded neighborhoods of the written tuple are searched.
        """
        tests = self.join_tests(write.relation)
        if not tests:
            return False
        # The value-level delta between the two views.  A value no join test
        # admits starts none of the searches below, whatever the views hold;
        # one that is no longer visible (overwritten since) — or whose
        # removal is masked by an identical visible value — contributes
        # nothing.
        added = write.added_row()
        if added is not None and not (
            _admitted(tests, added) and view.contains(added)
        ):
            added = None
        removed = write.removed_row()
        if removed is not None and not (
            _admitted(tests, removed) and not view.contains(removed)
        ):
            removed = None
        if added is None and removed is None:
            return False
        plan = self._plan
        without = view_without_write(view, write)
        # 1. A violating match whose witness uses the added value exists only
        #    on the with-write side.
        if added is not None and self._violating_match_using(plan, added, view):
            return True
        # 2. A violating match whose witness uses the removed value exists
        #    only on the without-write side.
        if removed is not None and self._violating_match_using(plan, removed, without):
            return True
        # 3. Matches present on both sides can still flip their NOT EXISTS:
        #    the added value may complete an RHS match (satisfied with the
        #    write, violating without) ...
        if added is not None and self._rhs_existence_flip(
            plan, added, search_view=without, violating_view=without, satisfied_view=view
        ):
            return True
        #    ... and the removed value may have been the only RHS match
        #    (violating with the write, satisfied without).
        if removed is not None and self._rhs_existence_flip(
            plan, removed, search_view=view, violating_view=view, satisfied_view=without
        ):
            return True
        return False

    def _violating_match_using(
        self, plan: CompiledTgd, row: Tuple, side: DatabaseView
    ) -> bool:
        """Is there a violating LHS match on *side* whose witness uses *row*?"""
        for atom in plan.lhs_atoms_by_relation.get(row.relation, ()):
            bound = atom.match(row, self._seed)
            if bound is None:
                continue
            for assignment, witness in plan.lhs.find_matches(side, bound):
                if row not in witness:
                    continue
                if not plan.rhs.exists_match(side, plan.exported(assignment)):
                    return True
        return False

    def _rhs_existence_flip(
        self,
        plan: CompiledTgd,
        row: Tuple,
        search_view: DatabaseView,
        violating_view: DatabaseView,
        satisfied_view: DatabaseView,
    ) -> bool:
        """Does *row* flip the RHS existence check of some common LHS match?

        The flipping RHS match must use *row*, so its frontier bindings agree
        with ``atom.match(row)`` for some RHS atom; LHS matches consistent
        with those bindings are enumerated on *search_view* and checked for
        "no RHS match on *violating_view*, some RHS match on *satisfied_view*"
        — the only way a match present on both sides changes its answer-row
        status.
        """
        frontier = plan.frontier_variables
        for atom in plan.rhs_atoms_by_relation.get(row.relation, ()):
            bound = atom.match(row)
            if bound is None:
                continue
            frontier_bound = {
                variable: value
                for variable, value in bound.items()
                if variable in frontier
            }
            merged = _merge_bindings(self._seed, frontier_bound)
            if merged is None:
                continue
            for assignment, _ in plan.lhs.find_matches(search_view, merged):
                exported = plan.exported(assignment)
                if plan.rhs.exists_match(violating_view, exported):
                    continue
                if plan.rhs.exists_match(satisfied_view, exported):
                    return True
        return False

    def evaluation_cost(self) -> int:
        # One join over the LHS plus, per candidate, an existence check on the
        # RHS: approximate by the number of atoms on both sides.
        return len(self._tgd.lhs) + len(self._tgd.rhs)

    def __repr__(self) -> str:
        return "ViolationQuery({}, seed={})".format(self._tgd.name, self._seed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViolationQuery):
            return NotImplemented
        return self._tgd == other._tgd and self._seed == other._seed

    def __hash__(self) -> int:
        return self._hash


def seeds_for_lhs_write(tgd: Tgd, row: Tuple) -> List[Assignment]:
    """Bindings obtained by matching *row* against each LHS atom of *tgd*.

    Used after an insertion (or a modification making a tuple newly visible):
    a new LHS-violation of *tgd* must use the new tuple in its witness, so the
    violation query can be seeded with the bindings the tuple induces.  One
    seed per LHS atom the row matches (self-joins give several).
    """
    plan = get_plan(tgd)
    seeds: List[Assignment] = []
    for atom in plan.lhs_atoms_by_relation.get(row.relation, ()):
        assignment = atom.match(row)
        if assignment is not None:
            seeds.append(assignment)
    return seeds


def seeds_for_rhs_write(tgd: Tgd, row: Tuple) -> List[Assignment]:
    """Bindings obtained by matching *row* against each RHS atom of *tgd*.

    Used after a deletion: a new RHS-violation of *tgd* exists only for LHS
    matches whose RHS match used the deleted tuple, so the violation query is
    seeded with the *frontier-variable* bindings the deleted tuple induces
    through the RHS atom (existential positions impose no binding on the LHS).
    """
    plan = get_plan(tgd)
    frontier = plan.frontier_variables
    seeds: List[Assignment] = []
    for atom in plan.rhs_atoms_by_relation.get(row.relation, ()):
        assignment = atom.match(row)
        if assignment is None:
            continue
        seeds.append(
            {
                variable: value
                for variable, value in assignment.items()
                if variable in frontier
            }
        )
    return seeds


def violation_queries_for_write_row(
    tgd: Tgd, row: Tuple, removed: bool
) -> List[ViolationQuery]:
    """The violation queries to ask for *tgd* after writing *row*.

    ``removed`` selects the deletion case (RHS seeding) versus the
    insertion/modification case (LHS seeding).  Duplicate seeds are collapsed.
    """
    if removed:
        seeds = seeds_for_rhs_write(tgd, row)
    else:
        seeds = seeds_for_lhs_write(tgd, row)
    queries: List[ViolationQuery] = []
    seen = set()
    for seed in seeds:
        key = frozenset(seed.items())
        if key in seen:
            continue
        seen.add(key)
        queries.append(ViolationQuery(tgd, seed))
    return queries
