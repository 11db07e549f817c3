"""Compiled mapping plans: precomputed evaluation state for chase-hot queries.

Violation queries, the repair planner and the incremental violation detector
all interrogate the *structure* of a mapping on every chase step: which
variables are exported, which atoms mention the written relation, in which
order a join should match the atoms.  The :class:`Tgd` value
object recomputes those answers from scratch on each call, which is fine for
one chase but shows up everywhere once a scheduler replays thousands of steps.

A :class:`CompiledTgd` derives everything once per mapping:

* the variable sets (RHS, frontier, existential — the latter also pre-sorted
  for deterministic null generation),
* per-relation LHS/RHS atom lists (write seeding stops scanning every atom),
* a :class:`CompiledConjunction` per side, which memoizes the
  most-constrained-first atom ordering per set of pre-bound variables and,
  beside each ordering, its *match plan*: per atom in match order the probe
  (constants and already-bound variables, in position order), the witness
  slot, the variables the atom binds and its repeated-variable checks.  A
  join runs that plan depth-first over an explicit stack of candidate
  iterators; it makes no closure and no reference cycle, so its view, store
  and answer rows are freed by reference counting as soon as the caller
  drops them, without waiting for the cyclic collector.

Plans are value-cached: :func:`get_plan` memoizes on the (hashable) tgd, so
every engine, planner and query sharing a mapping shares one plan.  A
:class:`CompiledMappings` bundles the plans of a mapping set with
relation-keyed reading/writing lookups for the write-seeded violation
detector.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from ..core.atoms import Atom
from ..core.terms import DataTerm, Variable, is_variable
from ..core.tgd import Tgd
from ..core.tuples import Tuple
from ..storage.interface import DatabaseView

#: An assignment of mapping variables to data terms (constants or nulls).
Assignment = Dict[Variable, DataTerm]

#: An atom as a violation query's seed meets it: relation, arity, its
#: ``(position, constant)`` pairs, the ``(position, variable)`` pairs a seed
#: can bind (every variable of an LHS atom; of an RHS atom the frontier ones —
#: the seed reaches it through the exported bindings alone) and, per repeated
#: occurrence of a variable, ``(first position, this position, variable)``
#: with ``None`` for a variable no seed binds.  Each in position order.
AtomShape = PyTuple[
    str,
    int,
    PyTuple[PyTuple[int, DataTerm], ...],
    PyTuple[PyTuple[int, Variable], ...],
    PyTuple[PyTuple[int, int, Optional[Variable]], ...],
]

#: A match: the completed assignment plus the tuple matched by each atom, in
#: original atom order.
Match = PyTuple[Assignment, PyTuple[Tuple, ...]]

#: One atom of a match plan, in match order: relation, arity, witness slot
#: (the atom's original position), the probe — per constant or already-bound
#: variable, in position order, ``(position, variable, constant)`` with the
#: variable ``None`` for a constant — and a reader of its positions, the
#: ``(position, variable)`` first occurrences the atom binds, and readers of
#: the first and the repeated positions of its repeated variables.
MatchStep = PyTuple[
    str,
    int,
    int,
    PyTuple[PyTuple[int, Optional[Variable], Optional[DataTerm]], ...],
    Optional[Callable],
    PyTuple[PyTuple[int, Variable], ...],
    Optional[Callable],
    Optional[Callable],
]

#: A cached join plan: the ordering (atom, original position) and its steps.
_Plan = PyTuple[PyTuple[PyTuple[Atom, int], ...], PyTuple[MatchStep, ...]]


#: Cardinality estimates are quantized to power-of-two buckets before they
#: key a cached ordering: a relation re-plans exactly when it grows (or
#: shrinks) past a bucket boundary, and — because the signature is a pure
#: function of the live estimates — plans shared process-wide through
#: :func:`get_plan` can never leak one store's statistics into another's
#: orderings (same store state, same ordering, regardless of history).
def _cardinality_bucket(estimate: int) -> int:
    return estimate.bit_length()


class CompiledConjunction:
    """A conjunction of atoms with memoized join orderings.

    The static ordering heuristic is the one from
    :mod:`repro.query.homomorphism` (most bound positions first, ties broken
    by fewer distinct unbound variables).  It depends only on *which*
    variables are bound — not on their values — so orderings are cached per
    bound-variable set; a chase asks for the same handful of seeds over and
    over.

    When the view offers O(1) relation-cardinality estimates
    (:meth:`~repro.storage.interface.DatabaseView.cardinality_estimate`),
    :meth:`_plan_for` refines the static tie-break: among equally-bound
    atoms the *cheapest* relation is matched first (smallest live
    cardinality), and the cached ordering is re-planned once some relation's
    size crosses a power-of-two bucket boundary — live statistics instead of
    the purely structural most-bound-first rule.

    Each cached ordering carries its match plan (see :data:`MatchStep`), so
    :meth:`find_matches` and :meth:`exists_match` derive nothing per call.
    """

    __slots__ = (
        "atoms", "_variable_set", "_orderings", "_live_orderings", "_match_plans"
    )

    def __init__(self, atoms: Sequence[Atom]):
        self.atoms: PyTuple[Atom, ...] = tuple(atoms)
        variables: set = set()
        for atom in self.atoms:
            variables.update(atom.variable_set())
        self._variable_set: FrozenSet[Variable] = frozenset(variables)
        # bound-variable frozenset -> (ordering, match plan); an ordering is a
        # tuple of (atom, original position) in match order.
        self._orderings: Dict[FrozenSet[Variable], _Plan] = {}
        # (bound-variable frozenset, per-atom cardinality-bucket signature)
        # -> (ordering, match plan); consulted by _plan_for.  Keying on the
        # quantized live statistics makes the cache store-agnostic: plans are
        # shared process-wide, and two stores with different relation sizes
        # simply hit different signature entries.
        self._live_orderings: Dict[
            PyTuple[FrozenSet[Variable], PyTuple[int, ...]], _Plan
        ] = {}
        # (bound-variable frozenset, ordering) -> (ordering, match plan): the
        # one pair every entry of the two caches above that picked this
        # ordering for this seed shares (many signatures pick the same one).
        self._match_plans: Dict[
            PyTuple[FrozenSet[Variable], PyTuple[PyTuple[Atom, int], ...]], _Plan
        ] = {}

    @property
    def variable_set(self) -> FrozenSet[Variable]:
        """All distinct variables of the conjunction."""
        return self._variable_set

    def _static_plan(self, key: FrozenSet[Variable]) -> _Plan:
        cached = self._orderings.get(key)
        if cached is not None:
            return cached

        def score(entry: PyTuple[Atom, int]) -> PyTuple[int, int]:
            atom = entry[0]
            bound_count = 0
            unbound = set()
            for term in atom.terms:
                if is_variable(term):
                    if term in key:
                        bound_count += 1
                    else:
                        unbound.add(term)
                else:
                    bound_count += 1
            return (-bound_count, len(unbound))

        ordered = tuple(
            sorted(
                ((atom, position) for position, atom in enumerate(self.atoms)),
                key=score,
            )
        )
        plan = self._orderings[key] = self._match_plan(key, ordered)
        return plan

    def _plan_for(self, bound: FrozenSet[Variable], view: DatabaseView) -> _Plan:
        """The match plan for *bound* refined by *view*'s live statistics;
        its first member is the atoms in match order, each paired with its
        original position.

        Falls back to the static plan when the view has no cheap
        cardinality estimates.  Cardinality-aware orderings are cached per
        (bound variables, quantized cardinality signature): the ordering is
        recomputed exactly when some atom's relation crossed a power-of-two
        size bucket since it was planned — a relation that was empty at plan
        time may have become the most expensive one to scan first — and the
        signature keying keeps the process-shared plan cache store-agnostic.
        """
        bound_key = bound & self._variable_set
        if len(self.atoms) <= 1:
            return self._static_plan(bound_key)
        estimates: List[int] = []
        for atom in self.atoms:
            estimate = view.cardinality_estimate(atom.relation)
            if estimate is None:
                return self._static_plan(bound_key)
            estimates.append(estimate)
        buckets = tuple(_cardinality_bucket(estimate) for estimate in estimates)
        key = (bound_key, buckets)
        cached = self._live_orderings.get(key)
        if cached is not None:
            return cached

        def score(entry: PyTuple[Atom, int]) -> PyTuple[int, int, int]:
            atom, position = entry
            bound_count = 0
            unbound = set()
            for term in atom.terms:
                if is_variable(term):
                    if term in bound_key:
                        bound_count += 1
                    else:
                        unbound.add(term)
                else:
                    bound_count += 1
            # Most-bound first (selectivity from bindings dominates), then
            # cheapest relation among equally-bound atoms (compared by size
            # bucket, so the ordering is a pure function of the cache key),
            # then the static fewest-unbound tie-break.
            return (-bound_count, buckets[position], len(unbound))

        ordered = tuple(
            sorted(
                ((atom, position) for position, atom in enumerate(self.atoms)),
                key=score,
            )
        )
        plan = self._live_orderings[key] = self._match_plan(bound_key, ordered)
        return plan

    def _match_plan(
        self, bound: FrozenSet[Variable], ordered: PyTuple[PyTuple[Atom, int], ...]
    ) -> _Plan:
        key = (bound, ordered)
        plan = self._match_plans.get(key)
        if plan is None:
            plan = self._match_plans[key] = (ordered, _match_steps(ordered, bound))
        return plan

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def find_matches(
        self,
        view: DatabaseView,
        assignment: Optional[Assignment] = None,
        limit: Optional[int] = None,
    ) -> List[Match]:
        """Homomorphisms of the conjunction into *view* extending *assignment*.

        Identical semantics to :func:`repro.query.homomorphism.find_matches`,
        minus the per-call ordering and index-permutation work.
        """
        seed: Assignment = dict(assignment) if assignment else {}
        results: List[Match] = []
        _run(self._plan_for(frozenset(seed), view)[1], view, seed, results, limit)
        return results

    def exists_match(
        self, view: DatabaseView, assignment: Optional[Assignment] = None
    ) -> bool:
        """``True`` when at least one homomorphism extending *assignment* exists."""
        seed: Assignment = dict(assignment) if assignment else {}
        return _run(self._plan_for(frozenset(seed), view)[1], view, seed, None, None)


def first_match_in_order(
    atoms: Sequence[Atom], view: DatabaseView
) -> Optional[Assignment]:
    """The first homomorphism of *atoms* into *view*, or ``None``, matching
    the atoms in the order given: the executor without the planner."""
    ordered = tuple((atom, slot) for slot, atom in enumerate(atoms))
    results: List[Match] = []
    _run(_match_steps(ordered, frozenset()), view, {}, results, 1)
    return results[0][0] if results else None


def _getter(positions: Sequence[int]) -> Optional[Callable]:
    """Read *positions* of a row's values as one tuple; ``None`` for none."""
    if not positions:
        return None
    if len(positions) == 1:
        position = positions[0]
        return lambda values: (values[position],)
    return itemgetter(*positions)


def _match_steps(
    ordered: PyTuple[PyTuple[Atom, int], ...], bound: FrozenSet[Variable]
) -> PyTuple[MatchStep, ...]:
    """The match plan of *ordered* when the seed binds *bound*."""
    bound_so_far = set(bound)
    steps: List[MatchStep] = []
    for atom, slot in ordered:
        probe: List[PyTuple[int, Optional[Variable], Optional[DataTerm]]] = []
        binds: List[PyTuple[int, Variable]] = []
        repeats: List[PyTuple[int, int]] = []
        first_at: Dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if not is_variable(term):
                probe.append((position, None, term))
            elif term in bound_so_far:
                probe.append((position, term, None))
            elif term in first_at:
                repeats.append((first_at[term], position))
            else:
                first_at[term] = position
                binds.append((position, term))
        bound_so_far.update(first_at)
        steps.append(
            (
                atom.relation,
                atom.arity,
                slot,
                tuple(probe),
                _getter([position for position, _, _ in probe]),
                tuple(binds),
                _getter([first for first, _ in repeats]),
                _getter([then for _, then in repeats]),
            )
        )
    return tuple(steps)


def _run(
    steps: PyTuple[MatchStep, ...],
    view: DatabaseView,
    current: Assignment,
    results: Optional[List[Match]],
    limit: Optional[int],
) -> bool:
    """Run a match plan depth-first over an explicit stack of candidates.

    *current* is the seed, extended in place as atoms bind and shrunk again
    on backtracking.  Each complete match is appended to *results* as a copy
    of *current* and the witness rows in original atom order; ``True`` once
    *limit* matches are in.  With *results* ``None`` the run only asks
    whether a match exists and returns ``True`` at the first one.

    Every probe pair is checked again on each candidate: a view may answer a
    probe with a superset of its rows (one that indexes only the first pair).
    """
    depth_count = len(steps)
    if not depth_count:
        if results is not None:
            results.append((dict(current), ()))
        return True
    last = depth_count - 1
    witness: List[Optional[Tuple]] = [None] * depth_count
    candidates: List[Optional[Iterator[Tuple]]] = [None] * depth_count
    expected: List[PyTuple[DataTerm, ...]] = [()] * depth_count
    depth = 0
    while depth >= 0:
        relation, arity, slot, probe, probe_get, binds, first_get, then_get = steps[depth]
        rows = candidates[depth]
        if rows is None:
            pairs = [
                (position, term if variable is None else current[variable])
                for position, variable, term in probe
            ]
            expected[depth] = tuple([value for _, value in pairs])
            rows = candidates[depth] = iter(view.tuples_matching(relation, pairs))
        else:
            # Back from the atom after this one: unbind this atom's last row.
            for _, variable in binds:
                del current[variable]
        values_expected = expected[depth]
        for row in rows:
            values = row.values
            if len(values) != arity:
                continue
            if probe_get is not None and probe_get(values) != values_expected:
                continue
            if first_get is not None and first_get(values) != then_get(values):
                continue
            witness[slot] = row
            if depth == last:
                if results is None:
                    return True
                match = dict(current)
                for position, variable in binds:
                    match[variable] = values[position]
                results.append((match, tuple(witness)))  # type: ignore[arg-type]
                if limit is not None and len(results) >= limit:
                    return True
                continue
            for position, variable in binds:
                current[variable] = values[position]
            depth += 1
            break
        else:
            candidates[depth] = None
            depth -= 1
    return False


class CompiledTgd:
    """Everything the chase derives from one mapping, derived exactly once."""

    __slots__ = (
        "tgd",
        "lhs",
        "rhs",
        "lhs_variables",
        "rhs_variables",
        "frontier_variables",
        "existential_variables",
        "sorted_existentials",
        "lhs_relations",
        "rhs_relations",
        "relations",
        "sorted_relations",
        "lhs_atoms_by_relation",
        "rhs_atoms_by_relation",
        "join_shapes",
        "join_shapes_by_relation",
    )

    def __init__(self, tgd: Tgd):
        self.tgd = tgd
        self.lhs = CompiledConjunction(tgd.lhs)
        self.rhs = CompiledConjunction(tgd.rhs)
        self.lhs_variables = self.lhs.variable_set
        self.rhs_variables = self.rhs.variable_set
        self.frontier_variables = self.lhs_variables & self.rhs_variables
        self.existential_variables = self.rhs_variables - self.lhs_variables
        self.sorted_existentials: PyTuple[Variable, ...] = tuple(
            sorted(self.existential_variables, key=lambda v: v.name)
        )
        self.lhs_relations = tgd.lhs_relations()
        self.rhs_relations = tgd.rhs_relations()
        self.relations = self.lhs_relations | self.rhs_relations
        #: The read set in one fixed order (the tracker's memo token walks it).
        self.sorted_relations: PyTuple[str, ...] = tuple(sorted(self.relations))
        self.lhs_atoms_by_relation = _atoms_by_relation(tgd.lhs)
        self.rhs_atoms_by_relation = _atoms_by_relation(tgd.rhs)
        #: Per atom, LHS first, what a violation query's watch keys and join
        #: tests are compiled from; the same grouped by relation.
        self.join_shapes: PyTuple[AtomShape, ...] = tuple(
            [_atom_shape(atom, self.lhs_variables) for atom in tgd.lhs]
            + [_atom_shape(atom, self.frontier_variables) for atom in tgd.rhs]
        )
        by_relation: Dict[str, List[AtomShape]] = {}
        for shape in self.join_shapes:
            by_relation.setdefault(shape[0], []).append(shape)
        self.join_shapes_by_relation: Dict[str, PyTuple[AtomShape, ...]] = {
            relation: tuple(shapes) for relation, shapes in by_relation.items()
        }

    def exported(self, assignment: Assignment) -> Assignment:
        """Restrict *assignment* to the variables the RHS can see."""
        rhs_variables = self.rhs_variables
        return {
            variable: value
            for variable, value in assignment.items()
            if variable in rhs_variables
        }

    def __repr__(self) -> str:
        return "CompiledTgd({})".format(self.tgd.name)


def _atom_shape(atom: Atom, bindable: FrozenSet[Variable]) -> AtomShape:
    terms = tuple(enumerate(atom.terms))
    variables = tuple(pair for pair in terms if is_variable(pair[1]))
    first_at: Dict[Variable, int] = {}
    return (
        atom.relation,
        len(terms),
        tuple(pair for pair in terms if not is_variable(pair[1])),
        tuple(pair for pair in variables if pair[1] in bindable),
        tuple(
            (first_at[variable], position, variable if variable in bindable else None)
            for position, variable in variables
            if first_at.setdefault(variable, position) != position
        ),
    )


def _atoms_by_relation(atoms: Sequence[Atom]) -> Dict[str, PyTuple[Atom, ...]]:
    grouped: Dict[str, List[Atom]] = {}
    for atom in atoms:
        grouped.setdefault(atom.relation, []).append(atom)
    return {relation: tuple(members) for relation, members in grouped.items()}


#: Global plan cache.  Tgds are immutable values with cached hashes, so one
#: process-wide memo is safe and lets plans be shared across engines,
#: planners, schedulers and ad-hoc query objects without threading a cache
#: through every constructor.  The cache is *bounded* (weak references cannot
#: evict here — a plan strongly holds its tgd, so weak keys would be
#: immortal): past the limit the oldest plans fall out FIFO and are simply
#: recompiled on next use, so a long-running service compiling per-session
#: mapping sets cannot grow the cache without bound.
_PLANS: Dict[Tgd, CompiledTgd] = {}

#: Far above any realistic concurrent mapping-set working set (the paper's
#: densest experiment uses 100 mappings), yet it caps service-mode growth.
_PLAN_CACHE_LIMIT = 4096


def get_plan(tgd: Tgd) -> CompiledTgd:
    """The (memoized, bounded) compiled plan for *tgd*."""
    plan = _PLANS.get(tgd)
    if plan is None:
        plan = CompiledTgd(tgd)
        while len(_PLANS) >= _PLAN_CACHE_LIMIT:
            _PLANS.pop(next(iter(_PLANS)))
        _PLANS[tgd] = plan
    return plan


class CompiledMappings:
    """The compiled plans of a mapping set, with relation-keyed lookups.

    ``reading(relation)`` / ``writing(relation)`` answer "which mappings could
    a write into this relation violate?" in O(1) — the write-seeded violation
    detector used to filter every mapping (recomputing its relation sets!) on
    every single write.
    """

    __slots__ = ("plans", "_reading", "_writing")

    def __init__(self, mappings: Iterable[Tgd]):
        self.plans: PyTuple[CompiledTgd, ...] = tuple(
            get_plan(tgd) for tgd in mappings
        )
        reading: Dict[str, List[CompiledTgd]] = {}
        writing: Dict[str, List[CompiledTgd]] = {}
        for plan in self.plans:
            for relation in plan.lhs_relations:
                reading.setdefault(relation, []).append(plan)
            for relation in plan.rhs_relations:
                writing.setdefault(relation, []).append(plan)
        self._reading = {name: tuple(plans) for name, plans in reading.items()}
        self._writing = {name: tuple(plans) for name, plans in writing.items()}

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self):
        return iter(self.plans)

    def reading(self, relation: str) -> PyTuple[CompiledTgd, ...]:
        """Plans of mappings with *relation* on their LHS."""
        return self._reading.get(relation, ())

    def writing(self, relation: str) -> PyTuple[CompiledTgd, ...]:
        """Plans of mappings with *relation* on their RHS."""
        return self._writing.get(relation, ())


def compile_mappings(mappings) -> CompiledMappings:
    """Coerce a mapping sequence (or an existing bundle) to compiled form."""
    if isinstance(mappings, CompiledMappings):
        return mappings
    return CompiledMappings(mappings)
