"""Cardinality-aware join ordering: correctness, tie-breaks and re-planning.

``CompiledConjunction._plan_for`` refines the static most-bound-first
ordering with live relation cardinalities: among equally-bound atoms the
cheapest relation is matched first, and the cached ordering is re-planned
when a relation grows past the threshold.  Result *sets* must be unchanged —
only the enumeration cost moves.
"""

from __future__ import annotations

from repro.core.atoms import Atom
from repro.core.schema import DatabaseSchema
from repro.core.terms import Variable
from repro.core.tuples import make_tuple
from repro.query.compiled import _cardinality_bucket, CompiledConjunction
from repro.query.homomorphism import find_matches
from repro.storage.memory import MemoryDatabase

X, Y = Variable("x"), Variable("y")
SCHEMA = DatabaseSchema.from_dict({"Big": ["x", "y"], "Small": ["x", "y"]})


def _conjunction():
    return CompiledConjunction([Atom("Big", [X, Y]), Atom("Small", [X, Y])])


def _database(big, small):
    database = MemoryDatabase(SCHEMA)
    for index in range(big):
        database.insert(make_tuple("Big", "k{}".format(index), "v{}".format(index)))
    for index in range(small):
        database.insert(make_tuple("Small", "k{}".format(index), "v{}".format(index)))
    return database


class TestCheapestFirst:
    def test_equally_bound_atoms_order_by_cardinality(self):
        conjunction = _conjunction()
        database = _database(big=30, small=2)
        ordered = conjunction._plan_for(frozenset(), database)[0]
        assert [atom.relation for atom, _ in ordered] == ["Small", "Big"]

    def test_boundness_still_dominates_cardinality(self):
        # An atom with more bound positions goes first even if its relation
        # is larger: binding selectivity beats relation size.
        conjunction = CompiledConjunction(
            [Atom("Big", [X, Y]), Atom("Small", [Y, Variable("z")])]
        )
        database = _database(big=30, small=2)
        ordered = conjunction._plan_for(frozenset({X, Y}), database)[0]
        assert [atom.relation for atom, _ in ordered] == ["Big", "Small"]

    def test_falls_back_to_static_without_estimates(self):
        class NoEstimates(MemoryDatabase):
            def cardinality_estimate(self, relation):
                return None

        conjunction = _conjunction()
        database = NoEstimates(SCHEMA)
        assert conjunction._plan_for(frozenset(), database)[0] == (
            conjunction._static_plan(frozenset())[0]
        )

    def test_single_atom_uses_static_path(self):
        conjunction = CompiledConjunction([Atom("Big", [X, Y])])
        database = _database(big=3, small=0)
        assert conjunction._plan_for(frozenset(), database)[0] == (
            conjunction._static_plan(frozenset())[0]
        )


class TestReplanning:
    def test_ordering_is_cached_within_a_size_bucket(self):
        conjunction = _conjunction()
        database = _database(big=30, small=2)
        first = conjunction._plan_for(frozenset(), database)[0]
        assert [atom.relation for atom, _ in first] == ["Small", "Big"]
        # Grow Small without crossing its power-of-two bucket: plan reused.
        assert _cardinality_bucket(3) == _cardinality_bucket(2)
        database.insert(make_tuple("Small", "extra", "row"))
        assert conjunction._plan_for(frozenset(), database)[0] is first

    def test_growth_past_a_bucket_boundary_replans(self):
        conjunction = _conjunction()
        database = _database(big=30, small=2)
        conjunction._plan_for(frozenset(), database)[0]
        # Cross several buckets AND pass Big's size: the re-plan must both
        # trigger and flip the order.
        assert _cardinality_bucket(102) > _cardinality_bucket(30)
        for index in range(100):
            database.insert(make_tuple("Small", "g{}".format(index), "h{}".format(index)))
        replanned = conjunction._plan_for(frozenset(), database)[0]
        assert [atom.relation for atom, _ in replanned] == ["Big", "Small"]

    def test_orderings_are_history_independent_across_stores(self):
        # Plans are shared process-wide: a store must get the ordering its
        # OWN statistics imply, no matter what other stores were seen first.
        conjunction = _conjunction()
        grown = _database(big=4, small=200)
        assert [
            atom.relation for atom, _ in conjunction._plan_for(frozenset(), grown)[0]
        ] == ["Big", "Small"]
        fresh = _database(big=30, small=2)
        assert [
            atom.relation for atom, _ in conjunction._plan_for(frozenset(), fresh)[0]
        ] == ["Small", "Big"]


class TestResultsUnchanged:
    def test_find_matches_agrees_with_reference_search(self):
        conjunction = _conjunction()
        database = _database(big=8, small=5)
        database.insert(make_tuple("Small", "k1", "v9"))  # a near-miss row
        expected = find_matches([Atom("Big", [X, Y]), Atom("Small", [X, Y])], database)
        actual = conjunction.find_matches(database)
        as_set = lambda matches: {
            (frozenset(assignment.items()), witness) for assignment, witness in matches
        }
        assert as_set(actual) == as_set(expected)

    def test_seeded_matches_agree_after_replan(self):
        conjunction = _conjunction()
        database = _database(big=6, small=1)
        conjunction._plan_for(frozenset(), database)[0]
        for index in range(40):
            database.insert(make_tuple("Small", "k{}".format(index), "v{}".format(index)))
        expected = find_matches([Atom("Big", [X, Y]), Atom("Small", [X, Y])], database)
        actual = conjunction.find_matches(database)
        as_set = lambda matches: {
            (frozenset(assignment.items()), witness) for assignment, witness in matches
        }
        assert as_set(actual) == as_set(expected)
