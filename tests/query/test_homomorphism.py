"""Tests for homomorphism search and conjunctive-query evaluation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles.conjunctive import ConjunctiveQuery, formula_satisfied
from repro.core.atoms import Atom
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull, Variable
from repro.core.tuples import Tuple, make_tuple
from repro.core.violations import satisfies_all
from repro.query.homomorphism import exists_match, find_matches
from repro.storage.memory import MemoryDatabase


class TestFindMatches:
    def test_single_atom_matches_every_tuple(self, travel_db):
        matches = find_matches([Atom("C", ["c"])], travel_db)
        cities = {assignment[Variable("c")] for assignment, _ in matches}
        assert cities == {Constant("Ithaca"), Constant("Syracuse")}

    def test_join_across_two_atoms(self, travel_db):
        atoms = [Atom("A", ["l", "n"]), Atom("T", ["n", "c", "cs"])]
        matches = find_matches(atoms, travel_db)
        assert len(matches) == 2
        for assignment, witness in matches:
            assert witness[0].relation == "A"
            assert witness[1].relation == "T"
            assert witness[0].values[1] == witness[1].values[0]

    def test_seed_restricts_the_search(self, travel_db):
        atoms = [Atom("A", ["l", "n"]), Atom("T", ["n", "c", "cs"])]
        seed = {Variable("n"): Constant("Geneva Winery")}
        matches = find_matches(atoms, travel_db, seed)
        assert len(matches) == 1
        assert matches[0][0][Variable("c")] == Constant("XYZ")

    def test_limit_stops_early(self, travel_db):
        matches = find_matches([Atom("C", ["c"])], travel_db, limit=1)
        assert len(matches) == 1

    def test_witness_order_follows_original_atom_order(self, travel_db):
        atoms = [Atom("T", ["n", "c", "cs"]), Atom("A", ["l", "n"])]
        for _, witness in find_matches(atoms, travel_db):
            assert witness[0].relation == "T"
            assert witness[1].relation == "A"

    def test_repeated_variables_enforce_equality(self, travel_db):
        # S(a, c, c): airports located in the city they serve.
        matches = find_matches([Atom("S", ["a", "c", "c"])], travel_db)
        assert len(matches) == 1
        assert matches[0][0][Variable("c")] == Constant("Syracuse")

    def test_labeled_nulls_are_matched_as_values(self, travel_db):
        # T(n, c, cs) with c bound to the labeled null x1 matches the Niagara tour.
        seed = {Variable("c"): LabeledNull("x1")}
        matches = find_matches([Atom("T", ["n", "c", "cs"])], travel_db, seed)
        assert len(matches) == 1

    def test_exists_match(self, travel_db):
        assert exists_match([Atom("C", ["c"])], travel_db)
        assert not exists_match(
            [Atom("C", ["c"])], travel_db, {Variable("c"): Constant("Paris")}
        )


class TestFormulaSatisfied:
    def test_satisfied_mapping(self, travel):
        database, mappings = travel
        sigma3 = mappings.by_name("sigma3")
        assert formula_satisfied(sigma3.lhs, sigma3.rhs, database)
        assert satisfies_all([sigma3], database)

    def test_violated_mapping(self, travel):
        database, mappings = travel
        database.delete(make_tuple("R", "XYZ", "Geneva Winery", "Great!"))
        sigma3 = mappings.by_name("sigma3")
        assert not formula_satisfied(sigma3.lhs, sigma3.rhs, database)
        assert not satisfies_all([sigma3], database)


class TestConjunctiveQuery:
    def test_answer_variables_projection(self, travel_db):
        query = ConjunctiveQuery(
            [Atom("T", ["n", "c", "cs"])], answer_variables=[Variable("n")]
        )
        answers = query.evaluate(travel_db)
        assert answers == frozenset(
            {(Constant("Geneva Winery"),), (Constant("Niagara Falls"),)}
        )

    def test_default_answer_variables_are_all_variables(self, travel_db):
        query = ConjunctiveQuery([Atom("C", ["c"])])
        assert query.answer_variables == (Variable("c"),)

    def test_boolean_query(self, travel_db):
        query = ConjunctiveQuery([Atom("C", [Constant("Ithaca")])], answer_variables=[])
        assert query.answer_variables == ()
        assert query.holds(travel_db)
        assert query.evaluate(travel_db) == frozenset({()})

    def test_unknown_answer_variable_rejected(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([Atom("C", ["c"])], answer_variables=[Variable("z")])

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([])

    def test_relations_and_cost(self, travel_db):
        query = ConjunctiveQuery([Atom("A", ["l", "n"]), Atom("T", ["n", "c", "cs"])])
        assert query.relations() == {"A", "T"}
        assert query.evaluation_cost() >= 1

    def test_equality_and_hash(self):
        first = ConjunctiveQuery([Atom("C", ["c"])])
        second = ConjunctiveQuery([Atom("C", ["c"])])
        assert first == second
        assert hash(first) == hash(second)


# ----------------------------------------------------------------------
# Property test: the backtracking join agrees with brute-force enumeration.
# ----------------------------------------------------------------------
_VALUES = [Constant("a"), Constant("b"), LabeledNull("x")]


def _brute_force_matches(atoms, rows_by_relation):
    variables = sorted(
        {term for atom in atoms for term in atom.variable_set()},
        key=lambda variable: variable.name,
    )
    results = set()
    candidate_lists = [rows_by_relation.get(atom.relation, []) for atom in atoms]
    for combination in itertools.product(*candidate_lists):
        assignment = {}
        consistent = True
        for atom, row in zip(atoms, combination):
            extended = atom.match(row, assignment)
            if extended is None:
                consistent = False
                break
            assignment = extended
        if consistent:
            results.add(tuple(assignment[variable] for variable in variables))
    return results


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["P", "Q"]),
            st.sampled_from(_VALUES),
            st.sampled_from(_VALUES),
        ),
        max_size=8,
    )
)
def test_backtracking_join_matches_brute_force(rows):
    schema = DatabaseSchema.from_dict({"P": ["a", "b"], "Q": ["a", "b"]})
    database = MemoryDatabase(schema)
    rows_by_relation = {"P": [], "Q": []}
    for relation, first, second in rows:
        row = Tuple(relation, [first, second])
        database.insert(row)
        if row not in rows_by_relation[relation]:
            rows_by_relation[relation].append(row)
    atoms = [Atom("P", ["u", "v"]), Atom("Q", ["v", "w"])]
    variables = sorted(
        {term for atom in atoms for term in atom.variable_set()},
        key=lambda variable: variable.name,
    )
    found = {
        tuple(assignment[variable] for variable in variables)
        for assignment, _ in find_matches(atoms, database)
    }
    assert found == _brute_force_matches(atoms, rows_by_relation)
