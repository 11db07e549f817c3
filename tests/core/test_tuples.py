"""Unit and property tests for tuples and the more-specific-than relation."""

import pytest
from hypothesis import given, strategies as st

from repro.core.terms import Constant, LabeledNull, Variable
from repro.core.tuples import Tuple, make_tuple, unification_assignment


def null(name):
    return LabeledNull(name)


class TestTupleBasics:
    def test_values_are_coerced_to_terms(self):
        row = make_tuple("C", "Ithaca", 3)
        assert row.values == (Constant("Ithaca"), Constant(3))

    def test_equality_and_hash(self):
        assert make_tuple("C", "a") == make_tuple("C", "a")
        assert make_tuple("C", "a") != make_tuple("D", "a")
        assert make_tuple("C", "a") != make_tuple("C", "b")
        assert hash(make_tuple("C", "a")) == hash(make_tuple("C", "a"))

    def test_variables_cannot_be_stored(self):
        with pytest.raises(TypeError):
            Tuple("C", [Variable("v")])

    def test_iteration_and_indexing(self):
        row = make_tuple("R", "a", null("x"), "b")
        assert len(row) == 3
        assert list(row) == list(row.values)
        assert row[1] == null("x")

    def test_null_helpers(self):
        row = make_tuple("R", "a", null("x"), null("x"), null("y"))
        assert row.null_set()
        assert row.nulls() == (null("x"), null("x"), null("y"))
        assert row.null_set() == {null("x"), null("y")}
        assert row.contains_null(null("y"))
        assert not row.contains_null(null("z"))
        assert not make_tuple("R", "a").null_set()

    def test_substitute_replaces_all_occurrences(self):
        row = make_tuple("R", null("x"), "a", null("x"))
        replaced = row.substitute({null("x"): Constant("v")})
        assert replaced == make_tuple("R", "v", "a", "v")

    def test_substitute_ignores_unknown_nulls(self):
        row = make_tuple("R", null("x"))
        assert row.substitute({null("y"): Constant("v")}) == row


class TestSpecificity:
    """Definition 2.4: t more specific than t' iff f(a'_i)=a_i is a function, identity on constants."""

    def test_every_tuple_is_more_specific_than_itself(self):
        row = make_tuple("R", "a", null("x"))
        assert row.is_more_specific_than(row)

    def test_constant_refines_null(self):
        general = make_tuple("C", null("x4"))
        specific = make_tuple("C", "NYC")
        assert specific.is_more_specific_than(general)
        assert not general.is_more_specific_than(specific)

    def test_constants_must_match_exactly(self):
        assert not make_tuple("C", "Ithaca").is_more_specific_than(make_tuple("C", "NYC"))

    def test_different_relations_are_incomparable(self):
        assert not make_tuple("C", "a").is_more_specific_than(make_tuple("D", "a"))

    def test_map_must_be_a_function(self):
        # x occurs twice in the general tuple but would have to map to two
        # different values, so the map is not a function.
        general = make_tuple("R", null("x"), null("x"))
        specific = make_tuple("R", "a", "b")
        assert not specific.is_more_specific_than(general)
        consistent = make_tuple("R", "a", "a")
        assert consistent.is_more_specific_than(general)

    def test_null_to_null_mapping_is_allowed(self):
        general = make_tuple("S", null("x3"), null("x4"), "NYC")
        specific = make_tuple("S", "SYR", null("z"), "NYC")
        assert specific.is_more_specific_than(general)

    def test_paper_example_s_tuples_not_more_specific(self):
        # From Section 2.2: S(SYR, Syracuse, Ithaca) is not more specific than
        # S(x3, x4, NYC) because the constant NYC does not match.
        general = make_tuple("S", null("x3"), null("x4"), "NYC")
        existing = make_tuple("S", "SYR", "Syracuse", "Ithaca")
        assert not existing.is_more_specific_than(general)

    def test_specificity_map_contents(self):
        general = make_tuple("R", null("x"), "a")
        specific = make_tuple("R", "b", "a")
        mapping = specific.specificity_map(general)
        assert mapping == {null("x"): Constant("b"), Constant("a"): Constant("a")}


# ----------------------------------------------------------------------
# Property-based tests for the specificity relation
# ----------------------------------------------------------------------
_terms = st.one_of(
    st.sampled_from([Constant("a"), Constant("b"), Constant("c")]),
    st.sampled_from([LabeledNull("x"), LabeledNull("y"), LabeledNull("z")]),
)
_rows = st.lists(_terms, min_size=1, max_size=4).map(lambda values: Tuple("R", values))


@given(_rows)
def test_specificity_is_reflexive(row):
    assert row.is_more_specific_than(row)


@given(_rows, _rows)
def test_strict_specificity_is_antisymmetric_on_distinct_tuples(first, second):
    if first.arity != second.arity:
        return
    if first != second and first.is_more_specific_than(second) and second.is_more_specific_than(first):
        # Mutual strict specificity means the two tuples differ only by a
        # renaming of nulls; they must then have nulls in the same positions.
        for mine, theirs in zip(first.values, second.values):
            assert isinstance(mine, LabeledNull) == isinstance(theirs, LabeledNull)


@given(_rows, _rows, _rows)
def test_specificity_is_transitive(first, second, third):
    if first.arity == second.arity == third.arity:
        if first.is_more_specific_than(second) and second.is_more_specific_than(third):
            assert first.is_more_specific_than(third)


@given(_rows, st.sampled_from(["a", "b", "q"]))
def test_ground_substitution_yields_more_specific_tuple(row, value):
    substitution = {null_term: Constant(value) for null_term in row.null_set()}
    ground = row.substitute(substitution)
    assert ground.is_more_specific_than(row)


class TestUnificationAssignment:
    def test_unification_maps_nulls_to_target_values(self):
        general = make_tuple("C", null("x4"))
        target = make_tuple("C", "NYC")
        assignment = unification_assignment(general, target)
        assert assignment == {null("x4"): Constant("NYC")}

    def test_unification_requires_more_specific_target(self):
        with pytest.raises(ValueError):
            unification_assignment(make_tuple("C", "Ithaca"), make_tuple("C", "NYC"))

    def test_identity_bindings_are_dropped(self):
        general = make_tuple("R", null("x"), null("y"))
        target = make_tuple("R", null("x"), "a")
        assignment = unification_assignment(general, target)
        assert assignment == {null("y"): Constant("a")}

    def test_applying_the_assignment_yields_the_target(self):
        general = make_tuple("R", null("x"), "a", null("y"))
        target = make_tuple("R", "b", "a", null("z"))
        assignment = unification_assignment(general, target)
        assert general.substitute(assignment) == target
