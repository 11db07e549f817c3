"""Unit tests for terms: constants, labeled nulls, variables, the null factory."""

import pytest
from hypothesis import given, strategies as st

from repro.core.terms import (
    Constant,
    LabeledNull,
    NullFactory,
    Variable,
    as_data_term,
    is_constant,
    is_null,
    is_variable,
)


class TestTermBasics:
    def test_constant_equality_by_value(self):
        assert Constant("Ithaca") == Constant("Ithaca")
        assert Constant("Ithaca") != Constant("Syracuse")
        assert Constant(1) != Constant("1")

    def test_labeled_null_equality_by_name(self):
        assert LabeledNull("x1") == LabeledNull("x1")
        assert LabeledNull("x1") != LabeledNull("x2")

    def test_constant_and_null_never_equal(self):
        assert Constant("x1") != LabeledNull("x1")

    def test_kind_predicates(self):
        assert is_constant(Constant("a"))
        assert not is_constant(LabeledNull("a"))
        assert is_null(LabeledNull("a"))
        assert not is_null(Constant("a"))
        assert is_variable(Variable("a"))
        assert not is_variable(Constant("a"))

    def test_is_null_property(self):
        assert LabeledNull("x").is_null
        assert not Constant("x").is_null
        assert not Variable("x").is_null

    def test_terms_are_hashable_and_usable_in_sets(self):
        items = {Constant("a"), Constant("a"), LabeledNull("a"), Variable("a")}
        assert len(items) == 3

    def test_string_rendering(self):
        assert str(Constant("Ithaca")) == "Ithaca"
        assert str(LabeledNull("x3")) == "#x3"
        assert str(Variable("c")) == "?c"


class TestAsDataTerm:
    def test_wraps_raw_values_as_constants(self):
        assert as_data_term("hello") == Constant("hello")
        assert as_data_term(5) == Constant(5)

    def test_passes_terms_through(self):
        null = LabeledNull("x9")
        assert as_data_term(null) is null
        constant = Constant("a")
        assert as_data_term(constant) is constant

    def test_rejects_variables(self):
        with pytest.raises(TypeError):
            as_data_term(Variable("v"))


class TestNullFactory:
    def test_fresh_nulls_are_distinct(self):
        factory = NullFactory()
        first, second = factory.fresh(), factory.fresh()
        assert first != second

    def test_prefix_and_numbering(self):
        factory = NullFactory(prefix="n", start=5)
        assert factory.fresh() == LabeledNull("n5")
        assert factory.fresh() == LabeledNull("n6")
        assert factory.prefix == "n"

    def test_fresh_many(self):
        factory = NullFactory()
        batch = [factory.fresh() for _ in range(4)]
        assert len(batch) == 4
        assert len(set(batch)) == 4

    def test_avoiding_skips_existing_names(self):
        factory = NullFactory.avoiding(["x1", "x7", "y3", "other"], prefix="x")
        assert factory.fresh() == LabeledNull("x8")

    def test_avoiding_ignores_foreign_prefixes(self):
        factory = NullFactory.avoiding(["y10"], prefix="x")
        assert factory.fresh() == LabeledNull("x1")

    def test_avoiding_view_uses_database_nulls(self, travel_db):
        factory = NullFactory.avoiding_view(travel_db)
        fresh = factory.fresh()
        existing = {
            null
            for relation in travel_db.relations()
            for row in travel_db.tuples(relation)
            for null in row.null_set()
        }
        assert fresh not in existing
        assert fresh == LabeledNull("x3")

    @given(st.integers(min_value=1, max_value=50))
    def test_factory_never_repeats(self, count):
        factory = NullFactory(prefix="p")
        produced = [factory.fresh() for _ in range(count)]
        assert len(set(produced)) == count
