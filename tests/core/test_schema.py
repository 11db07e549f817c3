"""Unit tests for relation and database schemas."""

import pytest

from repro.core.schema import (
    DatabaseSchema,
    RelationSchema,
    SchemaError,
    generic_attributes,
)
from repro.core.tuples import make_tuple


class TestRelationSchema:
    def test_basic_properties(self):
        relation = RelationSchema("T", ["attraction", "company", "tour_start"])
        assert relation.arity == 3
        assert str(relation) == "T(attraction, company, tour_start)"

    def test_rejects_empty_name_and_attributes(self):
        with pytest.raises(SchemaError):
            RelationSchema("", ["a"])
        with pytest.raises(SchemaError):
            RelationSchema("R", [])

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ["a", "a"])

    def test_validate_tuple(self):
        relation = RelationSchema("R", ["a", "b"])
        relation.validate_tuple(make_tuple("R", 1, 2))
        with pytest.raises(SchemaError):
            relation.validate_tuple(make_tuple("R", 1))
        with pytest.raises(SchemaError):
            relation.validate_tuple(make_tuple("S", 1, 2))


class TestDatabaseSchema:
    def test_from_dict_and_lookup(self):
        schema = DatabaseSchema.from_dict({"C": ["city"], "V": ["city", "convention"]})
        assert len(schema) == 2
        assert "C" in schema
        assert schema.arity_of("V") == 2
        assert schema.relation_names() == ["C", "V"]

    def test_duplicate_relations_rejected(self):
        schema = DatabaseSchema.from_dict({"C": ["city"]})
        with pytest.raises(SchemaError):
            schema.add_relation(RelationSchema("C", ["other"]))

    def test_unknown_relation(self):
        schema = DatabaseSchema.from_dict({"C": ["city"]})
        with pytest.raises(SchemaError):
            schema.relation("Z")
        with pytest.raises(SchemaError):
            schema.validate_tuple(make_tuple("Z", 1))

    def test_describe_lists_every_relation(self):
        schema = DatabaseSchema.from_dict({"C": ["city"], "V": ["city", "convention"]})
        description = schema.describe()
        assert "C(city)" in description
        assert "V(city, convention)" in description


class TestGenericAttributes:
    def test_names_and_count(self):
        assert generic_attributes(3) == ["a1", "a2", "a3"]
        assert generic_attributes(2, prefix="col") == ["col1", "col2"]

    def test_rejects_non_positive_arity(self):
        with pytest.raises(SchemaError):
            generic_attributes(0)
