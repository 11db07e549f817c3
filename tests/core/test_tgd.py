"""Unit tests for tgds: parsing, structure, validation, cycles, weak acyclicity."""

import pytest

from repro.core.schema import DatabaseSchema, SchemaError
from repro.core.tgd import (
    MappingGraph,
    MappingSet,
    Tgd,
    TgdError,
    is_weakly_acyclic,
    parse_tgd,
    parse_tgds,
)
from repro.core.terms import Constant, Variable
from repro.fixtures import travel_mappings, travel_schema
from repro.query.compiled import compile_mappings


class TestParsing:
    def test_simple_tgd(self):
        tgd = parse_tgd("C(c) -> exists a, l . S(a, l, c)", name="sigma1")
        assert tgd.name == "sigma1"
        assert [atom.relation for atom in tgd.lhs] == ["C"]
        assert [atom.relation for atom in tgd.rhs] == ["S"]
        assert tgd.existential_variables() == {Variable("a"), Variable("l")}
        assert tgd.frontier_variables() == {Variable("c")}

    def test_implicit_existentials(self):
        tgd = parse_tgd("A(l, n), T(n, c, cs) -> R(c, n, r)")
        assert tgd.existential_variables() == {Variable("r")}

    def test_constants_are_parsed(self):
        tgd = parse_tgd("C('Ithaca') -> S(a, l, 'Ithaca')")
        assert Constant("Ithaca") in tgd.lhs[0].constants()
        assert Constant("Ithaca") in tgd.rhs[0].constants()

    def test_integer_constants(self):
        tgd = parse_tgd("P(5, x) -> Q(x)")
        assert Constant(5) in tgd.lhs[0].constants()

    def test_multiple_rhs_atoms(self):
        tgd = parse_tgd("Person(x) -> exists y . Father(x, y), Person(y)")
        assert len(tgd.rhs) == 2
        assert tgd.existential_variables() == {Variable("y")}

    def test_missing_arrow_rejected(self):
        with pytest.raises(TgdError):
            parse_tgd("C(c), S(a, l, c)")

    def test_bad_exists_clause_rejected(self):
        with pytest.raises(TgdError):
            parse_tgd("C(c) -> exists a S(a, l, c)")
        with pytest.raises(TgdError):
            parse_tgd("C(c) -> exists c . S(a, l, c)")

    def test_garbage_atoms_rejected(self):
        with pytest.raises(TgdError):
            parse_tgd("C(c -> S(a)")
        with pytest.raises(TgdError):
            parse_tgd("C() -> S(a)")

    def test_parse_tgds_names_in_order(self):
        tgds = parse_tgds(["C(c) -> D(c)", "D(c) -> E(c)"])
        assert [tgd.name for tgd in tgds] == ["sigma1", "sigma2"]

    def test_round_trip_through_to_string(self):
        original = parse_tgd("A(l, n), T(n, c, cs) -> exists r . R(c, n, r)")
        reparsed = parse_tgd(original.to_string())
        assert reparsed == original


class TestStructure:
    def test_sides_must_be_nonempty(self):
        with pytest.raises(TgdError):
            Tgd([], [parse_tgd("C(c) -> D(c)").rhs[0]])
        with pytest.raises(TgdError):
            Tgd([parse_tgd("C(c) -> D(c)").lhs[0]], [])

    def test_relations_and_self_join(self):
        tgd = parse_tgd("E(x, y), E(y, z) -> E(x, z)")
        assert tgd.lhs_relations() == {"E"}
        assert not tgd.existential_variables()

    def test_full_vs_existential(self):
        assert not parse_tgd("C(c) -> D(c)").existential_variables()
        assert parse_tgd("C(c) -> exists z . D(z)").existential_variables() == {Variable("z")}

    def test_equality_ignores_name(self):
        first = parse_tgd("C(c) -> D(c)", name="a")
        second = parse_tgd("C(c) -> D(c)", name="b")
        assert first == second
        assert hash(first) == hash(second)


class TestValidation:
    def test_travel_mappings_validate(self):
        travel_mappings().validate(travel_schema())

    def test_unknown_relation_rejected(self):
        schema = DatabaseSchema.from_dict({"C": ["city"]})
        tgd = parse_tgd("C(c) -> D(c)")
        with pytest.raises(SchemaError):
            tgd.validate(schema)

    def test_wrong_arity_rejected(self):
        schema = DatabaseSchema.from_dict({"C": ["city"], "D": ["a", "b"]})
        tgd = parse_tgd("C(c) -> D(c)")
        with pytest.raises(SchemaError):
            tgd.validate(schema)


class TestMappingGraphAndCycles:
    def test_travel_mappings_form_a_cycle(self):
        mappings = travel_mappings()
        assert mappings.has_cycle()
        cycles = mappings.graph().cycles()
        assert any(set(cycle) == {"C", "S"} for cycle in cycles)

    def test_acyclic_mappings(self):
        mappings = MappingSet(parse_tgds(["A(x) -> B(x)", "B(x) -> C(x)"]))
        assert not mappings.has_cycle()

    def test_self_loop_counts_as_cycle(self):
        mappings = MappingSet([parse_tgd("Person(x) -> exists y . Father(x, y), Person(y)")])
        assert mappings.has_cycle()

    def test_graph_nodes_and_successors(self):
        graph = MappingGraph.from_tgds(parse_tgds(["A(x) -> B(x)", "B(x) -> C(x)"]))
        assert graph.nodes() == {"A", "B", "C"}
        assert graph.successors("A") == {"B"}
        assert graph.successors("C") == frozenset()

    def test_mappings_reading_and_writing(self):
        compiled = compile_mappings(travel_mappings())
        reading_t = {plan.tgd.name for plan in compiled.reading("T")}
        assert reading_t == {"sigma3", "sigma4"}
        writing_c = {plan.tgd.name for plan in compiled.writing("C")}
        assert writing_c == {"sigma2"}

    def test_by_name(self):
        mappings = travel_mappings()
        assert mappings.by_name("sigma3").rhs_relations() == {"R"}
        with pytest.raises(KeyError):
            mappings.by_name("sigma9")


class TestWeakAcyclicity:
    def test_acyclic_full_tgds_are_weakly_acyclic(self):
        assert is_weakly_acyclic(parse_tgds(["A(x) -> B(x)", "B(x) -> C(x)"]))

    def test_genealogy_tgd_is_not_weakly_acyclic(self):
        tgds = [parse_tgd("Person(x) -> exists y . Father(x, y), Person(y)")]
        assert not is_weakly_acyclic(tgds)

    def test_travel_mappings_are_not_weakly_acyclic(self):
        # sigma1/sigma2 form a cycle through an existential position, which is
        # exactly what classical update exchange systems forbid and Youtopia allows.
        assert not travel_mappings().is_weakly_acyclic()

    def test_cycle_without_existentials_is_weakly_acyclic(self):
        tgds = parse_tgds(["A(x) -> B(x)", "B(x) -> A(x)"])
        assert is_weakly_acyclic(tgds)
