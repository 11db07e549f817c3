"""Unit tests for relational atoms: matching, instantiation, renaming."""

import pytest

from repro.core.atoms import Atom, AtomError, atoms_relations, atoms_variables
from repro.core.terms import Constant, LabeledNull, Variable
from repro.core.tuples import make_tuple


class TestAtomConstruction:
    def test_lowercase_strings_become_variables(self):
        atom = Atom("T", ["n", "c", "cs"])
        assert atom.variables() == (Variable("n"), Variable("c"), Variable("cs"))

    def test_explicit_terms_pass_through(self):
        atom = Atom("C", [Variable("c")])
        assert atom.terms == (Variable("c"),)
        atom = Atom("C", [Constant("Ithaca")])
        assert atom.constants() == (Constant("Ithaca"),)

    def test_uppercase_strings_become_constants(self):
        atom = Atom("C", ["Ithaca"])
        assert atom.constants() == (Constant("Ithaca"),)

    def test_equality_and_hash(self):
        assert Atom("C", ["c"]) == Atom("C", ["c"])
        assert Atom("C", ["c"]) != Atom("C", ["d"])
        assert hash(Atom("C", ["c"])) == hash(Atom("C", ["c"]))


class TestInstantiate:
    def test_instantiation_builds_tuple(self):
        atom = Atom("R", ["c", "n", "r"])
        assignment = {
            Variable("c"): Constant("ABC"),
            Variable("n"): Constant("Falls"),
            Variable("r"): LabeledNull("x3"),
        }
        assert atom.instantiate(assignment) == make_tuple(
            "R", "ABC", "Falls", LabeledNull("x3")
        )

    def test_missing_binding_raises(self):
        atom = Atom("C", ["c"])
        with pytest.raises(AtomError):
            atom.instantiate({})

    def test_constants_pass_through(self):
        atom = Atom("C", [Constant("Ithaca")])
        assert atom.instantiate({}) == make_tuple("C", "Ithaca")


class TestMatch:
    def test_simple_match_binds_variables(self):
        atom = Atom("T", ["n", "c", "cs"])
        row = make_tuple("T", "Falls", "ABC", "Toronto")
        assignment = atom.match(row)
        assert assignment == {
            Variable("n"): Constant("Falls"),
            Variable("c"): Constant("ABC"),
            Variable("cs"): Constant("Toronto"),
        }

    def test_match_respects_existing_bindings(self):
        atom = Atom("T", ["n", "c", "cs"])
        row = make_tuple("T", "Falls", "ABC", "Toronto")
        assert atom.match(row, {Variable("n"): Constant("Falls")}) is not None
        assert atom.match(row, {Variable("n"): Constant("Other")}) is None

    def test_match_does_not_mutate_input_assignment(self):
        atom = Atom("C", ["c"])
        seed = {}
        atom.match(make_tuple("C", "Ithaca"), seed)
        assert seed == {}

    def test_repeated_variable_requires_equal_values(self):
        atom = Atom("S", ["a", "c", "c"])
        assert atom.match(make_tuple("S", "SYR", "Syracuse", "Syracuse")) is not None
        assert atom.match(make_tuple("S", "SYR", "Syracuse", "Ithaca")) is None

    def test_constant_in_atom_must_equal_row_value(self):
        atom = Atom("C", [Constant("Ithaca")])
        assert atom.match(make_tuple("C", "Ithaca")) == {}
        assert atom.match(make_tuple("C", "Syracuse")) is None

    def test_labeled_null_in_row_does_not_match_constant_in_atom(self):
        atom = Atom("C", [Constant("Ithaca")])
        assert atom.match(make_tuple("C", LabeledNull("x"))) is None

    def test_wrong_relation_or_arity(self):
        atom = Atom("C", ["c"])
        assert atom.match(make_tuple("D", "a")) is None
        assert atom.match(make_tuple("C", "a", "b")) is None


class TestRenameAndHelpers:
    def test_atoms_variables_and_relations(self):
        atoms = [Atom("A", ["l", "n"]), Atom("T", ["n", "c", "cs"])]
        assert atoms_variables(atoms) == {
            Variable("l"),
            Variable("n"),
            Variable("c"),
            Variable("cs"),
        }
        assert atoms_relations(atoms) == {"A", "T"}
