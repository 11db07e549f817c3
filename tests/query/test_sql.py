"""Tests for SQL generation and the SQLite backend's query evaluation.

The in-memory evaluator and the SQLite-generated SQL must agree on the travel
fixture and on randomly generated small databases.
"""

import random

import pytest

from oracles.conjunctive import ConjunctiveQuery
from oracles.sql import decode_row, decode_term, encode_row, encode_term
from oracles.sqlite_backend import SQLiteDatabase
from repro.core.atoms import Atom
from repro.core.terms import Constant, LabeledNull, Variable
from repro.core.tuples import Tuple, make_tuple
from repro.query.violation_query import ViolationQuery
from repro.workload.mapping_gen import generate_mappings
from repro.workload.schema_gen import generate_constant_pool, generate_schema


class TestTermEncoding:
    def test_round_trip_constants_and_nulls(self):
        assert decode_term(encode_term(Constant("Ithaca"))) == Constant("Ithaca")
        assert decode_term(encode_term(LabeledNull("x3"))) == LabeledNull("x3")

    def test_rows_round_trip(self):
        row = make_tuple("R", "XYZ", LabeledNull("x2"), "ok")
        assert decode_row("R", encode_row(row)) == row

    def test_malformed_encoding_rejected(self):
        with pytest.raises(ValueError):
            decode_term("weird")


@pytest.fixture
def sqlite_travel(travel_db):
    database = SQLiteDatabase(travel_db.schema)
    database.load_from(travel_db)
    yield database
    database.close()


class TestSQLiteAgainstMemory:
    def test_conjunctive_queries_agree(self, travel_db, sqlite_travel):
        atoms = [Atom("A", ["l", "n"]), Atom("T", ["n", "c", "cs"])]
        answers = [Variable("n"), Variable("c")]
        memory_result = ConjunctiveQuery(atoms, answers).evaluate(travel_db)
        sqlite_result = sqlite_travel.evaluate_conjunctive_sql(atoms, answers)
        assert memory_result == sqlite_result

    def test_violation_queries_agree_on_satisfied_database(self, travel, sqlite_travel):
        _, mappings = travel
        for tgd in mappings:
            assert sqlite_travel.evaluate_violation_sql(tgd) == frozenset()

    def test_violation_queries_agree_after_a_delete(self, travel, sqlite_travel):
        database, mappings = travel
        removed = make_tuple("R", "XYZ", "Geneva Winery", "Great!")
        database.delete(removed)
        sqlite_travel.delete(removed)
        sigma3 = mappings.by_name("sigma3")
        memory_bindings = {
            row.bindings for row in ViolationQuery(sigma3).evaluate(database)
        }
        sqlite_bindings = sqlite_travel.evaluate_violation_sql(sigma3)
        assert memory_bindings == sqlite_bindings

    def test_randomized_cross_check(self):
        rng = random.Random(99)
        schema = generate_schema(num_relations=4, max_arity=3, rng=rng)
        pool = generate_constant_pool(size=6, rng=rng)
        mappings = generate_mappings(schema, 5, rng=rng, constant_pool=pool)
        from repro.storage.memory import MemoryDatabase

        memory = MemoryDatabase(schema)
        sqlite = SQLiteDatabase(schema)
        for _ in range(60):
            relation = rng.choice(schema.relation_names())
            values = [
                LabeledNull("n{}".format(rng.randint(1, 4)))
                if rng.random() < 0.2
                else rng.choice(pool)
                for _ in range(schema.arity_of(relation))
            ]
            row = Tuple(relation, values)
            memory.insert(row)
            sqlite.insert(row)
        for tgd in mappings:
            memory_bindings = {
                row.bindings for row in ViolationQuery(tgd).evaluate(memory)
            }
            assert memory_bindings == sqlite.evaluate_violation_sql(tgd)
        sqlite.close()
