"""Tests for the compiled mapping plans and the seeded violation delta test."""

import random

from repro.core.atoms import Atom
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull, Variable
from repro.core.tgd import MappingSet
from repro.core.tuples import Tuple
from repro.core.writes import delete, insert, modify
from repro.fixtures import travel_database, travel_mappings
from repro.query.compiled import (
    CompiledConjunction,
    CompiledMappings,
    compile_mappings,
    get_plan,
)
from repro.query.homomorphism import find_matches
from repro.query.violation_query import ViolationQuery, violation_queries_for_write_row
from repro.storage.memory import MemoryDatabase
from repro.storage.overlay import OverlayView, view_without_write
from repro.storage.versioned import VersionedDatabase
from repro.workload.mapping_gen import generate_mappings
from repro.workload.schema_gen import generate_constant_pool, generate_schema


class TestPlanCache:
    def test_plans_are_shared_per_mapping(self):
        mappings = travel_mappings()
        tgd = mappings.by_name("sigma1")
        assert get_plan(tgd) is get_plan(tgd)

    def test_compiled_sets_match_tgd_accessors(self):
        for tgd in travel_mappings():
            plan = get_plan(tgd)
            assert plan.lhs_variables == tgd.lhs_variables()
            assert plan.rhs_variables == tgd.rhs_variables()
            assert plan.frontier_variables == tgd.frontier_variables()
            assert plan.existential_variables == tgd.existential_variables()
            assert plan.lhs_relations == tgd.lhs_relations()
            assert plan.rhs_relations == tgd.rhs_relations()
            assert set(plan.sorted_existentials) == tgd.existential_variables()

    def test_compiled_mappings_lookup_matches_mapping_set(self):
        mappings = travel_mappings()
        compiled = CompiledMappings(mappings)
        relations = set()
        for tgd in mappings:
            relations |= tgd.relations()
        for relation in relations:
            assert [plan.tgd for plan in compiled.reading(relation)] == [
                tgd for tgd in mappings if relation in tgd.lhs_relations()
            ]
            assert [plan.tgd for plan in compiled.writing(relation)] == [
                tgd for tgd in mappings if relation in tgd.rhs_relations()
            ]

    def test_compile_mappings_is_idempotent(self):
        compiled = compile_mappings(travel_mappings())
        assert compile_mappings(compiled) is compiled


class TestCompiledConjunction:
    def test_find_matches_agrees_with_homomorphism_search(self):
        database, mappings = travel_database(), travel_mappings()
        for tgd in mappings:
            plan = get_plan(tgd)
            expected = find_matches(tgd.lhs, database)
            actual = plan.lhs.find_matches(database)
            as_set = lambda matches: {
                (frozenset(assignment.items()), witness)
                for assignment, witness in matches
            }
            assert as_set(actual) == as_set(expected)

    def test_exists_match_agrees_on_seeded_searches(self):
        database, mappings = travel_database(), travel_mappings()
        for tgd in mappings:
            plan = get_plan(tgd)
            for assignment, _ in find_matches(tgd.lhs, database):
                exported = {
                    variable: value
                    for variable, value in assignment.items()
                    if variable in tgd.rhs_variables()
                }
                assert plan.rhs.exists_match(database, exported) == bool(
                    find_matches(tgd.rhs, database, exported, limit=1)
                )


class _FirstColumnOnly(OverlayView):
    """The probe as it was: only the first bound column reaches the index."""

    def tuples_matching(self, relation, bound):
        return self._base.tuples_matching(relation, bound[:1])


def test_multi_column_probe_leaves_self_join_matches_identical():
    """Same matches, same order, with every bound column in the probe.

    ``E(x, y, y), E(y, z, x), E(x, y, k)``: a self-join with a repeated
    variable, atoms probed with one, two and all three columns bound, over
    version chains with modified, deleted and rolled-back rows.
    """
    rng = random.Random(17)
    store = VersionedDatabase(DatabaseSchema.from_dict({"E": ["a", "b", "c"]}))
    null = LabeledNull("n")
    pool = [Constant(name) for name in "pqk"] + [null]
    rows = [Tuple("E", [rng.choice(pool) for _ in range(3)]) for _ in range(60)]
    store.load_rows(rows[:25])
    for priority, row in enumerate(rows[25:], start=1):
        store.apply_write(insert(row), priority)
        if priority % 4 == 0:
            store.apply_write(delete(rng.choice(rows[:25])), priority)
        if priority % 5 == 0 and null in row.values:
            filled = row.substitute({null: Constant("q")})
            store.apply_write(modify(row, filled, null, Constant("q")), priority)
        if priority % 7 == 0:
            store.rollback(priority)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    conjunction = CompiledConjunction(
        [Atom("E", [x, y, y]), Atom("E", [y, z, x]), Atom("E", [x, y, Constant("k")])]
    )
    total = 0
    for priority in (0, 9, 20, 40):
        view = store.view_for(priority)
        for seed in ({}, {x: Constant("p")}, {y: null}, {x: Constant("k"), z: Constant("q")}):
            matches = conjunction.find_matches(view, seed)
            assert matches == conjunction.find_matches(_FirstColumnOnly(view), seed)
            total += len(matches)
    assert total > 20


def _full_affected(query, write, view):
    """The historical delta test: evaluate fully on both sides."""
    if not query.might_be_affected_by(write):
        return False
    return query.evaluate(view) != query.evaluate(view_without_write(view, write))


class TestSeededDeltaTest:
    """The seeded ``ViolationQuery.affected_by`` must equal double evaluation."""

    def _random_value(self, rng, pool, nulls):
        if rng.random() < 0.3:
            return nulls[rng.randrange(len(nulls))]
        return Constant(pool[rng.randrange(len(pool))])

    def test_differential_against_full_evaluation(self):
        mismatches = []
        checks = 0
        for seed in range(8):
            rng = random.Random(seed)
            schema = generate_schema(num_relations=5, rng=random.Random(rng.random()))
            pool = generate_constant_pool(size=6, rng=random.Random(rng.random()))
            mappings = generate_mappings(
                schema, 6, rng=random.Random(rng.random()), constant_pool=pool
            )
            database = MemoryDatabase(schema)
            nulls = [LabeledNull("x{}".format(index)) for index in range(4)]
            relations = schema.relation_names()
            rows = []
            for _ in range(rng.randrange(5, 25)):
                relation = relations[rng.randrange(len(relations))]
                row = Tuple(
                    relation,
                    tuple(
                        self._random_value(rng, pool, nulls)
                        for _ in range(schema.arity_of(relation))
                    ),
                )
                database.insert(row)
                rows.append(row)
            for _ in range(25):
                relation = relations[rng.randrange(len(relations))]
                fresh = Tuple(
                    relation,
                    tuple(
                        self._random_value(rng, pool, nulls)
                        for _ in range(schema.arity_of(relation))
                    ),
                )
                roll = rng.random()
                if roll < 0.5:
                    write = insert(fresh)
                    database.insert(fresh)
                elif rows and roll < 0.8:
                    victim = rows[rng.randrange(len(rows))]
                    write = delete(victim)
                    database.delete(victim)
                else:
                    candidates = [row for row in rows if row.null_set() and database.contains(row)]
                    if not candidates:
                        continue
                    old = candidates[rng.randrange(len(candidates))]
                    null = sorted(old.null_set(), key=lambda n: n.name)[0]
                    new = old.substitute({null: Constant(pool[0])})
                    if new == old:
                        continue
                    write = modify(old, new, null, Constant(pool[0]))
                    database.delete(old)
                    database.insert(new)
                for tgd in mappings:
                    queries = [ViolationQuery(tgd)]
                    touched = write.added_row() or write.row
                    queries += violation_queries_for_write_row(tgd, touched, removed=False)
                    if write.removed_row() is not None:
                        queries += violation_queries_for_write_row(
                            tgd, write.removed_row(), removed=True
                        )
                    for query in queries:
                        checks += 1
                        if query.affected_by(write, database) != _full_affected(
                            query, write, database
                        ):
                            mismatches.append((seed, write, query))
        assert checks > 500
        assert not mismatches

    def test_seeded_delta_on_travel_fixture(self):
        database, mappings = travel_database(), travel_mappings()
        removed = Tuple("R", (Constant("XYZ"), Constant("Geneva Winery"), Constant("Great!")))
        write = delete(removed)
        database.delete(removed)
        for tgd in mappings:
            query = ViolationQuery(tgd)
            assert query.affected_by(write, database) == _full_affected(
                query, write, database
            )
