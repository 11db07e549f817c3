"""Compiled match plans against the recursive join they replaced.

Random conjunctions — self-joins, repeated variables, constants — and seeds
binding random subsets of their variables, over every kind of view the chase
meets.  ``find_matches`` must return what the recursive oracle returns,
element for element and in order: each assignment with its bindings in the
same insertion order, each witness tuple, with and without ``limit=1``; and
``exists_match`` must agree with the oracle's ``limit=1`` answer.
"""

import random

import pytest

from oracles.recursive_join import find_matches_recursive
from repro.core.atoms import Atom
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull, Variable
from repro.core.tuples import Tuple
from repro.core.writes import delete, insert, modify
from repro.query.compiled import CompiledConjunction
from repro.storage.memory import MemoryDatabase
from repro.storage.overlay import OverlayView
from repro.storage.versioned import VersionedDatabase

SCHEMA = {"E": ["a", "b", "c"], "R": ["a", "b"], "S": ["a"]}
VARIABLES = [Variable(name) for name in "xyzw"]
CONSTANTS = [Constant(name) for name in "pqk"]
NULLS = [LabeledNull("n"), LabeledNull("m")]
POOL = CONSTANTS + NULLS


class _FirstColumnOnly(OverlayView):
    """A view whose probe reaches the index with its first bound column only."""

    def tuples_matching(self, relation, bound):
        return self._base.tuples_matching(relation, bound[:1])


def _random_row(rng):
    relation = rng.choice(sorted(SCHEMA))
    return Tuple(relation, [rng.choice(POOL) for _ in SCHEMA[relation]])


def _random_conjunction(rng):
    atoms = []
    for _ in range(rng.randint(1, 4)):
        relation = rng.choice(sorted(SCHEMA))
        terms = [
            rng.choice(CONSTANTS) if rng.random() < 0.2 else rng.choice(VARIABLES[:3])
            for _ in SCHEMA[relation]
        ]
        atoms.append(Atom(relation, terms))
    return CompiledConjunction(atoms)


def _random_seed(rng, conjunction):
    variables = sorted(conjunction.variable_set, key=lambda variable: variable.name)
    seed = {
        variable: rng.choice(POOL)
        for variable in variables
        if rng.random() < 0.4
    }
    if rng.random() < 0.2:
        seed[VARIABLES[3]] = rng.choice(POOL)  # a binding no atom mentions
    return seed


def _versioned(rng):
    store = VersionedDatabase(DatabaseSchema.from_dict(SCHEMA))
    rows = [_random_row(rng) for _ in range(70)]
    store.load_rows(rows[:30])
    for priority, row in enumerate(rows[30:], start=1):
        store.apply_write(insert(row), priority)
        if priority % 3 == 0:
            store.apply_write(delete(rng.choice(rows[:30])), priority)
        null = next((value for value in row.values if value in NULLS), None)
        if priority % 4 == 0 and null is not None:
            filled = row.substitute({null: CONSTANTS[1]})
            store.apply_write(modify(row, filled, null, CONSTANTS[1]), priority)
        if priority % 7 == 0:
            store.rollback(priority)
    return store


def _memory(rng):
    database = MemoryDatabase(DatabaseSchema.from_dict(SCHEMA))
    for _ in range(50):
        database.insert(_random_row(rng))
    return database


def _views(rng):
    store = _versioned(rng)
    memory = _memory(rng)
    views = [store.view_for(priority) for priority in (0, 12, 25, 40)]
    views += [memory, memory.snapshot(), store.materialize(20)]
    views += [_FirstColumnOnly(view) for view in (store.view_for(40), memory)]
    return views


def _in_order(matches):
    return [(list(assignment.items()), witness) for assignment, witness in matches]


@pytest.mark.parametrize("seed_value", range(6))
def test_match_plans_equal_the_recursive_join(seed_value):
    rng = random.Random(seed_value)
    views = _views(rng)
    total = 0
    for _ in range(40):
        conjunction = _random_conjunction(rng)
        seeds = [{}] + [_random_seed(rng, conjunction) for _ in range(3)]
        for view in views:
            for seed in seeds:
                untouched = dict(seed)
                expected = find_matches_recursive(conjunction, view, seed)
                actual = conjunction.find_matches(view, seed)
                assert _in_order(actual) == _in_order(expected)
                first = find_matches_recursive(conjunction, view, seed, limit=1)
                assert _in_order(conjunction.find_matches(view, seed, limit=1)) == (
                    _in_order(first)
                )
                assert conjunction.exists_match(view, seed) == bool(first)
                assert seed == untouched
                total += len(actual)
    assert total > 200


def test_empty_conjunction_matches_once():
    view = MemoryDatabase(DatabaseSchema.from_dict(SCHEMA))
    conjunction = CompiledConjunction([])
    seed = {VARIABLES[0]: CONSTANTS[0]}
    assert conjunction.find_matches(view, seed) == find_matches_recursive(
        conjunction, view, seed
    )
    assert conjunction.exists_match(view, seed)
