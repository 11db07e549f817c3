"""The single-version stores' shared probes against their references.

``MemoryDatabase`` and ``FrozenDatabase`` answer ``tuples_matching``,
``more_specific_tuples`` and ``tuples_containing_null`` through one
implementation over a position index.  Randomized stores with repeated
nulls, probed with all-null patterns, contradicting pairs and wrong-arity
patterns, hold it to two references:

* on a ``MemoryDatabase`` the answers must equal the earlier probes
  (``tests/oracles/memory_probes.py``) as *lists*, order included — the
  chase offers correction candidates in that order, so the initial
  databases the generator builds depend on it;
* on a ``FrozenDatabase`` (which builds its index on the first probe) they
  must equal the interface's scanning defaults as *sets*.

The last tests run the initial-database generator (Section 6 and a
federation scenario) on a store answering with the reference probes and on
the real one: the databases must be identical.
"""

import random

import pytest

from oracles import memory_probes
from oracles.probe import (
    assert_correction_queries_match_default,
    assert_probe_matches_default,
    probes_for,
)
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple
from repro.storage.memory import FrozenDatabase, MemoryDatabase
from repro.workload import ExperimentConfig, build_environment
from repro.workload import data_gen
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

SCHEMA = DatabaseSchema.from_dict({"P": ["a", "b"], "Q": ["a", "b", "c"], "R": ["a"]})
CONSTANTS = [Constant("c{}".format(index)) for index in range(3)]
NULLS = [LabeledNull("n{}".format(index)) for index in range(3)]


def _term(rng, null_share):
    return rng.choice(NULLS) if rng.random() < null_share else rng.choice(CONSTANTS)


def _random_store(rng):
    """Inserts, deletes and a null replacement over a small value pool."""
    database = MemoryDatabase(SCHEMA)
    for _ in range(60):
        relation = rng.choice(SCHEMA.relation_names())
        row = Tuple(
            relation, [_term(rng, 0.3) for _ in range(SCHEMA.arity_of(relation))]
        )
        if rng.random() < 0.8:
            database.insert(row)
        else:
            database.delete(row)
    for row in list(database.tuples_containing_null(NULLS[2])):
        database.delete(row)
        database.insert(row.substitute({NULLS[2]: CONSTANTS[0]}))
    return database


def _patterns(rng, database):
    """Stored rows, random patterns (repeated and all nulls), wrong arities."""
    patterns = [row for name in database.relations() for row in database.tuples(name)]
    for relation in SCHEMA.relation_names():
        arity = SCHEMA.arity_of(relation)
        patterns.append(Tuple(relation, NULLS[:1] * arity))
        patterns.append(Tuple(relation, NULLS[:arity]))
        for _ in range(12):
            patterns.append(Tuple(relation, [_term(rng, 0.6) for _ in range(arity)]))
        for wrong in (arity - 1, arity + 1):
            if wrong:
                patterns.append(Tuple(relation, [_term(rng, 0.6) for _ in range(wrong)]))
                patterns.append(Tuple(relation, NULLS[:1] * wrong))
    return patterns


def _bounds(rng, row):
    """Probe shapes for *row*'s relation: prefixes, reversals, contradictions."""
    bounds = probes_for(row, (Constant("nowhere"), NULLS[0]))
    arity = SCHEMA.arity_of(row.relation)
    for _ in range(4):
        positions = [rng.randrange(arity) for _ in range(rng.randrange(1, arity + 2))]
        bounds.append([(position, _term(rng, 0.3)) for position in positions])
    return bounds


def _in_range(row):
    return len(row.values) == SCHEMA.arity_of(row.relation)


@pytest.mark.parametrize("seed", [1, 5, 17, 2026])
def test_memory_probes_equal_the_reference_in_order(seed):
    rng = random.Random(seed)
    database = _random_store(rng)
    for pattern in _patterns(rng, database):
        assert database.more_specific_tuples(pattern) == (
            memory_probes.more_specific_tuples(database, pattern)
        ), pattern
        if not _in_range(pattern):
            continue
        for bound in _bounds(rng, pattern):
            assert list(database.tuples_matching(pattern.relation, bound)) == list(
                memory_probes.tuples_matching(database, pattern.relation, bound)
            ), bound
            assert_probe_matches_default(database, pattern.relation, bound, ordered=True)
        assert_correction_queries_match_default(database, pattern)


@pytest.mark.parametrize("seed", [2, 9, 31])
def test_frozen_probes_equal_the_scanning_default(seed):
    rng = random.Random(seed)
    database = _random_store(rng)
    frozen = database.snapshot()
    for pattern in _patterns(rng, database):
        assert_correction_queries_match_default(frozen, pattern)
        assert set(frozen.more_specific_tuples(pattern)) == set(
            database.more_specific_tuples(pattern)
        )
        if not _in_range(pattern):
            continue
        for bound in _bounds(rng, pattern):
            assert_probe_matches_default(frozen, pattern.relation, bound)


def test_frozen_index_is_built_once_on_the_first_probe():
    database = _random_store(random.Random(3))
    frozen = database.snapshot()
    assert frozen.count("P") == database.count("P")
    assert frozen._index is None, "counting and scanning need no index"
    list(frozen.tuples_matching("P", [(0, CONSTANTS[0])]))
    index = frozen._index
    assert index is not None and len(index) == database.total_count()
    frozen.more_specific_tuples(Tuple("Q", NULLS))
    assert frozen._index is index
    # A later write to the source store does not reach the snapshot.
    database.insert(Tuple("R", [Constant("later")]))
    assert list(frozen.tuples_matching("R", [(0, Constant("later"))])) == []


def test_frozen_probes_over_empty_relations():
    frozen = FrozenDatabase(SCHEMA, {"P": frozenset(), "R": frozenset()})
    assert list(frozen.tuples_matching("P", [(0, CONSTANTS[0])])) == []
    assert frozen.more_specific_tuples(Tuple("P", NULLS[:1] * 2)) == []
    assert list(frozen.tuples_containing_null(NULLS[0])) == []


@pytest.fixture
def reference_generator(monkeypatch):
    """Run the initial-database generator on the reference-probe store."""

    def generate(build):
        monkeypatch.setattr(
            data_gen, "MemoryDatabase", memory_probes.ReferenceMemoryDatabase
        )
        reference = build()
        monkeypatch.setattr(data_gen, "MemoryDatabase", MemoryDatabase)
        return reference, build()

    return generate


def test_generated_section6_database_is_unchanged(reference_generator):
    # The repo_batch environment (the Section 6 defaults).
    reference, current = reference_generator(
        lambda: build_environment(ExperimentConfig()).initial
    )
    assert current.to_dict() == reference.to_dict()
    assert current.total_count() > 0


def test_generated_federation_database_is_unchanged(reference_generator):
    # The mixed scenario the socket and in-process mixed workloads deploy.
    config = FederationScenarioConfig(
        num_peers=4, relations_per_peer=5, cross_mappings=10,
        initial_tuples=1200, operations_per_peer=0, seed=7,
    )
    reference, current = reference_generator(
        lambda: generate_federation_environment(config).initial
    )
    assert current.to_dict() == reference.to_dict()
    assert current.total_count() > 0
