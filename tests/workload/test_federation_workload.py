"""Scenario-generator invariants and the federated closed-loop driver."""

from __future__ import annotations

import pytest

from drivers import FederatedClientSpec, FederatedClosedLoopDriver, all_operations
from repro.core.update import DeleteOperation, InsertOperation
from repro.federation import FederatedNetwork, Transport
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_invariants(seed):
    config = FederationScenarioConfig(num_peers=4, cross_mappings=6, seed=seed)
    environment = generate_federation_environment(config)

    # Ownership partitions the schema exactly.
    owned = [
        relation
        for relations in environment.ownership.values()
        for relation in relations
    ]
    assert sorted(owned) == sorted(environment.schema.relation_names())
    assert len(owned) == len(set(owned))

    # The union mapping graph is acyclic (and hence weakly acyclic): the
    # differential reference's always-expand chase must terminate.
    assert not environment.mappings.has_cycle()
    assert environment.mappings.is_weakly_acyclic()

    # Free relations are mentioned by no mapping; deletes target only them,
    # and only tuples present in the initial database.
    mapped_anywhere = set()
    for tgd in environment.mappings:
        mapped_anywhere.update(tgd.relations())
    for peer, relations in environment.ownership.items():
        free = [name for name in relations if name not in environment.mapped_relations[peer]]
        assert not mapped_anywhere.intersection(free)
    for peer, operations in environment.operations.items():
        assert operations
        for operation in operations:
            if isinstance(operation, DeleteOperation):
                assert operation.row.relation not in mapped_anywhere
                assert environment.ownership[peer].count(operation.row.relation) == 1
                assert environment.initial.contains(operation.row)
            else:
                assert isinstance(operation, InsertOperation)

    # The canonical serial order interleaves every stream completely.
    merged = all_operations(environment)
    assert len(merged) == sum(len(ops) for ops in environment.operations.values())

    # The generated initial database satisfies the union of mappings.
    from repro.core.violations import satisfies_all

    assert satisfies_all(list(environment.mappings), environment.initial)


def test_generator_produces_remote_and_deduplicated_deletes():
    environment = generate_federation_environment(
        FederationScenarioConfig(remote_insert_fraction=1.0, seed=0)
    )
    routed = 0
    deleted_rows = []
    for peer, operations in environment.operations.items():
        for operation in operations:
            if isinstance(operation, InsertOperation):
                if operation.row.relation not in environment.ownership[peer]:
                    routed += 1
            else:
                deleted_rows.append(operation.row)
    assert routed > 0
    assert len(deleted_rows) == len(set(deleted_rows))  # each tuple deleted once


def test_driver_runs_scenario_to_drained_completion():
    environment = generate_federation_environment(FederationScenarioConfig(seed=1))
    network = FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=Transport(delay=1),
    )
    specs = [
        FederatedClientSpec(peer=peer, name="client@{}".format(peer), operations=list(ops))
        for peer, ops in environment.operations.items()
    ]
    report = FederatedClosedLoopDriver(network, specs, answer_delay=1).run(
        max_rounds=3_000
    )
    assert report.all_done and report.drained
    assert report.submitted == sum(
        len(ops) for ops in environment.operations.values()
    )
    # Every federated ticket reached a terminal state.
    assert all(ticket.is_done for ticket in network.tickets())
    assert network.quiescent()
