"""Heterogeneous federations: slow archive, fast edge — generated and run.

``FederationScenarioConfig(heterogeneous=True)`` augments a generated
scenario with per-peer admission configs (the first peer is a tightly
admitted archive, the last a wide-open edge) and per-directed-link delay
draws (archive links always at the maximum).  The scenario *content* —
schema, mappings, initial database, operation streams — is identical to the
homogeneous generation under the same seed, so recorded numbers stay
comparable; only the serving policies differ.
"""

from __future__ import annotations

from drivers import FederatedClientSpec, FederatedClosedLoopDriver, all_operations
from repro.core.oracle import AlwaysExpandOracle
from repro.federation import (
    FederatedNetwork,
    Transport,
    check_convergence,
    reference_chase,
)
from repro.workload.federated_loop import expanding_answer
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)


def _config(**overrides):
    defaults = dict(
        num_peers=3,
        cross_mappings=4,
        operations_per_peer=4,
        initial_tuples=16,
        seed=11,
        heterogeneous=True,
        min_link_delay=0,
        max_link_delay=2,
    )
    defaults.update(overrides)
    return FederationScenarioConfig(**defaults)


def test_heterogeneous_generation_shapes():
    environment = generate_federation_environment(_config())
    peers = environment.config.peer_names()
    configs = environment.admission_configs
    assert configs is not None and set(configs) == set(peers)
    archive, edge = configs[peers[0]], configs[peers[-1]]
    # Archive tight, edge wide, interpolation monotone.
    assert archive.max_in_flight < edge.max_in_flight
    assert archive.batch_size <= edge.batch_size
    assert not archive.compatible_groups and edge.compatible_groups
    in_flights = [configs[peer].max_in_flight for peer in peers]
    assert in_flights == sorted(in_flights)
    # Every directed link has a delay in range; archive links at the maximum.
    assert len(environment.link_delays) == len(peers) * (len(peers) - 1)
    for (source, destination), delay in environment.link_delays.items():
        assert 0 <= delay <= environment.config.max_link_delay
        if peers[0] in (source, destination):
            assert delay == environment.config.max_link_delay


def test_homogeneous_scenario_content_is_unchanged():
    hetero = generate_federation_environment(_config())
    homo = generate_federation_environment(_config(heterogeneous=False))
    assert homo.admission_configs is None and homo.link_delays == {}
    assert list(hetero.mappings) == list(homo.mappings)
    assert hetero.initial.to_dict() == homo.initial.to_dict()
    assert {
        peer: [op.describe() for op in ops] for peer, ops in hetero.operations.items()
    } == {
        peer: [op.describe() for op in ops] for peer, ops in homo.operations.items()
    }


def test_heterogeneous_federation_converges():
    environment = generate_federation_environment(_config())
    transport = Transport(delay=1)
    for (source, destination), delay in environment.link_delays.items():
        transport.set_delay(source, destination, delay)
    network = FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=transport,
        admission=environment.admission_configs,
    )
    # Per-link delays actually took effect.
    peers = environment.config.peer_names()
    assert (
        transport.delay_of(peers[0], peers[1])
        == environment.config.max_link_delay
    )
    specs = [
        FederatedClientSpec(peer=peer, name="client@{}".format(peer), operations=list(ops))
        for peer, ops in environment.operations.items()
    ]
    driver = FederatedClosedLoopDriver(
        network, specs, answer_delay=1, answer_strategy=expanding_answer
    )
    report = driver.run(max_rounds=5_000)
    assert report.all_done and report.drained
    reference = reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        all_operations(environment),
        oracle=AlwaysExpandOracle(),
    )
    assert check_convergence(network, reference).equivalent
    # The archive really is the tightly admitted peer.
    archive_service = network.peer(peers[0]).service
    assert archive_service.scheduler is not None
