"""Kill-and-restart differential: a restored peer rejoins and still converges.

The acceptance test of the snapshot/restore path: run a generated multi-peer
workload over the byte transport, and *mid-workload* — with envelopes in
flight and uncommitted work on the victim's scheduler — checkpoint one peer,
drop it entirely (service, store, scheduler, sessions: that is the crash) and
rebuild it from the checkpoint file.  The drained federation must still match
the single-repository chase over the union of mappings, up to null renaming
(hom-equivalence; ground parts exactly equal) — the same criterion as every
other convergence differential.
"""

from __future__ import annotations

import pytest

from repro.core.oracle import AlwaysExpandOracle
from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import (
    FederatedNetwork,
    Transport,
    check_convergence,
    reference_chase,
)
from repro.obs import Tracer
from repro.storage.memory import FrozenDatabase
from repro.workload.federated_loop import expanding_answer
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)


def _build_network(environment, delay=1):
    return FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=Transport(delay=delay),
    )


def _answer_open_questions(network):
    for peer_name in network.peer_names():
        for question in network.inbox(peer_name):
            network.answer(peer_name, question, expanding_answer(question))


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
    "seed,victim_index,kill_round",
    [(0, 0, 2), (0, 1, 3), (1, 2, 2), (2, 1, 1), (3, 0, 3)],
)
def test_kill_and_restart_mid_workload_converges(tmp_path, seed, victim_index, kill_round):
    config = FederationScenarioConfig(
        num_peers=3,
        cross_mappings=6,
        operations_per_peer=6,
        remote_insert_fraction=0.3,
        seed=seed,
    )
    environment = generate_federation_environment(config)
    network = _build_network(environment)
    for peer, operations in environment.operations.items():
        for operation in operations:
            network.submit(peer, operation)
    # Run a few rounds so the victim is genuinely mid-workload at the kill.
    for _ in range(kill_round):
        network.pump()
        _answer_open_questions(network)
    assert not network.quiescent(), "kill must happen before the run drains"

    victim = network.peer_names()[victim_index]
    path = str(tmp_path / "{}.ckpt".format(victim))
    body = network.peer(victim).checkpoint(path)
    busy = (
        bool(body["pending"])
        or network.transport.in_flight > 0
        or any(not t.is_done for t in network.tickets())
    )
    assert busy, "the scenario should leave work outstanding at the kill point"

    old_service = network.peer(victim).service
    reborn = network.restart_peer(victim, path)
    assert reborn.service is not old_service  # the old process is gone
    assert network.peer(victim) is reborn

    network.run_until_quiescent(answer_strategy=expanding_answer, max_rounds=5_000)
    _assert_converges(environment, network)


def test_restart_preserves_committed_state_exactly(tmp_path):
    """A quiescent peer restored from checkpoint serves identical reads."""
    config = FederationScenarioConfig(num_peers=3, cross_mappings=4, seed=5)
    environment = generate_federation_environment(config)
    network = _build_network(environment)
    for peer, operations in environment.operations.items():
        for operation in operations:
            network.submit(peer, operation)
    network.run_until_quiescent(answer_strategy=expanding_answer, max_rounds=5_000)
    victim = network.peer_names()[0]
    before = network.peer(victim).owned_snapshot()
    path = str(tmp_path / "quiesced.ckpt")
    network.checkpoint_peer(victim, path)
    network.restart_peer(victim, path)
    assert network.peer(victim).owned_snapshot() == before
    assert network.quiescent()
    _assert_converges(environment, network)


def test_restart_under_partition_then_heal_converges(tmp_path):
    """Held envelopes survive the restart on the transport and deliver after."""
    config = FederationScenarioConfig(
        num_peers=3, cross_mappings=6, remote_insert_fraction=0.4, seed=7
    )
    environment = generate_federation_environment(config)
    network = _build_network(environment)
    peers = network.peer_names()
    network.partition(peers[0], peers[1])
    for peer, operations in environment.operations.items():
        for operation in operations:
            network.submit(peer, operation)
    for _ in range(6):
        network.pump()
        _answer_open_questions(network)
    links = [
        network.transport.link(peers[0], peers[1]),
        network.transport.link(peers[1], peers[0]),
    ]
    assert all(link.held for link in links)
    held = sum(link.queued for link in links)
    path = str(tmp_path / "partitioned.ckpt")
    network.peer(peers[1]).checkpoint(path)
    network.restart_peer(peers[1], path)
    assert sum(link.queued for link in links) == held  # nothing lost
    network.heal(peers[0], peers[1])
    network.run_until_quiescent(answer_strategy=expanding_answer, max_rounds=5_000)
    _assert_converges(environment, network)


def test_restarted_peer_keeps_the_network_tracer(tmp_path):
    """A reborn peer's service records into the network's tracer, under its
    own peer label, exactly like the peer it replaced."""
    schema = DatabaseSchema.from_dict(
        {"A1": ["x"], "A2": ["x", "y"], "B1": ["x"], "B2": ["x"]}
    )
    initial = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    tracer = Tracer()
    network = FederatedNetwork(
        schema,
        initial,
        parse_tgds(
            ["A1(x) -> exists y . A2(x, y)", "A2(x, y) -> B1(x)", "B1(x) -> B2(x)"]
        ),
        {"a": ["A1", "A2"], "b": ["B1", "B2"]},
        tracer=tracer,
    )
    network.submit("a", InsertOperation(make_tuple("A1", "v1")))
    network.run_until_quiescent()
    path = str(tmp_path / "b.ckpt")
    network.checkpoint_peer("b", path)
    network.restart_peer("b", path)
    assert network.peer("b").service.tracer is tracer

    before = sum(1 for span in tracer.spans if span.peer == "b")
    network.submit("b", InsertOperation(make_tuple("B1", "w1")))
    network.run_until_quiescent()
    after = sum(1 for span in tracer.spans if span.peer == "b")
    assert after > before
    assert network.global_snapshot().count("B2") == 2
