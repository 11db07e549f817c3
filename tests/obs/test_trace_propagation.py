"""Cross-peer trace propagation under adversarial transports.

Two properties, asserted over randomized federated runs with delivery delay,
reordering, and a partition that later heals:

1. **Causality**: every span opened for remotely-absorbed work (exchange
   firings, retractions, forwarded updates) walks its parent links back to
   exactly one root span, and that root is an originating *user* operation.
   No orphans, no roots created mid-exchange.
2. **Heisenberg-freedom**: running the identical scenario with tracing on
   and off produces the same convergence result and the same deterministic
   cost panel — instrumenting the run must not change it.
"""

from __future__ import annotations

import pytest

from drivers import FederatedClientSpec, FederatedClosedLoopDriver, all_operations
from repro.core.oracle import AlwaysExpandOracle
from repro.federation import FederatedNetwork, Transport
from repro.obs.analysis import TraceAnalysis
from repro.obs.trace import Tracer
from repro.workload.federated_loop import expanding_answer
from repro.federation.convergence import check_convergence, reference_chase
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

REMOTE_EXCHANGE_OPS = ("RemoteFiringOperation", "RemoteRetractionOperation")


def _run(environment, transport, tracer=None, answer_delay=1):
    network = FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=transport,
        tracer=tracer,
    )
    specs = [
        FederatedClientSpec(peer=peer, name="client@{}".format(peer), operations=list(ops))
        for peer, ops in environment.operations.items()
    ]
    driver = FederatedClosedLoopDriver(
        network, specs, answer_delay=answer_delay, answer_strategy=expanding_answer
    )
    report = driver.run(max_rounds=5_000)
    assert report.all_done and report.drained
    return network


def _reference(environment):
    reference = reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        all_operations(environment),
        oracle=AlwaysExpandOracle(),
    )
    assert reference.all_terminated
    return reference


def _cost_panel(network):
    """The deterministic slice of the metrics snapshot.

    Wall-clock keys vary run to run regardless of tracing; wire-byte keys
    legitimately grow under tracing (envelopes carry the ``tr`` context).
    Every remaining counter must be identical traced vs untraced.
    """
    excluded = ("seconds", "bytes", "throughput", "abort_rate")
    return {
        key: value
        for key, value in network.metrics().items()
        if not any(marker in key for marker in excluded)
    }


def _assert_causal_closure(analysis):
    """Every remote continuation chains back to exactly one user root."""
    continuations = analysis.remote_continuations()
    assert continuations, "scenario produced no cross-peer work"
    exchange_continuations = 0
    for span in continuations:
        chain = analysis.causal_chain(span)
        root = chain[0]
        assert root.parent_id is None, "chain did not reach a root"
        assert root.name == "update"
        assert root.attrs.get("kind") == "user", (
            "remote span {} roots in {!r}, not a user operation".format(
                span.span_id, root.attrs
            )
        )
        # Exactly one root: the walk is a single path, and the trace has a
        # single parentless span.
        roots = [s for s in analysis.traces[span.trace_id] if s.parent_id is None]
        assert len(roots) == 1
        if span.attrs.get("op_type") in REMOTE_EXCHANGE_OPS:
            exchange_continuations += 1
    assert exchange_continuations > 0, "no firing/retraction crossed a peer boundary"


@pytest.mark.parametrize("seed,delay,reorder", [(0, 1, None), (1, 2, 7), (2, 2, 11)])
def test_remote_spans_root_in_user_operations(seed, delay, reorder):
    config = FederationScenarioConfig(
        num_peers=3,
        cross_mappings=6,
        remote_insert_fraction=0.3,
        seed=seed,
    )
    environment = generate_federation_environment(config)
    tracer = Tracer()
    network = _run(
        environment,
        Transport(delay=delay, reorder_seed=reorder),
        tracer=tracer,
    )
    _assert_causal_closure(TraceAnalysis(tracer.spans))
    assert check_convergence(network, _reference(environment)).equivalent


def test_partition_heal_preserves_causal_chains():
    config = FederationScenarioConfig(
        num_peers=3, cross_mappings=6, remote_insert_fraction=0.5, seed=4
    )
    environment = generate_federation_environment(config)
    tracer = Tracer()
    network = FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=Transport(delay=1),
        tracer=tracer,
    )
    peers = environment.config.peer_names()
    network.partition(peers[0], peers[1])
    network.partition(peers[1], peers[2])
    for peer, operations in environment.operations.items():
        for operation in operations:
            network.submit(peer, operation)
    for _ in range(40):
        network.pump()
        for peer_name in network.peer_names():
            for question in network.inbox(peer_name):
                network.answer(peer_name, question, expanding_answer(question))
    assert network.transport.in_flight > 0
    network.heal(peers[0], peers[1])
    network.heal(peers[1], peers[2])
    network.drain(answer_strategy=expanding_answer)
    analysis = TraceAnalysis(tracer.spans)
    _assert_causal_closure(analysis)
    # Envelopes held behind the partition still carried their contexts: at
    # least one reconstructed chain crosses peers.
    assert analysis.cross_peer_chains()
    assert check_convergence(network, _reference(environment)).equivalent


def assert_routed_chains(analysis):
    """Every routed user root is closed at its submitting peer, and the
    owner's ``remote`` update span under it ends with the terminal status."""
    routed = [
        span for span in analysis.spans
        if span.name == "update" and "routed_to" in span.attrs
    ]
    assert routed, "no user operation was routed"
    chained = {
        chain[0].span_id: chain for chain in analysis.cross_peer_chains()
    }
    for root in routed:
        assert root.parent_id is None and root.attrs["kind"] == "user"
        assert root.end is not None, "routed root left open"
        (remote,) = [
            span for span in analysis.spans
            if span.parent_id == root.span_id and span.name == "update"
        ]
        assert remote.attrs["kind"] == "remote"
        assert remote.peer == root.attrs["routed_to"] != root.peer
        assert remote.attrs["status"] in ("committed", "failed")
        assert chained[root.span_id][:2] == [root, remote]


def test_routed_operation_chains_from_submitter_to_owner():
    config = FederationScenarioConfig(
        num_peers=3, cross_mappings=6, remote_insert_fraction=0.5, seed=1
    )
    environment = generate_federation_environment(config)
    tracer = Tracer()
    _run(environment, Transport(delay=1), tracer=tracer)
    assert_routed_chains(TraceAnalysis(tracer.spans))


@pytest.mark.parametrize("seed", [0, 3])
def test_tracing_does_not_change_the_run(seed):
    config = FederationScenarioConfig(
        num_peers=3,
        cross_mappings=6,
        remote_insert_fraction=0.3,
        seed=seed,
    )
    reference = _reference(generate_federation_environment(config))

    untraced = _run(
        generate_federation_environment(config),
        Transport(delay=1, reorder_seed=seed),
        tracer=None,
    )
    traced = _run(
        generate_federation_environment(config),
        Transport(delay=1, reorder_seed=seed),
        tracer=Tracer(),
    )
    assert check_convergence(untraced, reference).equivalent
    assert check_convergence(traced, reference).equivalent
    assert _cost_panel(untraced) == _cost_panel(traced)
    # Tracing did record something — the differential is not vacuous.
    assert traced.tracer.spans


def test_each_hop_records_both_halves_and_in_process_transit():
    """Every hop's sender and receiver record a ``wire`` half-span; the
    transport hands the send clock to the receiving runtime, so its half
    covers the hop's time on the link, which the breakdown calls transit."""
    config = FederationScenarioConfig(
        num_peers=3, cross_mappings=6, remote_insert_fraction=0.3, seed=0
    )
    tracer = Tracer()
    _run(generate_federation_environment(config), Transport(delay=1), tracer=tracer)
    wire = [span for span in tracer.spans if span.phase == "wire"]
    sent = [span for span in wire if "encode_seconds" in span.attrs]
    received = [span for span in wire if "decode_seconds" in span.attrs]
    assert sent and len(sent) == len(received) == len(wire) // 2
    assert all(span.peer != span.attrs["destination"] for span in sent)
    assert all(span.peer == span.attrs["destination"] for span in received)
    assert TraceAnalysis(tracer.spans).phase_breakdown()["transit"] > 0


def test_wire_bytes_by_kind_counts_each_hop_once():
    """Both halves of a hop carry its bytes; the analysis counts the
    sender's only, so its total is what the transport carried."""
    config = FederationScenarioConfig(
        num_peers=3, cross_mappings=6, remote_insert_fraction=0.3, seed=0
    )
    tracer = Tracer()
    network = _run(
        generate_federation_environment(config), Transport(delay=1), tracer=tracer
    )
    by_kind = TraceAnalysis(tracer.spans).wire_bytes_by_kind()
    assert sum(by_kind.values()) == network.transport.wire_bytes_sent > 0
    assert by_kind == network.transport.wire_bytes_by_kind
