"""The in-process federation's metrics snapshot: which keys, in which order.

``bench/workloads.py`` folds six of these keys into its per-layer numbers,
and the registry promises a stable key order.  Values are not pinned here:
they are the differentials' business, and this directory runs under several
hash seeds.
"""

from __future__ import annotations

from drivers import FederatedClientSpec, FederatedClosedLoopDriver
from repro.federation import FederatedNetwork, Transport
from repro.workload.federated_loop import expanding_answer
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

#: What ``bench/workloads.py`` reads from ``FederatedNetwork.metrics()``.
BENCH_KEYS = (
    "transport_sent",
    "transport_payloads_sent",
    "transport_wire_bytes_sent",
    "deliveries_deferred",
    "answers_dropped",
    "envelopes_coalesced",
)

PEER_KEYS = (
    "committed", "parks", "resumes", "restarts", "store_log_entries", "store_versions",
)

EXPECTED_KEYS = [
    "peers",
    "updates_routed",
    "firings_delivered",
    "retractions_delivered",
    "questions_routed",
    "answers_routed",
    "answers_dropped",
    "question_cancellations",
    "deliveries_deferred",
    "firings_emitted",
    "retractions_emitted",
    "envelopes_coalesced",
    "transport_sent",
    "transport_delivered",
    "transport_in_flight",
    "transport_partitioned_pairs",
    "transport_bundles_sent",
    "transport_payloads_sent",
    "transport_wire_bytes_sent",
    "transport_wire_bytes_bundle",
    "transport_wire_bytes_firing",
    "transport_wire_bytes_question_answer",
    "transport_wire_bytes_question_opened",
    "transport_wire_bytes_remote_update",
] + [
    "peer_{}_{}".format(peer, key) for peer in ("p0", "p1", "p2") for key in PEER_KEYS
]


def test_metrics_keys_and_their_order_on_a_seeded_run():
    environment = generate_federation_environment(FederationScenarioConfig(
        num_peers=3,
        cross_mappings=8,
        operations_per_peer=8,
        remote_insert_fraction=0.4,
        seed=0,
    ))
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
    report = FederatedClosedLoopDriver(
        network, specs, answer_delay=1, answer_strategy=expanding_answer
    ).run(max_rounds=5_000)
    assert report.all_done and report.drained
    metrics = network.metrics()
    assert list(metrics) == EXPECTED_KEYS
    assert set(BENCH_KEYS) <= set(metrics)
