"""Federation throughput benchmark: multi-peer exchange end to end.

Runs a generated multi-peer scenario through the federated closed-loop
driver, measures committed updates (user submissions plus exchange-envelope
updates) per second and the exchange traffic breakdown, verifies differential
convergence against the single-repository chase, and merges a ``federation``
entry into ``BENCH_scaling.json`` so the perf trajectory file carries the
multi-peer measurement alongside the tracker one (CI uploads the file as an
artifact from the non-blocking benchmarks job).

The closed-loop bench additionally replays the scenario with causal tracing
enabled over the wire-format transport: the span export lands in
``BENCH_trace.jsonl`` (uploaded next to the scaling file by CI), the entry
gains a measured per-phase decomposition of where the wall time goes — the
``wire_overhead_factor`` mystery as chase vs. validation vs. codec CPU vs.
simulated transit — and the run asserts that at least one remote firing's
causal chain reconstructs across peers.

Scales with ``REPRO_BENCH_SCALE`` (tiny/small/paper) like the other benches.
"""

from __future__ import annotations

import os
import time

from repro.core.oracle import AlwaysExpandOracle
from repro.obs.analysis import TraceAnalysis
from repro.obs.trace import Tracer
from repro.federation import (
    FederatedNetwork,
    Transport,
    check_convergence,
    reference_chase,
)
from repro.workload.federated_loop import (
    ArrivalProcess,
    FederatedClientSpec,
    FederatedClosedLoopDriver,
    FederatedOpenLoopDriver,
)
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

from conftest import record_entries

SCALES = {
    "tiny": FederationScenarioConfig(
        num_peers=3, cross_mappings=4, operations_per_peer=4, initial_tuples=16, seed=0
    ),
    "small": FederationScenarioConfig(
        num_peers=4,
        cross_mappings=8,
        operations_per_peer=10,
        initial_tuples=40,
        seed=0,
    ),
    "paper": FederationScenarioConfig(
        num_peers=5,
        cross_mappings=12,
        relations_per_peer=6,
        operations_per_peer=25,
        initial_tuples=80,
        seed=0,
    ),
}

TRACE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_trace.jsonl",
)


def _traced_replay(environment, config):
    """Re-run the scenario traced over the wire transport; analyse the spans.

    A separate replay (rather than tracing the measured run) keeps the
    throughput number clean: the measured run stays untraced, the replay
    pays for instrumentation and yields the decomposition.
    """
    tracer = Tracer()
    network = FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=Transport(delay=1),
        tracer=tracer,
    )
    specs = [
        FederatedClientSpec(peer=peer, name="client@{}".format(peer), operations=list(ops))
        for peer, ops in environment.operations.items()
    ]
    driver = FederatedClosedLoopDriver(network, specs, answer_delay=1)
    report = driver.run(max_rounds=20_000)
    assert report.all_done and report.drained
    tracer.export_jsonl(TRACE_PATH)
    return network, TraceAnalysis(tracer.spans)


def test_federation_throughput():
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    config = SCALES.get(scale, SCALES["small"])
    environment = generate_federation_environment(config)
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
    driver = FederatedClosedLoopDriver(network, specs, answer_delay=1)
    started = time.perf_counter()
    report = driver.run(max_rounds=20_000)
    wall = time.perf_counter() - started
    assert report.all_done and report.drained

    reference = reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.all_operations(),
        oracle=AlwaysExpandOracle(),
    )
    convergence = check_convergence(network, reference)
    assert convergence.equivalent, convergence.summary()

    metrics = network.metrics()
    committed = sum(
        metrics["peer_{}_committed".format(peer)] for peer in network.peer_names()
    )
    # Per-peer latency percentiles: with heterogeneous peers (slow archive,
    # fast edge) these are the panel that shows the spread; homogeneous runs
    # record them too so the trajectory file carries a baseline.
    peer_latencies = {}
    for peer in network.peers():
        snapshot = peer.service.metrics_snapshot()
        peer_latencies[peer.name] = {
            "turnaround_p50_seconds": snapshot["turnaround_p50_seconds"],
            "turnaround_p95_seconds": snapshot["turnaround_p95_seconds"],
            "queue_wait_p50_seconds": snapshot["queue_wait_p50_seconds"],
            "queue_wait_p95_seconds": snapshot["queue_wait_p95_seconds"],
        }
    entry = {
        "scale": scale,
        "peers": config.num_peers,
        "user_operations": report.submitted,
        "rounds": report.rounds,
        "wall_seconds": wall,
        "committed_updates_total": committed,
        "committed_per_second": committed / max(wall, 1e-9),
        "transport_sent": metrics["transport_sent"],
        "firings_delivered": metrics["firings_delivered"],
        "updates_routed": metrics["updates_routed"],
        "questions_routed": metrics["questions_routed"],
        "convergence_equivalent": convergence.equivalent,
        "federation_aborts": convergence.federation_aborts,
        "peer_latencies": peer_latencies,
    }

    # Traced replay: causal-chain verification plus the measured phase
    # decomposition, exported for repro-trace and the CI artifact.
    traced_network, analysis = _traced_replay(environment, config)
    chains = analysis.cross_peer_chains()
    assert chains, "no remote firing's causal chain reconstructed across peers"
    breakdown = analysis.phase_breakdown()
    entry["trace_phase_breakdown"] = breakdown
    entry["trace_wire_bytes_by_kind"] = analysis.wire_bytes_by_kind()
    entry["trace_cross_peer_chains"] = len(chains)
    entry["trace_spans"] = len(analysis.spans)

    # The exported trace must be consumable by the analysis CLI.
    from repro.obs.cli import main as trace_cli
    assert trace_cli([TRACE_PATH]) == 0

    # Merge into the trajectory file next to the tracker measurement.
    record_entries({"federation": entry})

    print(
        "\nfederation bench ({} peers, {} scale): {} user ops -> {} committed "
        "updates in {:.2f}s over {} rounds ({:.0f} commits/s, {} envelopes)".format(
            config.num_peers,
            scale,
            report.submitted,
            committed,
            wall,
            report.rounds,
            entry["committed_per_second"],
            metrics["transport_sent"],
        )
    )
    print(
        "  traced replay: {} spans, {} cross-peer chains; phase seconds "
        "queue={:.4f} chase={:.4f} validate={:.4f} wire={:.4f} park={:.4f} "
        "transit={:.4f}".format(
            entry["trace_spans"],
            entry["trace_cross_peer_chains"],
            breakdown["queue"],
            breakdown["chase"],
            breakdown["validate"],
            breakdown["wire"],
            breakdown["park"],
            breakdown["transit"],
        )
    )


def test_federation_open_loop_throughput():
    """Open-loop (bursty batch) arrivals: the admission-headroom measurement.

    The closed-loop bench self-paces, so admission queues stay near empty and
    group admission has nothing to group; the ROADMAP (PR 4 follow-up) asked
    for bursty arrivals to measure it properly.  This run submits each peer's
    stream in fixed-size bursts through the open-loop driver and records a
    ``federation_open_loop`` entry: throughput, observed queue depths,
    admission backoffs, and the differential convergence verdict.
    """
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    config = SCALES.get(scale, SCALES["small"])
    environment = generate_federation_environment(config)
    network = FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=Transport(delay=1),
    )
    arrivals = ArrivalProcess(kind="batch", batch_size=max(
        2, config.operations_per_peer // 2
    ), interval=3, seed=config.seed)
    driver = FederatedOpenLoopDriver(
        network,
        {peer: list(ops) for peer, ops in environment.operations.items()},
        arrivals,
        answer_delay=1,
    )
    started = time.perf_counter()
    report = driver.run(max_rounds=20_000)
    wall = time.perf_counter() - started
    assert report.all_submitted and report.drained

    reference = reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.all_operations(),
        oracle=AlwaysExpandOracle(),
    )
    convergence = check_convergence(network, reference)
    assert convergence.equivalent, convergence.summary()

    metrics = network.metrics()
    committed = sum(
        metrics["peer_{}_committed".format(peer)] for peer in network.peer_names()
    )
    entry = {
        "scale": scale,
        "peers": config.num_peers,
        "arrivals": "batch({}@{})".format(arrivals.batch_size, arrivals.interval),
        "user_operations": report.submitted,
        "rounds": report.rounds,
        "wall_seconds": wall,
        "committed_updates_total": committed,
        "committed_per_second": committed / max(wall, 1e-9),
        "admission_backoffs": report.backoffs,
        "max_queue_depth": report.max_queue_depth,
        "transport_sent": metrics["transport_sent"],
        "transport_wire_bytes_sent": metrics["transport_wire_bytes_sent"],
        "convergence_equivalent": convergence.equivalent,
    }
    record_entries({"federation_open_loop": entry})

    print(
        "\nfederation open-loop bench ({} scale): {} ops in bursts -> "
        "{} committed in {:.2f}s ({:.0f} commits/s, peak queue {}, "
        "{} backoffs, {} wire bytes)".format(
            scale,
            report.submitted,
            committed,
            wall,
            entry["committed_per_second"],
            report.max_queue_depth,
            report.backoffs,
            metrics["transport_wire_bytes_sent"],
        )
    )
