"""Socket-federation throughput bench: real peer processes vs the GIL.

Floods a generated multi-peer scenario into a :class:`ProcessFederation`
(each peer its own OS process over Unix-domain sockets, length-prefixed
codec frames, bundled envelopes) and drains it, then runs the *same*
scenario through the in-process :class:`FederatedNetwork` on the same
machine.  The ``federation_sockets`` entry merged into
``BENCH_scaling.json`` records both measurements plus the framing
densities (frames per commit, payloads per frame) that show the
round-trip reduction from bundling — the cost PR 6's trace breakdown
identified as dominant.

Honesty notes baked into the entry:

* ``cpu_cores`` is recorded as measured; on a single-core machine the
  socket federation *cannot* beat the in-process run (it pays real IPC
  for zero parallelism), so the multi-core speedup assertion is gated on
  ``cpu_cores > 1`` and the sub-1x ratio is recorded rather than hidden.
* The speedup bar is capacity-normalized: the socket federation must beat
  the in-process federation *measured in the same run*, so a slower
  runner tests parallelism, not its own clock.
* The default (``small``) scale is deliberately compute-heavy
  (``initial_tuples=1200`` makes the chase ~6 ms/commit, well above the
  ~1 ms per-commit socket overhead): at compute-light scales coordination
  dominates and no core count can win, which would make the comparison
  meaningless rather than honest.

Scales with ``REPRO_BENCH_SCALE`` (tiny/small/paper) like the other
benches; ``REPRO_BENCH_STRICT=1`` turns the recorded policies into
assertions (the non-blocking CI benchmarks job sets it).
"""

from __future__ import annotations

import os
import time

from repro.federation import (
    FederatedNetwork,
    ProcessFederation,
    Transport,
    databases_equivalent,
)
from repro.workload.federated_loop import (
    FederatedClientSpec,
    FederatedClosedLoopDriver,
    expanding_answer,
)
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

from conftest import record_entries

SCALES = {
    "tiny": FederationScenarioConfig(
        num_peers=4, cross_mappings=6, operations_per_peer=4, initial_tuples=60, seed=0
    ),
    "small": FederationScenarioConfig(
        num_peers=4,
        cross_mappings=10,
        relations_per_peer=5,
        operations_per_peer=15,
        initial_tuples=1200,
        seed=0,
    ),
    "paper": FederationScenarioConfig(
        num_peers=5,
        cross_mappings=12,
        relations_per_peer=6,
        operations_per_peer=30,
        initial_tuples=2400,
        seed=0,
    ),
}


def _run_inprocess(config):
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
    driver = FederatedClosedLoopDriver(
        network, specs, answer_delay=1, answer_strategy=expanding_answer
    )
    started = time.perf_counter()
    report = driver.run(max_rounds=50_000)
    wall = time.perf_counter() - started
    assert report.all_done and report.drained
    metrics = network.metrics()
    committed = sum(
        metrics["peer_{}_committed".format(peer)] for peer in network.peer_names()
    )
    return network.global_snapshot(), committed, wall


def test_socket_federation_throughput(tmp_path):
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    config = SCALES.get(scale, SCALES["small"])
    environment = generate_federation_environment(config)

    federation = ProcessFederation(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport="unix",
        workdir=str(tmp_path),
    )
    try:
        started = time.perf_counter()
        tickets = []
        for peer in sorted(environment.operations):
            for operation in environment.operations[peer]:
                tickets.append(federation.submit(peer, operation))
        rounds = federation.drain(answer_strategy=expanding_answer, timeout=600.0)
        wall = time.perf_counter() - started
        assert all(ticket.is_done for ticket in tickets)
        metrics = federation.metrics()
        snapshot = federation.global_snapshot()
    finally:
        federation.close()
        federation.assert_reaped()

    committed = sum(status["committed"] for status in metrics.values())
    frames_sent = sum(sum(status["sent"].values()) for status in metrics.values())
    payloads = sum(status["payloads_received"] for status in metrics.values())
    peer_latencies = {
        name: {
            key: status["metrics"][key]
            for key in (
                "turnaround_p50_seconds",
                "turnaround_p95_seconds",
                "queue_wait_p50_seconds",
                "queue_wait_p95_seconds",
            )
            if key in status["metrics"]
        }
        for name, status in metrics.items()
    }

    # Same scenario, same machine, one process: the parallelism baseline
    # and the differential oracle in one run.
    inprocess_snapshot, inprocess_committed, inprocess_wall = _run_inprocess(config)
    equivalent = databases_equivalent(snapshot, inprocess_snapshot)
    assert equivalent, "socket federation diverged from the in-process run"
    # Commit *totals* may differ slightly between the two runs — delivery
    # interleavings coalesce exchange firings differently — but both must
    # at least absorb every user operation; equivalence above is the bar.
    assert min(committed, inprocess_committed) >= len(tickets)

    committed_per_second = committed / max(wall, 1e-9)
    inprocess_per_second = inprocess_committed / max(inprocess_wall, 1e-9)
    entry = {
        "scale": scale,
        "transport": "unix",
        "peers": config.num_peers,
        "cpu_cores": os.cpu_count() or 1,
        "user_operations": len(tickets),
        "drain_rounds": rounds,
        "wall_seconds": wall,
        "committed_updates_total": committed,
        "committed_per_second": committed_per_second,
        "turnaround_p95_seconds": max(
            latency.get("turnaround_p95_seconds", 0.0)
            for latency in peer_latencies.values()
        ),
        "peer_latencies": peer_latencies,
        "frames_sent_total": frames_sent,
        "payloads_sent_total": payloads,
        "frames_per_commit": frames_sent / max(committed, 1),
        "payloads_per_frame": payloads / max(frames_sent, 1),
        "deliveries_deferred": sum(
            status["deliveries_deferred"] for status in metrics.values()
        ),
        "answers_dropped": sum(
            status["answers_dropped"] for status in metrics.values()
        ),
        "inprocess_wall_seconds": inprocess_wall,
        "inprocess_committed_per_second": inprocess_per_second,
        "speedup_vs_inprocess_same_run": committed_per_second / inprocess_per_second,
        "convergence_equivalent": equivalent,
    }
    record_entries({"federation_sockets": entry})

    print(
        "\nsocket federation bench ({} peers, {} scale, {} cores): {} user ops "
        "-> {} committed in {:.2f}s over {} drain rounds ({:.0f} commits/s)".format(
            config.num_peers,
            scale,
            entry["cpu_cores"],
            len(tickets),
            committed,
            wall,
            rounds,
            committed_per_second,
        )
    )
    print(
        "  framing: {} frames, {} payloads ({:.2f} payloads/frame, "
        "{:.2f} frames/commit); in-process same run {:.0f} commits/s "
        "-> {:.2f}x".format(
            frames_sent,
            payloads,
            entry["payloads_per_frame"],
            entry["frames_per_commit"],
            inprocess_per_second,
            entry["speedup_vs_inprocess_same_run"],
        )
    )

    if scale == "small" and os.environ.get("REPRO_BENCH_STRICT") == "1":
        # Bundling must actually collapse round-trips: flushes carry more
        # than one envelope per frame on average, on every machine.
        assert entry["payloads_per_frame"] > 1.0, (
            "bundled flushes averaged {:.2f} payloads/frame".format(
                entry["payloads_per_frame"]
            )
        )
        if entry["cpu_cores"] > 1:
            # The capacity-normalized >1x bar (see the module docstring):
            # real parallelism across processes must beat the
            # GIL-serialized run measured alongside it.
            assert committed_per_second > inprocess_per_second, (
                "socket federation ({:.0f}/s on {} cores) did not beat the "
                "in-process run ({:.0f}/s)".format(
                    committed_per_second,
                    entry["cpu_cores"],
                    inprocess_per_second,
                )
            )
