"""Batched-execution benchmark: the federation workload with batching on.

Runs the *same* generated multi-peer scenario as ``test_federation.py``
(same scale, same seed, same closed-loop driver pacing) in two
configurations:

* **baseline** — per-envelope staging and sends and plain FIFO admission
  (the default :class:`~repro.service.admission.AdmissionConfig`);
* **batched** — the full batched path: per-batch envelope coalescing, per-
  destination transport bundles, and compatible-group admission tuned to
  keep intra-peer conflicts (and therefore aborts) low.

Both commit in batches (one listener round and one compaction sweep per
batch); the scheduler has no singleton mode, and the singleton reference
lives in ``tests/concurrency/test_group_commit.py``.

Both runs must converge to the single-repository reference chase, and their
global snapshots must be homomorphically equivalent to each other
(``semantics_match``).  Wall clock is taken as the best of ``RUNS`` repeats
(recorded as such) — throughput benches on shared CI boxes measure capacity,
not scheduler-noise percentiles.  The resulting ``batched`` entry is merged
into ``BENCH_scaling.json``; at the default (small) scale the batched
throughput must be at least twice the PR 3 federation measurement recorded
there (2489 committed/s).
"""

from __future__ import annotations

import os
import time

from repro.core.oracle import AlwaysExpandOracle
from repro.obs.analysis import PHASES, TraceAnalysis
from repro.obs.trace import Tracer
from repro.federation import (
    FederatedNetwork,
    Transport,
    check_convergence,
    databases_equivalent,
    reference_chase,
)
from repro.service.admission import AdmissionConfig
from repro.workload.federated_loop import (
    FederatedClientSpec,
    FederatedClosedLoopDriver,
)
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

from conftest import record_entries
from test_federation import SCALES

#: The federation throughput PR 3 recorded in ``BENCH_scaling.json`` at the
#: small scale (the number the tentpole's >=2x target is measured against).
PR3_COMMITTED_PER_SECOND = 2489.47

#: The in-run PR 3-mode baseline PR 4 measured alongside its 2x result, on
#: the machine that recorded it.  Strict mode scales the absolute 2x bar by
#: ``measured_baseline / PR4_BASELINE_COMMITTED_PER_SECOND`` so the check
#: tests the *batching* speedup rather than the CI runner's clock speed.
PR4_BASELINE_COMMITTED_PER_SECOND = 4135.61

#: Timed repeats per configuration; the recorded wall is the best of them.
RUNS = 7

#: Admission for the batched path: admit compatible (relation-disjoint)
#: groups and keep at most two updates in flight per peer — on this
#: workload's conflict structure wider admission buys aborts, not
#: throughput, so the group scheduler stays narrow and clean.
BATCHED_ADMISSION = AdmissionConfig(
    max_in_flight=2, batch_size=2, compatible_groups=True
)


def _run_once(environment, batched: bool, wire: bool = False, tracer=None):
    # ``wire=False`` isolates the batched-execution measurement from the
    # PR 5 byte-codec cost, keeping it comparable with the PR 3/PR 4
    # recorded numbers; the wire-mode run is measured (and recorded)
    # separately below.
    if batched:
        network = FederatedNetwork(
            environment.schema,
            environment.initial,
            list(environment.mappings),
            environment.ownership,
            transport=Transport(delay=1, wire=wire),
            coalesce_envelopes=True,
            admission=BATCHED_ADMISSION,
            tracer=tracer,
        )
    else:
        network = FederatedNetwork(
            environment.schema,
            environment.initial,
            list(environment.mappings),
            environment.ownership,
            transport=Transport(delay=1, wire=wire),
            coalesce_envelopes=False,
            tracer=tracer,
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
    metrics = network.metrics()
    committed = sum(
        metrics["peer_{}_committed".format(peer)] for peer in network.peer_names()
    )
    return wall, committed, report.rounds, metrics, network


def _measure(environment, batched: bool):
    best = None
    for _ in range(RUNS):
        result = _run_once(environment, batched)
        if best is None or result[0] < best[0]:
            best = result
    return best


def test_batched_federation_throughput():
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    config = SCALES.get(scale, SCALES["small"])
    environment = generate_federation_environment(config)

    # Warm the process-wide plan caches so both configurations compile even.
    _run_once(environment, batched=True)

    base_wall, base_committed, base_rounds, base_metrics, base_net = _measure(
        environment, batched=False
    )
    wall, committed, rounds, metrics, network = _measure(environment, batched=True)

    # PR 5: the same batched configuration over the byte transport — the
    # codec's end-to-end cost, measured rather than guessed.  One timed run
    # is enough for an overhead gauge (the entry records it as such).
    wire_wall, wire_committed, _, wire_metrics, _ = _run_once(
        environment, batched=True, wire=True
    )

    # The ``wire_overhead_factor`` decomposition: one traced wire-mode run
    # splits the wall time into measured phases — how much is codec CPU
    # (encode+decode), how much simulated transit, how much chase vs.
    # validation — turning the overhead ratio from a mystery into numbers.
    tracer = Tracer()
    _run_once(environment, batched=True, wire=True, tracer=tracer)
    analysis = TraceAnalysis(tracer.spans)
    phase_seconds = analysis.phase_breakdown()
    phase_total = sum(phase_seconds.values()) or 1e-9

    # Differential semantics: both executions are the same chase, up to null
    # renaming — and both equal the single-repository reference.
    reference = reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.all_operations(),
        oracle=AlwaysExpandOracle(),
    )
    convergence = check_convergence(network, reference)
    assert convergence.equivalent, convergence.summary()
    base_convergence = check_convergence(base_net, reference)
    assert base_convergence.equivalent, base_convergence.summary()
    semantics_match = databases_equivalent(
        network.global_snapshot(), base_net.global_snapshot()
    )
    assert semantics_match

    # Batching must strictly reduce wire traffic (coalescing + bundles).
    assert metrics["transport_sent"] <= base_metrics["transport_sent"]

    committed_per_second = committed / max(wall, 1e-9)
    entry = {
        "scale": scale,
        "peers": config.num_peers,
        "runs_per_config": RUNS,
        "wall_seconds_best": wall,
        "rounds": rounds,
        "committed_updates_total": committed,
        "committed_per_second": committed_per_second,
        "baseline_wall_seconds_best": base_wall,
        "baseline_committed_per_second": base_committed / max(base_wall, 1e-9),
        "pr3_committed_per_second": PR3_COMMITTED_PER_SECOND,
        "speedup_vs_pr3_recorded": committed_per_second / PR3_COMMITTED_PER_SECOND,
        "transport_sent": metrics["transport_sent"],
        "transport_bundles_sent": metrics["transport_bundles_sent"],
        "transport_payloads_sent": metrics["transport_payloads_sent"],
        "baseline_transport_sent": base_metrics["transport_sent"],
        "envelopes_coalesced": metrics["envelopes_coalesced"],
        "restarts": sum(
            metrics["peer_{}_restarts".format(peer)] for peer in network.peer_names()
        ),
        "baseline_restarts": sum(
            base_metrics["peer_{}_restarts".format(peer)]
            for peer in base_net.peer_names()
        ),
        "semantics_match": semantics_match,
        "convergence_equivalent": convergence.equivalent,
        # The byte-transport gauge: same batched configuration, payloads
        # codec-encoded at send and decoded at delivery (single timed run).
        "wire_committed_per_second": wire_committed / max(wire_wall, 1e-9),
        "wire_bytes_sent": wire_metrics["transport_wire_bytes_sent"],
        "wire_overhead_factor": (wire_committed / max(wire_wall, 1e-9))
        / max(committed_per_second, 1e-9),
        # Measured decomposition of the traced wire-mode run (seconds per
        # phase and each phase's share of the instrumented time).
        "trace_phase_breakdown": phase_seconds,
        "trace_phase_fractions": {
            phase: phase_seconds[phase] / phase_total for phase in PHASES
        },
        "trace_wire_codec_seconds": phase_seconds["wire"],
        "trace_wire_bytes_by_kind": analysis.wire_bytes_by_kind(),
    }

    record_entries({"batched": entry})

    print(
        "\nbatched federation bench ({} peers, {} scale): {} committed in "
        "{:.4f}s ({:.0f}/s, best of {}) vs baseline {:.0f}/s; "
        "{} envelopes ({} bundles, {} coalesced away), {} restarts "
        "(baseline {})".format(
            config.num_peers,
            scale,
            committed,
            wall,
            committed_per_second,
            RUNS,
            entry["baseline_committed_per_second"],
            metrics["transport_sent"],
            metrics["transport_bundles_sent"],
            metrics["envelopes_coalesced"],
            entry["restarts"],
            entry["baseline_restarts"],
        )
    )
    print(
        "  wire phase decomposition (traced run): "
        + "  ".join(
            "{}={:.4f}s ({:.0f}%)".format(
                phase,
                phase_seconds[phase],
                100.0 * entry["trace_phase_fractions"][phase],
            )
            for phase in PHASES
        )
    )

    if scale == "small" and os.environ.get("REPRO_BENCH_STRICT") == "1":
        # The PR 4 tentpole's acceptance bar: at the PR 3 entry's scale and
        # seed, batched execution moves at least twice the throughput PR 3
        # recorded for the per-update path — normalized by machine capacity
        # (the in-run baseline vs the baseline the recording machine
        # measured), so a slower CI runner tests the batching speedup, not
        # its own clock.  Strict mode is opt-in (the non-blocking CI
        # benchmarks job sets it) so a loaded tier-1 runner cannot flake the
        # blocking suite on wall-clock noise.
        capacity = entry["baseline_committed_per_second"] / PR4_BASELINE_COMMITTED_PER_SECOND
        bar = 2 * PR3_COMMITTED_PER_SECOND * capacity
        assert committed_per_second >= bar, (
            "batched federation throughput {:.0f}/s did not reach the "
            "capacity-normalized 2x PR 3 bar {:.0f}/s (machine capacity "
            "factor {:.2f})".format(committed_per_second, bar, capacity)
        )
        assert committed_per_second >= entry["baseline_committed_per_second"], (
            "batching must not lose to the per-update baseline"
        )
