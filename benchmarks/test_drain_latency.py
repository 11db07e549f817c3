"""Drain-protocol latency bench: watermark quiescence vs the paced barrier.

Measures what a ``drain()`` call actually costs once the federation has
nothing left to do — the settle-detection tail every closed-loop driver,
checkpoint and test teardown pays.  For each peer count the same generated
scenario is submitted and settled once, then the *idle* federation is
drained repeatedly under both protocols:

* ``poll`` — the original barrier: 10 ms-paced status rounds until two
  consecutive rounds return identical counter fingerprints (at minimum two
  full rounds plus two paces, regardless of how idle the peers are);
* ``watermark`` — conservation-based: the drain subscribes to went-idle
  notices, every (already idle) peer answers at once with its watermarks,
  and the coordinator — holding a quiescent, link-conserved view of every
  peer — needs exactly one confirming status round.

The median over several repeats goes into the ``drain_protocol`` entry of
``BENCH_scaling.json`` per peer count, with the top-level ``drain_speedup``
taken at the largest peer count measured.  The first (workload) drain per
peer count is recorded too — wall seconds, rounds and the watermark
protocol's ``time_to_idle_seconds`` decomposition — and every drained
state is checked against the single-repository reference chase, so the
faster protocol is proven to settle the *same* state, not a looser one.

A second measurement exercises the adaptive envelope staging window: the
same workload re-run with ``stage_rounds=3``/25 ms staging, recording the
committed/s throughput and the wire framing density under batching
(``staging_window`` sub-entry; ``compare_bench`` tracks its throughput).

Scales with ``REPRO_BENCH_SCALE`` (tiny/small/paper);
``REPRO_BENCH_STRICT=1`` arms the recorded policy as an assertion: at the
``small`` scale the watermark drain must be at least 2x faster than the
poll drain at 8 peers.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.core.oracle import AlwaysExpandOracle
from repro.federation import (
    ProcessFederation,
    databases_equivalent,
    reference_chase,
)
from repro.workload.federated_loop import expanding_answer
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

from conftest import record_entries

#: Peer counts measured per scale; the speedup headline uses the largest.
PEER_COUNTS = {
    "tiny": [4],
    "small": [4, 8],
    "paper": [4, 8, 16],
}

#: Idle drains measured per protocol (median reported).
REPEATS = {"tiny": 3, "small": 5, "paper": 7}


def _scenario(num_peers):
    # Compute-light on purpose: this bench measures the settle-detection
    # tail, not chase throughput, so the workload only has to generate real
    # cross-peer traffic before going quiet.
    return FederationScenarioConfig(
        num_peers=num_peers,
        cross_mappings=num_peers + 2,
        operations_per_peer=3,
        initial_tuples=40,
        seed=num_peers,
    )


def _submit_all(federation, environment):
    tickets = []
    for peer in sorted(environment.operations):
        for operation in environment.operations[peer]:
            tickets.append(federation.submit(peer, operation))
    return tickets


def _reference_final(environment):
    reference = reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.all_operations(),
        oracle=AlwaysExpandOracle(),
    )
    assert reference.all_terminated
    return reference.final


def _timed_idle_drains(federation, mode, repeats):
    """Median wall seconds and rounds of *repeats* drains on an idle fleet."""
    walls, rounds = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        rounds.append(federation.drain(timeout=60.0, mode=mode))
        walls.append(time.perf_counter() - started)
        assert federation.last_drain["mode"] == mode
    return statistics.median(walls), statistics.median(rounds)


def _measure_peer_count(workdir, num_peers, repeats):
    config = _scenario(num_peers)
    environment = generate_federation_environment(config)
    federation = ProcessFederation(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        workdir=str(workdir),
    )
    try:
        # Settle the workload once (watermark mode: its time-to-idle field
        # decomposes how much of the wall was workload vs confirmation).
        settle_started = time.perf_counter()
        tickets = _submit_all(federation, environment)
        settle_rounds = federation.drain(
            answer_strategy=expanding_answer, timeout=600.0, mode="watermark"
        )
        settle_wall = time.perf_counter() - settle_started
        assert all(ticket.is_done for ticket in tickets)
        settle_record = dict(federation.last_drain)

        # The protocol comparison proper: repeated drains of the now-idle
        # federation, watermark first (its views are warm either way — the
        # settle drain's confirming round left them).
        watermark_wall, watermark_rounds = _timed_idle_drains(
            federation, "watermark", repeats
        )
        poll_wall, poll_rounds = _timed_idle_drains(federation, "poll", repeats)
        snapshot = federation.global_snapshot()
    finally:
        federation.close()
        federation.assert_reaped()
    assert databases_equivalent(snapshot, _reference_final(environment)), (
        "drained state diverged from the reference chase at {} peers".format(
            num_peers
        )
    )
    return {
        "peers": num_peers,
        "user_operations": len(tickets),
        "settle_wall_seconds": settle_wall,
        "settle_rounds": settle_rounds,
        "time_to_idle_seconds": settle_record.get("time_to_idle_seconds"),
        "idle_drain_repeats": repeats,
        "watermark_seconds": watermark_wall,
        "watermark_rounds": watermark_rounds,
        "poll_seconds": poll_wall,
        "poll_rounds": poll_rounds,
        "drain_speedup": poll_wall / max(watermark_wall, 1e-9),
    }


def _measure_staging_window(workdir, num_peers):
    """Throughput of the same workload under a 3-round staging window."""
    config = _scenario(num_peers)
    environment = generate_federation_environment(config)
    federation = ProcessFederation(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        stage_rounds=3,
        stage_delay=0.025,
        workdir=str(workdir),
    )
    try:
        started = time.perf_counter()
        tickets = _submit_all(federation, environment)
        federation.drain(
            answer_strategy=expanding_answer, timeout=600.0, mode="watermark"
        )
        wall = time.perf_counter() - started
        assert all(ticket.is_done for ticket in tickets)
        metrics = federation.metrics()
        snapshot = federation.global_snapshot()
    finally:
        federation.close()
        federation.assert_reaped()
    assert databases_equivalent(snapshot, _reference_final(environment)), (
        "staged run diverged from the reference chase"
    )
    committed = sum(status["committed"] for status in metrics.values())
    frames = sum(sum(status["sent"].values()) for status in metrics.values())
    payloads = sum(status["payloads_received"] for status in metrics.values())
    staged = sum(
        (status.get("metrics") or {}).get("wire_payloads_staged", 0)
        for status in metrics.values()
    )
    flushes = sum(
        (status.get("metrics") or {}).get("wire_staged_flushes", 0)
        for status in metrics.values()
    )
    return {
        "peers": num_peers,
        "stage_rounds": 3,
        "stage_delay_seconds": 0.025,
        "wall_seconds": wall,
        "committed_updates_total": committed,
        "committed_per_second": committed / max(wall, 1e-9),
        "payloads_staged": staged,
        "staged_flushes": flushes,
        "frames_sent_total": frames,
        "payloads_per_frame": payloads / max(frames, 1),
    }


def test_drain_protocol_latency(tmp_path):
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    peer_counts = PEER_COUNTS.get(scale, PEER_COUNTS["small"])
    repeats = REPEATS.get(scale, 5)

    by_peers = []
    for num_peers in peer_counts:
        workdir = tmp_path / "drain-{}".format(num_peers)
        workdir.mkdir()
        by_peers.append(_measure_peer_count(workdir, num_peers, repeats))

    staging = _measure_staging_window(
        tmp_path / "staging", max(peer_counts)
    )
    headline = by_peers[-1]
    entry = {
        "scale": scale,
        "transport": "unix",
        "cpu_cores": os.cpu_count() or 1,
        "peer_counts": peer_counts,
        "by_peers": by_peers,
        "drain_speedup": headline["drain_speedup"],
        "watermark_seconds": headline["watermark_seconds"],
        "poll_seconds": headline["poll_seconds"],
        "staging_window": staging,
    }
    record_entries({"drain_protocol": entry})

    for measured in by_peers:
        print(
            "\ndrain bench ({} peers): settle {:.2f}s/{} rounds "
            "(time-to-idle {}); idle drain poll {:.1f} ms/{} rounds vs "
            "watermark {:.1f} ms/{} rounds -> {:.2f}x".format(
                measured["peers"],
                measured["settle_wall_seconds"],
                measured["settle_rounds"],
                measured["time_to_idle_seconds"],
                measured["poll_seconds"] * 1e3,
                measured["poll_rounds"],
                measured["watermark_seconds"] * 1e3,
                measured["watermark_rounds"],
                measured["drain_speedup"],
            )
        )
    print(
        "  staging window ({} peers, 3 rounds/25 ms): {} staged across {} "
        "flushes, {:.2f} payloads/frame, {:.0f} commits/s".format(
            staging["peers"],
            staging["payloads_staged"],
            staging["staged_flushes"],
            staging["payloads_per_frame"],
            staging["committed_per_second"],
        )
    )

    # The watermark drain needs exactly one confirming round on an idle
    # federation; poll needs at least two (the fingerprint must repeat).
    for measured in by_peers:
        assert measured["watermark_rounds"] <= measured["poll_rounds"]

    if scale == "small" and os.environ.get("REPRO_BENCH_STRICT") == "1":
        eight = next(m for m in by_peers if m["peers"] == 8)
        assert eight["drain_speedup"] >= 2.0, (
            "watermark drain ({:.1f} ms) is not 2x faster than poll "
            "({:.1f} ms) at 8 peers".format(
                eight["watermark_seconds"] * 1e3,
                eight["poll_seconds"] * 1e3,
            )
        )
        assert staging["payloads_staged"] >= 1, (
            "the staging window never staged a payload"
        )
