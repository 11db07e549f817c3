"""Telemetry overhead bench: the live plane must cost < 5% committed/s.

Runs the *same* generated scenario through two socket federations in one
process invocation: once with the telemetry plane fully on (unsolicited
heartbeats at a tight interval plus the always-on flight recorder) and once
with it fully off (``telemetry_interval=0``, ``flight=False``).  The
``telemetry_overhead`` entry merged into ``BENCH_scaling.json`` records
both committed/s measurements and their ratio; ``.github/compare_bench.py``
tracks ``on_vs_off`` so a regression that makes heartbeats expensive shows
up in the trajectory.

The order (off first, then on) deliberately hands any warm-cache advantage
to the *off* run: if the on run still lands within budget, the measured
overhead is an upper bound, not an artifact.

``REPRO_BENCH_STRICT=1`` at the default (``small``) scale turns the < 5%
budget into an assertion, like the other benches.
"""

from __future__ import annotations

import os
import time

from repro.federation import ProcessFederation, databases_equivalent
from repro.workload.federated_loop import expanding_answer
from repro.workload.federation_gen import generate_federation_environment

from conftest import record_entries
from test_sockets import SCALES

#: Tight on purpose: at 50 ms the on run pays ~20 heartbeats/s/peer, a
#: harsher duty cycle than the 250 ms production default.
TELEMETRY_INTERVAL = 0.05
OVERHEAD_BUDGET = 0.05


def _run_once(config, workdir, telemetry):
    environment = generate_federation_environment(config)
    federation = ProcessFederation(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport="unix",
        workdir=workdir,
        telemetry_interval=TELEMETRY_INTERVAL if telemetry else 0.0,
        flight=telemetry,
    )
    try:
        started = time.perf_counter()
        tickets = []
        for peer in sorted(environment.operations):
            for operation in environment.operations[peer]:
                tickets.append(federation.submit(peer, operation))
        federation.drain(answer_strategy=expanding_answer, timeout=600.0)
        wall = time.perf_counter() - started
        assert all(ticket.is_done for ticket in tickets)
        metrics = federation.metrics()
        snapshot = federation.global_snapshot()
    finally:
        federation.close()
        federation.assert_reaped()
    committed = sum(status["committed"] for status in metrics.values())
    assert committed >= len(tickets)
    return snapshot, committed, wall


def test_telemetry_overhead(tmp_path):
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    config = SCALES.get(scale, SCALES["small"])

    snapshot_off, committed_off, wall_off = _run_once(
        config, str(tmp_path / "off"), telemetry=False
    )
    snapshot_on, committed_on, wall_on = _run_once(
        config, str(tmp_path / "on"), telemetry=True
    )
    # Telemetry must be pure observation: both runs converge identically.
    assert databases_equivalent(snapshot_on, snapshot_off)

    per_second_on = committed_on / max(wall_on, 1e-9)
    per_second_off = committed_off / max(wall_off, 1e-9)
    on_vs_off = per_second_on / per_second_off
    entry = {
        "scale": scale,
        "peers": config.num_peers,
        "cpu_cores": os.cpu_count() or 1,
        "telemetry_interval_seconds": TELEMETRY_INTERVAL,
        "committed_per_second_on": per_second_on,
        "committed_per_second_off": per_second_off,
        "wall_seconds_on": wall_on,
        "wall_seconds_off": wall_off,
        "on_vs_off": on_vs_off,
        "overhead_fraction": max(0.0, 1.0 - on_vs_off),
        "budget_fraction": OVERHEAD_BUDGET,
    }
    record_entries({"telemetry_overhead": entry})

    print(
        "\ntelemetry overhead bench ({} scale, {} cores): off {:.0f}/s, "
        "on {:.0f}/s at {:.0f} ms heartbeats -> {:.1%} overhead".format(
            scale,
            entry["cpu_cores"],
            per_second_off,
            per_second_on,
            TELEMETRY_INTERVAL * 1000,
            entry["overhead_fraction"],
        )
    )

    if scale == "small" and os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert entry["overhead_fraction"] < OVERHEAD_BUDGET, (
            "telemetry cost {:.1%} committed/s, over the {:.0%} budget".format(
                entry["overhead_fraction"], OVERHEAD_BUDGET
            )
        )
