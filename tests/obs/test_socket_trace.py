"""Causal tracing across a *real* socket hop between peer processes.

The in-process federation already proves cross-peer causal closure
(``test_trace_propagation``); this file proves the same properties when the
trace context rides the ``tr`` field of codec envelopes between OS
processes and the spans land in per-process JSONL exports:

1. **Propagation**: with ``REPRO_TRACE=1`` in the coordinator's environment
   (the same gate `default_tracer` honours), every peer process records
   prefixed spans, the merged export contains at least one causal chain
   crossing two distinct peers, and every remotely-continued update span
   walks its parent links back to exactly one originating *user* root.
2. **Heisenberg-freedom**: the traced federation drains to a state
   hom-equivalent to the untraced federation and to the single-repository
   reference chase — instrumenting the processes must not change what they
   converge to.
"""

from __future__ import annotations

from repro.core.oracle import AlwaysExpandOracle
from repro.federation import (
    ProcessFederation,
    databases_equivalent,
    reference_chase,
)
from repro.obs import load_spans
from repro.obs.analysis import TraceAnalysis
from repro.workload.federated_loop import expanding_answer
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)
from test_trace_propagation import assert_routed_chains

DRAIN_TIMEOUT = 120.0


def _scenario():
    return generate_federation_environment(FederationScenarioConfig(
        num_peers=3,
        cross_mappings=6,
        remote_insert_fraction=0.4,
        seed=3,
    ))


def _run_sockets(environment, workdir, export):
    """Drain the scenario over real processes; return (snapshot, paths)."""
    federation = ProcessFederation(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        workdir=str(workdir),
    )
    try:
        tickets = []
        for peer in sorted(environment.operations):
            for operation in environment.operations[peer]:
                tickets.append(federation.submit(peer, operation))
        federation.drain(answer_strategy=expanding_answer, timeout=DRAIN_TIMEOUT)
        assert all(ticket.is_done for ticket in tickets)
        snapshot = federation.global_snapshot()
        paths = federation.export_traces() if export else []
    finally:
        federation.close()
        federation.assert_reaped()
    return snapshot, paths


def test_traces_cross_the_socket_hop_and_do_not_disturb(tmp_path, monkeypatch):
    environment = _scenario()

    # Traced run: ProcessFederation's trace default reads REPRO_TRACE, the
    # same environment gate the rest of the observability layer uses.
    monkeypatch.setenv("REPRO_TRACE", "1")
    traced_snapshot, paths = _run_sockets(
        environment, tmp_path / "traced", export=True
    )
    assert len(paths) == 3  # one JSONL export per peer process

    spans = load_spans(paths)
    assert spans, "traced processes exported no spans"
    # Per-process tracer prefixes: merged ids must not collide, and every
    # peer process must have contributed spans of its own.
    assert len({span.span_id for span in spans}) == len(spans)
    prefixes = {span.span_id.split(".", 1)[0] for span in spans}
    assert prefixes == set(environment.config.peer_names())

    analysis = TraceAnalysis(spans)
    chains = analysis.cross_peer_chains()
    assert chains, "no causal chain crossed a peer process boundary"
    for chain in chains:
        root = chain[0]
        assert root.parent_id is None
        assert root.name == "update" and root.attrs.get("kind") == "user"
        roots = [
            span
            for span in analysis.traces[root.trace_id]
            if span.parent_id is None
        ]
        assert len(roots) == 1, "trace grew a second root mid-exchange"
    # A routed operation's root closes where it was submitted; the owner's
    # remote update span, recorded in another process, carries the outcome.
    assert_routed_chains(analysis)
    # The hop itself is visible: wire spans from the sending process carry
    # the encode cost, wire spans from the receiving process the decode
    # cost, and both sides report the framed payload size.
    encode_halves = [
        span for span in spans
        if span.phase == "wire" and "encode_seconds" in span.attrs
    ]
    decode_halves = [
        span for span in spans
        if span.phase == "wire" and "decode_seconds" in span.attrs
    ]
    assert encode_halves and decode_halves
    assert all(int(span.attrs["bytes"]) > 0 for span in encode_halves)

    # Untraced run of the identical scenario: same convergence result.
    monkeypatch.delenv("REPRO_TRACE")
    untraced_snapshot, no_paths = _run_sockets(
        environment, tmp_path / "untraced", export=False
    )
    assert no_paths == []
    assert databases_equivalent(traced_snapshot, untraced_snapshot)
    reference = reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.all_operations(),
        oracle=AlwaysExpandOracle(),
    )
    assert reference.all_terminated
    assert databases_equivalent(traced_snapshot, reference.final)


def test_trace_export_merges_remote_continuations(tmp_path, monkeypatch):
    """Remote continuations parent across files written by other processes."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    environment = _scenario()
    _, paths = _run_sockets(environment, tmp_path, export=True)
    analysis = TraceAnalysis(load_spans(paths))
    continuations = analysis.remote_continuations()
    assert continuations, "scenario produced no cross-process work"
    crossed = 0
    for span in continuations:
        chain = analysis.causal_chain(span)
        assert chain[0].parent_id is None, "continuation chain has no root"
        # The chain was stitched from at least two different processes'
        # export files exactly when the id prefixes differ.
        if len({link.span_id.split(".", 1)[0] for link in chain}) >= 2:
            crossed += 1
    assert crossed, "no continuation chain stitched across export files"
