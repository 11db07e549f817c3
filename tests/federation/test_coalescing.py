"""Coalesced federation envelopes: unit rewrites and delivery differentials.

``coalesce_envelopes`` rewrites one commit batch's staged payload sequence —
dedup absorbed firings, cancel firing→retraction pairs — and the peer
runtime stages the result as per-destination bundles.
Neither rewrite may change what a destination peer observes, so alongside the
unit tests for each rule there is a differential: the same generated
multi-peer workload delivered coalesced-and-bundled versus one-envelope-at-a-
time must converge to equivalent global states (both equal to the
single-repository reference chase).  The runtime always coalesces and
bundles; the one-envelope-at-a-time reference is :class:`PerEnvelopeNetwork`
below.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import pytest

from repro.core.atoms import Atom
from repro.core.oracle import AlwaysExpandOracle
from repro.core.terms import Constant, Variable
from repro.core.tgd import Tgd
from repro.core.tuples import make_tuple
from repro.federation import (
    Bundle,
    ExchangeFiring,
    ExchangeRetraction,
    FederatedNetwork,
    Transport,
    check_convergence,
    coalesce_envelopes,
    databases_equivalent,
    reference_chase,
)
from repro.codec.wire import decode_envelope
from repro.federation.envelopes import QuestionCancelled, freeze_assignment
from repro.federation.host import PeerRuntime
from repro.obs.trace import NOOP_TRACER
from repro.service.tickets import RemoteOrigin
from repro.workload.federated_loop import (
    FederatedClientSpec,
    FederatedClosedLoopDriver,
    expanding_answer,
)
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

X = Variable("x")
TGD = Tgd([Atom("R", [X])], [Atom("S", [X])], name="sigma")
ORIGIN = RemoteOrigin("p0", 1)


def _firing(value: str, origin: RemoteOrigin = ORIGIN) -> ExchangeFiring:
    return ExchangeFiring(
        tgd=TGD,
        assignment_items=freeze_assignment({X: Constant(value)}),
        head_rows=(make_tuple("S", value),),
        origin=origin,
    )


def _retraction(value: str) -> ExchangeRetraction:
    return ExchangeRetraction(
        tgd=TGD,
        assignment_items=freeze_assignment({X: Constant(value)}),
        removed_row=make_tuple("S", value),
        origin=ORIGIN,
    )


class TestCoalesceRules:
    def test_duplicate_firings_collapse_to_first(self):
        first, second = _firing("a"), _firing("a")
        staged = [("p1", first), ("p1", second)]
        assert coalesce_envelopes(staged) == [("p1", first)]

    def test_same_key_different_destination_is_kept(self):
        staged = [("p1", _firing("a")), ("p2", _firing("a"))]
        assert coalesce_envelopes(staged) == staged

    def test_firing_then_retraction_cancels_both(self):
        staged = [("p1", _firing("a")), ("p1", _retraction("a"))]
        assert coalesce_envelopes(staged) == []

    def test_retraction_then_firing_keeps_both(self):
        # The retraction refers to an *earlier* firing (outside the batch);
        # dropping the pair would lose the re-established match.
        staged = [("p1", _retraction("a")), ("p1", _firing("a"))]
        assert coalesce_envelopes(staged) == staged

    def test_firing_after_cancelled_pair_is_re_emitted(self):
        fresh = _firing("a")
        staged = [("p1", _firing("a")), ("p1", _retraction("a")), ("p1", fresh)]
        assert coalesce_envelopes(staged) == [("p1", fresh)]

    def test_duplicate_retractions_collapse(self):
        first = _retraction("a")
        staged = [("p1", first), ("p1", _retraction("a"))]
        assert coalesce_envelopes(staged) == [("p1", first)]

    def test_question_payloads_pass_through_in_order(self):
        cancelled = QuestionCancelled(
            executing_peer="p1", decision_id=7, origin=ORIGIN
        )
        staged = [("p0", cancelled), ("p1", _firing("a")), ("p0", cancelled)]
        assert coalesce_envelopes(staged) == staged

    def test_relative_order_of_kept_payloads_is_preserved(self):
        a, b, c = _firing("a"), _firing("b"), _firing("c")
        staged = [("p1", a), ("p1", _firing("a")), ("p1", b), ("p1", c)]
        assert coalesce_envelopes(staged) == [("p1", a), ("p1", b), ("p1", c)]


class _StagingPeer:
    """Just what a runtime's staging reads of a peer: name, outbox, tracer."""

    def __init__(self, outbox):
        self.name = "a"
        self.outbox = list(outbox)
        self.service = SimpleNamespace(tracer=NOOP_TRACER)


class TestBundleTransport:
    """A peer runtime stages its outbox onto the transport as one encoded
    message per destination."""

    def _stage(self, payloads):
        transport = Transport()
        runtime = PeerRuntime(
            _StagingPeer(("b", payload) for payload in payloads),
            {"b": transport.link("a", "b")},
            None,
            lambda event: None,
        )
        runtime._stage_outbox()
        assert runtime.peer.outbox == []
        return transport

    def test_empty_flush_sends_nothing(self):
        transport = self._stage([])
        assert transport.sent == 0

    def test_single_payload_is_sent_bare(self):
        transport = self._stage(["payload"])
        assert transport.bundles_sent == 0
        assert transport.payloads_sent == 1
        [delivered] = transport.pump()
        assert delivered.payload_kind == "raw"
        assert decode_envelope(delivered.payload) == "payload"

    def test_many_payloads_share_one_envelope(self):
        transport = self._stage(["one", "two", "three"])
        assert transport.sent == 1
        assert transport.bundles_sent == 1
        assert transport.payloads_sent == 3
        [delivered] = transport.pump()
        # The link carries bytes; the wire kind names the bundle without
        # decoding it.
        assert delivered.payload_kind == "bundle"
        assert isinstance(delivered.payload, bytes)
        bundle = decode_envelope(delivered.payload)
        assert isinstance(bundle, Bundle)
        assert bundle.payloads == ("one", "two", "three")
        assert len(bundle) == 3
        metrics = transport.metrics()
        assert metrics["transport_bundles_sent"] == 1
        assert metrics["transport_payloads_sent"] == 3
        assert metrics["transport_wire_bytes_sent"] > 0


def _stage_per_envelope(runtime):
    """The reference staging: one link message per staged payload."""
    for destination, payload in runtime.peer.outbox:
        runtime._send(destination, payload)
    runtime.peer.outbox.clear()


class PerEnvelopeNetwork(FederatedNetwork):
    """The reference delivery: no coalescing, one transport send per payload."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for runtime in self._runtimes.values():
            runtime.peer._coalesce = lambda staged: staged
            runtime._stage_outbox = partial(_stage_per_envelope, runtime)


def _run_network(
    environment, network_class=FederatedNetwork, delay=1, reorder_seed=None
):
    network = network_class(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=Transport(delay=delay, reorder_seed=reorder_seed),
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
    return network


def _reference(environment):
    return reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.all_operations(),
        oracle=AlwaysExpandOracle(),
    )


@pytest.mark.parametrize("seed,num_peers", [(0, 3), (1, 4), (5, 3)])
def test_coalesced_delivery_equals_per_envelope_delivery(seed, num_peers):
    config = FederationScenarioConfig(
        num_peers=num_peers,
        cross_mappings=num_peers + 2,
        operations_per_peer=6,
        seed=seed,
    )
    environment = generate_federation_environment(config)
    coalesced = _run_network(environment)
    plain = _run_network(environment, PerEnvelopeNetwork)

    reference = _reference(environment)
    assert check_convergence(coalesced, reference).equivalent
    assert check_convergence(plain, reference).equivalent
    assert databases_equivalent(
        coalesced.global_snapshot(), plain.global_snapshot()
    )
    # Bundling may only reduce wire traffic, never add to it.
    assert coalesced.transport.sent <= plain.transport.sent
    assert plain.transport.bundles_sent == 0
    assert plain.metrics()["envelopes_coalesced"] == 0


def test_coalesced_run_under_reorder_and_delay_converges():
    config = FederationScenarioConfig(
        num_peers=4, cross_mappings=6, operations_per_peer=6, seed=3
    )
    environment = generate_federation_environment(config)
    network = _run_network(environment, delay=2, reorder_seed=3)
    assert check_convergence(network, _reference(environment)).equivalent
