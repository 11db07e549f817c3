"""Open-loop arrivals: Poisson/batch submission with convergence preserved.

The open-loop driver decouples submission from completion — the shape where
admission queues actually build and group admission has headroom.  These
tests pin the arrival processes (seeded, reproducible), the deferral at the
peers under a bounded admission queue, and — as always — that the drained
federation still matches the single-repository chase.
"""

from __future__ import annotations

import random

import pytest

from repro.core.oracle import AlwaysExpandOracle
from repro.federation import (
    FederatedNetwork,
    Transport,
    check_convergence,
    reference_chase,
)
from repro.service.admission import AdmissionConfig
from repro.service.tickets import TicketStatus
from repro.workload.federated_loop import (
    ArrivalProcess,
    FederatedOpenLoopDriver,
    expanding_answer,
)
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)


def _environment(seed=0, **overrides):
    overrides.setdefault("operations_per_peer", 6)
    config = FederationScenarioConfig(
        num_peers=3, cross_mappings=5, seed=seed, **overrides
    )
    return generate_federation_environment(config)


def _network(environment, admission=None):
    return FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=Transport(delay=1),
        admission=admission,
    )


def test_poisson_draws_are_seeded_and_nonnegative():
    arrivals = ArrivalProcess(kind="poisson", rate=2.0, seed=3)
    rng_a, rng_b = random.Random(3), random.Random(3)
    draws_a = [arrivals.draw(rng_a, r) for r in range(1, 200)]
    draws_b = [arrivals.draw(rng_b, r) for r in range(1, 200)]
    assert draws_a == draws_b
    assert all(k >= 0 for k in draws_a)
    mean = sum(draws_a) / len(draws_a)
    assert 1.5 < mean < 2.5  # a Poisson(2) sample mean


def test_batch_draws_fire_on_the_interval():
    arrivals = ArrivalProcess(kind="batch", batch_size=5, interval=3)
    rng = random.Random(0)
    draws = [arrivals.draw(rng, r) for r in range(1, 10)]
    assert draws == [5, 0, 0, 5, 0, 0, 5, 0, 0]


def test_batch_interval_one_fires_every_round():
    arrivals = ArrivalProcess(kind="batch", batch_size=2, interval=1)
    rng = random.Random(0)
    assert [arrivals.draw(rng, r) for r in range(1, 5)] == [2, 2, 2, 2]


def test_invalid_arrival_configs_are_rejected():
    with pytest.raises(ValueError):
        ArrivalProcess(kind="weird")
    with pytest.raises(ValueError):
        ArrivalProcess(rate=-1)
    with pytest.raises(ValueError):
        ArrivalProcess(kind="batch", batch_size=0)


@pytest.mark.parametrize("kind", ["poisson", "batch"])
def test_open_loop_run_drains_and_converges(kind):
    environment = _environment(seed=1)
    network = _network(environment)
    arrivals = (
        ArrivalProcess(kind="poisson", rate=1.5, seed=1)
        if kind == "poisson"
        else ArrivalProcess(kind="batch", batch_size=4, interval=2, seed=1)
    )
    driver = FederatedOpenLoopDriver(
        network,
        {peer: list(ops) for peer, ops in environment.operations.items()},
        arrivals,
        answer_delay=1,
        answer_strategy=expanding_answer,
    )
    report = driver.run(max_rounds=5_000)
    assert report.all_submitted and report.drained
    assert report.submitted == sum(
        len(ops) for ops in environment.operations.values()
    )
    reference = reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.all_operations(),
        oracle=AlwaysExpandOracle(),
    )
    convergence = check_convergence(network, reference)
    assert convergence.equivalent, convergence.summary()


class _DeferralRecordingDriver(FederatedOpenLoopDriver):
    """Also records the longest submission deferral seen at any peer."""

    deepest_deferral = 0

    def _observe_queues(self, report):
        super()._observe_queues(report)
        for peer in self.network.peers():
            self.deepest_deferral = max(self.deepest_deferral, len(peer.deferred))


def test_bursty_arrivals_are_deferred_at_the_peers_and_none_is_lost():
    """A bounded admission queue under bursts: the peers defer the overflow,
    nothing is lost, and no admission queue grows past its bound."""
    environment = _environment(seed=2, operations_per_peer=10)
    admission = AdmissionConfig(max_in_flight=2, batch_size=1, max_queue_depth=2)
    network = _network(environment, admission=admission)
    driver = _DeferralRecordingDriver(
        network,
        {peer: list(ops) for peer, ops in environment.operations.items()},
        ArrivalProcess(kind="batch", batch_size=10, interval=3, seed=2),
        answer_strategy=expanding_answer,
    )
    report = driver.run(max_rounds=5_000)
    assert report.all_submitted and report.drained
    assert driver.deepest_deferral > 0, "the burst should overflow the bounded queue"
    assert 0 < report.max_queue_depth <= admission.max_queue_depth
    assert all(
        ticket.status is TicketStatus.COMMITTED for ticket in network.tickets()
    )
    assert report.submitted == sum(
        len(ops) for ops in environment.operations.values()
    )
