"""Admission stays first come, first served across deferrals.

A peer whose bounded admission queue turns work away keeps it: deliveries
in :attr:`Peer.retry`, client submissions in :attr:`Peer.deferred` (in both
runtimes, through the client desk).  Work that arrives while older work
waits there must queue behind it, even when a slot has just come free, or
the newest arrival takes the slot the oldest one has been waiting for.
"""

from __future__ import annotations

import contextlib

from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import FederatedNetwork, ProcessFederation, Transport
from repro.service import AdmissionConfig
from repro.service.tickets import TicketStatus
from repro.storage.memory import FrozenDatabase

#: One slot to wait in, one update executing at a time.
ONE_SLOT = AdmissionConfig(max_in_flight=1, batch_size=1, max_queue_depth=1)


def _admitted(service):
    """The values of the rows *service* admitted, in admission order."""
    return [ticket.operation.row.values[0].value for ticket in service.tickets()]


def test_a_fresh_delivery_queues_behind_the_deferred_ones():
    schema = DatabaseSchema.from_dict({"A1": ["x"], "B1": ["x"]})
    network = FederatedNetwork(
        schema,
        FrozenDatabase(schema, {"A1": frozenset(), "B1": frozenset()}),
        parse_tgds(["A1(x) -> B1(x)"]),
        ownership={"a": ["A1"], "b": ["B1"]},
        transport=Transport(),
        admission=ONE_SLOT,
    )
    tickets = [
        network.submit("a", InsertOperation(make_tuple("B1", "w{}".format(index))))
        for index in range(4)
    ]
    network.pump()
    b = network.peer("b")
    # w0 took the slot and ran; w1..w3 wait at b, and the slot is free again.
    assert len(b.retry) == 3
    assert b.service.queue_depth == 0
    tickets.append(network.submit("a", InsertOperation(make_tuple("B1", "w4"))))
    network.drain()
    assert all(ticket.status is TicketStatus.COMMITTED for ticket in tickets)
    assert _admitted(b.service) == ["w0", "w1", "w2", "w3", "w4"]


@contextlib.contextmanager
def _one_slot_federation(runtime, workdir):
    """Peer ``a`` owns ``A1`` behind one admission slot, in *runtime*."""
    schema = DatabaseSchema.from_dict({"A1": ["x"]})
    arguments = (
        schema, FrozenDatabase(schema, {"A1": frozenset()}), [],
        {"a": ("A1",), "b": ()},
    )
    if runtime is FederatedNetwork:
        yield FederatedNetwork(*arguments, admission=ONE_SLOT)
        return
    federation = ProcessFederation(*arguments, admission=ONE_SLOT, workdir=workdir)
    try:
        yield federation
    finally:
        federation.close()
        federation.assert_reaped()


def test_a_fresh_submission_queues_behind_the_deferred_ones(tmp_path, monkeypatch):
    """Through the client desk, in both runtimes."""
    for runtime in (FederatedNetwork, ProcessFederation):
        with _one_slot_federation(runtime, str(tmp_path)) as federation:
            _submissions_queue_behind_the_deferred_ones(federation, monkeypatch)


def _submissions_queue_behind_the_deferred_ones(federation, monkeypatch):
    committed = []
    apply = federation._apply

    def recording(event):
        if event["t"] == "ticket":
            committed.append(event["fid"])
        apply(event)

    monkeypatch.setattr(federation, "_apply", recording)

    def submit(value):
        return federation.submit("a", InsertOperation(make_tuple("A1", value)))

    tickets = [submit("v1"), submit("v2")]  # the slot is taken: v2 is deferred
    if isinstance(federation, FederatedNetwork):
        a = federation.peer("a")
        a.pump()  # v1 leaves the slot for the scheduler
        assert [fid for fid, _ in a.deferred] == [2]
    else:
        federation.poll(0.05)  # the peer admits v1 and defers v2
    tickets.append(submit("v3"))
    federation.drain(timeout=120.0)
    if isinstance(federation, FederatedNetwork):
        assert _admitted(a.service) == ["v1", "v2", "v3"]
    assert committed == [1, 2, 3]
    assert all(ticket.status is TicketStatus.COMMITTED for ticket in tickets)
