"""Admission stays first come, first served across deferrals.

A peer whose bounded admission queue turns work away keeps it: deliveries
in :attr:`Peer.retry`, a peer process's client submissions in
:attr:`Peer.deferred`.  Work that arrives while older work waits there must
queue behind it, even when a slot has just come free, or the newest
arrival takes the slot the oldest one has been waiting for.
"""

from __future__ import annotations

from repro.codec.wire import encode_user_operation, loads
from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import FederatedNetwork, Transport
from repro.federation.proc import PeerHost, encode_peer_config
from repro.federation.socket_transport import SocketAddress
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
    network.run_until_quiescent(max_rounds=200)
    assert all(ticket.status is TicketStatus.COMMITTED for ticket in tickets)
    assert _admitted(b.service) == ["w0", "w1", "w2", "w3", "w4"]


def test_a_fresh_submission_queues_behind_the_deferred_ones(tmp_path):
    schema = DatabaseSchema.from_dict({"A1": ["x"]})
    ownership = {"a": ("A1",), "b": ()}
    addresses = {
        name: SocketAddress.unix(str(tmp_path / "{}.sock".format(name)))
        for name in ownership
    }
    host = PeerHost(loads(encode_peer_config(
        "a", schema, FrozenDatabase(schema, {"A1": frozenset()}), [],
        ownership, addresses, admission=ONE_SLOT,
    )))

    def submit(fid):
        operation = InsertOperation(make_tuple("A1", "v{}".format(fid)))
        host._handle_control(None, {
            "t": "submit", "fid": fid, "op": encode_user_operation(operation, {}),
        })

    try:
        submit(1)
        submit(2)  # the slot is taken: deferred
        host.peer.pump()  # v1 leaves the slot for the scheduler
        assert len(host.peer.deferred) == 1
        submit(3)
        host._work()
        assert host.peer.deferred == []
        assert _admitted(host.peer.service) == ["v1", "v2", "v3"]
    finally:
        host._shutdown()
