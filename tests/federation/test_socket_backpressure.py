"""No socket write waits: a flood of frames in both directions still drains.

Every write on the socket runtime queues its frame and sends what the
non-blocking socket takes; the rest leaves when the selector that already
reads reports the socket writable.  So neither the coordinator nor a peer
ever sits in a write while the other side, itself writing, has stopped
reading.  The two floods below are the shapes that stalled blocking writes:
many submissions the coordinator never reads the answers to, and a mapping
cycle where two peers stream firings at each other while the coordinator
feeds both.  The one wait left, a checkpoint's for its frames to go out,
is bounded: a destination that stops reading fails the checkpoint.
"""

from __future__ import annotations

import contextlib
import os

from repro.codec.framing import FrameDecoder
from repro.codec.wire import loads
from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import ProcessFederation
from repro.federation.network import ClientDesk
from repro.federation.proc import PeerHost
from repro.federation.socket_transport import FrameListener, SocketAddress
from repro.service.tickets import TicketStatus
from repro.storage.memory import FrozenDatabase

ROUNDS = 300
#: A bulky attribute value: a few KB per row fills the socket buffers fast.
PAYLOAD = "p" * 4096
DRAIN_TIMEOUT = 60.0


@contextlib.contextmanager
def federation_of(tmp_path, relations, mappings, ownership):
    schema = DatabaseSchema.from_dict(relations)
    federation = ProcessFederation(
        schema,
        FrozenDatabase(schema, {name: frozenset() for name in relations}),
        parse_tgds(mappings),
        ownership,
        workdir=str(tmp_path),
    )
    try:
        yield federation
    finally:
        federation.close()
        federation.assert_reaped()


def test_unpolled_submissions_at_one_peer_drain(tmp_path):
    with federation_of(
        tmp_path,
        {"A1": ["x"], "A2": ["x", "y"], "B1": ["x"], "B2": ["x"]},
        ["A1(x) -> exists y . A2(x, y)", "A2(x, y) -> B1(x)", "B1(x) -> B2(x)"],
        {"a": ["A1", "A2"], "b": ["B1", "B2"]},
    ) as federation:
        tickets = [
            federation.submit("a", InsertOperation(make_tuple("A1", str(index))))
            for index in range(ROUNDS)
        ]
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert all(ticket.status is TicketStatus.COMMITTED for ticket in tickets)
        assert federation.global_snapshot().count("B2") == ROUNDS


def test_a_two_peer_mapping_cycle_fed_at_both_ends_drains(tmp_path):
    with federation_of(
        tmp_path,
        {"A": ["x", "p"], "B": ["x", "p"]},
        ["A(x, p) -> B(x, p)", "B(x, p) -> A(x, p)"],
        {"a": ["A"], "b": ["B"]},
    ) as federation:
        tickets = []
        for index in range(ROUNDS):
            for peer, relation in (("a", "A"), ("b", "B")):
                tickets.append(federation.submit(peer, InsertOperation(
                    make_tuple(relation, "{}{}".format(peer, index), PAYLOAD)
                )))
                federation.poll(0)
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert all(ticket.status is TicketStatus.COMMITTED for ticket in tickets)
        snapshot = federation.global_snapshot()
        assert snapshot.count("A") == snapshot.count("B") == 2 * ROUNDS


def test_a_checkpoint_whose_destination_stops_reading_fails_without_halting(
    tmp_path,
):
    # b's listener takes the connection but nobody reads it: a's frames
    # toward b fill the socket, the wait runs out, and a reports a failed
    # checkpoint instead of writing one and freezing.
    relations = {"A1": ["x"], "B1": ["x"]}
    schema = DatabaseSchema.from_dict(relations)
    ownership = {"a": ("A1",), "b": ("B1",)}
    addresses = {
        name: SocketAddress.unix(str(tmp_path / "{}.sock".format(name)))
        for name in ownership
    }
    desk = ClientDesk()
    desk._open_desk(
        schema, FrozenDatabase(schema, {name: frozenset() for name in relations}),
        parse_tgds(["A1(x) -> B1(x)"]), ownership, "PRECISE", None, 1_000_000,
    )
    host = PeerHost(desk, "a", addresses)
    unread = FrameListener(addresses["b"])
    path = str(tmp_path / "a.checkpoint")
    try:
        link = host._links["b"]
        for _ in range(64):
            link.send(bytes(1 << 16), "raw", 1, None)
        host._handle_checkpoint({"path": path, "halt": True, "within": 0.2})
        assert link.writing
        assert not host.runtime.halted
        assert not os.path.exists(path)
        (frame,) = FrameDecoder().feed(b"".join(host._pending_events))
        reply = loads(frame.payload)
        assert reply["t"] == "checkpoint-done" and reply["path"] == path
        assert "['b']" in reply["error"]
    finally:
        host._shutdown()
        unread.close()
