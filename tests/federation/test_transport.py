"""Transport semantics: FIFO, delay, reorder, held links.

The transport carries bytes only (peer runtimes encode and decode), so the
messages here are byte strings.  The last two tests are about a peer
process's outgoing socket link: while its destination is down, it must not
ask its event loop to wake before the next redial, and frames a broken
write refused are neither lost nor counted as sent.
"""

from __future__ import annotations

import selectors

import pytest

from repro.federation.socket_transport import (
    FrameListener,
    OutgoingLink,
    SocketAddress,
)
from repro.federation.transport import Transport


def _payloads(envelopes):
    return [envelope.payload for envelope in envelopes]


def test_fifo_delivery_next_pump():
    transport = Transport()
    transport.send("a", "b", b"1")
    transport.send("a", "b", b"2")
    transport.send("b", "a", b"3")
    delivered = transport.pump()
    assert sorted(_payloads(delivered)) == [b"1", b"2", b"3"]
    ab = [e.payload for e in delivered if e.destination == "b"]
    assert ab == [b"1", b"2"]  # per-link FIFO preserved
    assert transport.in_flight == 0
    assert transport.pump() == []


def test_delay_holds_messages():
    transport = Transport(delay=2)
    transport.send("a", "b", b"x")
    assert _payloads(transport.pump()) == []
    assert _payloads(transport.pump()) == []
    assert _payloads(transport.pump()) == [b"x"]


def test_per_link_delay_override():
    transport = Transport(delay=0)
    transport.set_delay("a", "b", 3)
    transport.send("a", "b", b"slow")
    transport.send("a", "c", b"fast")
    first = transport.pump()
    assert _payloads(first) == [b"fast"]
    transport.pump()
    transport.pump()
    assert _payloads(transport.pump()) == [b"slow"]


def test_fifo_blocks_behind_undue_head_without_reorder():
    transport = Transport()
    transport.set_delay("a", "b", 2)
    transport.send("a", "b", b"first")  # due at tick 3
    transport.pump()  # tick 1
    transport.set_delay("a", "b", 0)
    transport.send("a", "b", b"second")  # due at tick 2, behind "first"
    assert _payloads(transport.pump()) == []  # second must not overtake
    assert _payloads(transport.pump()) == [b"first", b"second"]


def test_reorder_allows_overtaking():
    transport = Transport(reorder_seed=0)
    transport.set_delay("a", "b", 2)
    transport.send("a", "b", b"slow")
    transport.pump()
    transport.set_delay("a", "b", 0)
    transport.send("a", "b", b"fast")
    assert _payloads(transport.pump()) == [b"fast"]  # overtakes the undue head
    assert _payloads(transport.pump()) == [b"slow"]


def test_reorder_shuffles_batch_deterministically():
    def run(seed):
        transport = Transport(reorder_seed=seed)
        for index in range(10):
            transport.send("a", "b", bytes([index]))
        return _payloads(transport.pump())

    assert run(3) == run(3)  # seeded: reproducible
    assert sorted(run(3)) == [bytes([index]) for index in range(10)]
    assert any(
        run(seed) != [bytes([index]) for index in range(10)] for seed in range(5)
    )


def test_partition_holds_and_heal_releases():
    transport = Transport()
    transport.send("a", "b", b"held")
    link = transport.link("a", "b")
    link.held = True
    assert _payloads(transport.pump()) == []
    assert _payloads(transport.pump()) == []
    assert link.queued == 1 and link.frames_sent == 0  # nothing lost
    link.held = False
    assert _payloads(transport.pump()) == [b"held"]
    assert link.queued == 0 and link.frames_sent == 1


def test_partition_is_bidirectional_and_pairwise():
    # A partition is two directed holds, one at each sender.
    transport = Transport()
    pair = [transport.link("a", "b"), transport.link("b", "a")]
    for link in pair:
        link.held = True
    transport.send("b", "a", b"ba")
    transport.send("a", "c", b"ac")
    assert _payloads(transport.pump()) == [b"ac"]
    assert transport.metrics()["transport_partitioned_pairs"] == 1
    for link in pair:
        link.held = False
    assert _payloads(transport.pump()) == [b"ba"]


def test_self_send_rejected():
    transport = Transport()
    with pytest.raises(ValueError):
        transport.send("a", "a", b"loop")


def test_metrics_counters():
    transport = Transport()
    transport.send("a", "b", b"1")
    transport.pump()
    transport.send("a", "b", b"22", kind="bundle", payloads=3)
    metrics = transport.metrics()
    assert metrics["transport_sent"] == 2
    assert metrics["transport_delivered"] == 1
    assert metrics["transport_in_flight"] == 1
    # What the sender says about its bytes is what the metrics count.
    assert metrics["transport_bundles_sent"] == 1
    assert metrics["transport_payloads_sent"] == 4
    assert metrics["transport_wire_bytes_sent"] == 3
    assert metrics["transport_wire_bytes_raw"] == 1
    assert metrics["transport_wire_bytes_bundle"] == 2


def test_the_send_clock_rides_along_to_the_receiver():
    transport = Transport(delay=1)
    transport.send("a", "b", b"x", clock=12.5)
    transport.send("a", "b", b"y")
    transport.pump()
    assert [envelope.clock for envelope in transport.pump()] == [12.5, None]


def test_a_disconnected_socket_link_is_not_due_before_its_redial(tmp_path):
    # Nothing listens at the path: the dial fails and the link backs off.  A
    # frame due now must not make the peer's select loop spin until then.
    selector = selectors.DefaultSelector()
    link = OutgoingLink("b", SocketAddress.unix(str(tmp_path / "b.sock")), selector)
    now = 100.0
    link.send(b"envelope", "raw", 1, None)
    assert link.flush(now) == 0
    assert link.queued == 1
    assert link.next_due() > now
    selector.close()


def test_frames_a_broken_write_refused_stay_queued_and_unsent(tmp_path):
    # The destination closes its end: the next write fails at once (EPIPE),
    # so every frame of that flush goes back on the queue for a redial.
    address = SocketAddress.unix(str(tmp_path / "b.sock"))
    listener = FrameListener(address)
    selector = selectors.DefaultSelector()
    link = OutgoingLink("b", address, selector)
    try:
        link.send(b"first", "raw", 1, None)
        assert link.flush(0.0, hello=b"hello") == 1
        assert link.frames_sent == 1
        listener.accept(selector).close()
        for index in range(3):
            link.send(b"envelope-%d" % index, "raw", 1, None)
        assert link.flush(0.0) == 3
        assert link.frames_sent == 1
        assert link.queued == 3
        assert link.channel is None
        link.ready(selectors.EVENT_READ)  # a report left from the lost channel
    finally:
        link.close()
        listener.close()
        selector.close()
