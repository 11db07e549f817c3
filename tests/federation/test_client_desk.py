"""The client surface is the same in both runtimes.

A client of a federation sees tickets, a per-peer inbox of questions and
answers; :class:`~repro.federation.network.ClientDesk` is that surface, and
both :class:`FederatedNetwork` and :class:`ProcessFederation` must present it
identically: ticket ids, terminal statuses, where a routed update's question
is filed, what answering does, and which calls are rejected.
"""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.core.frontier import UnifyOperation
from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import (
    FederatedNetwork,
    FederationError,
    ProcessFederation,
    ProcessFederationError,
    SocketTransportError,
)
from repro.service import AdmissionConfig
from repro.service.tickets import TicketStatus
from repro.storage.memory import FrozenDatabase

TIMEOUT = 120.0

CHAIN = (
    {"A1": ["x"], "A2": ["x", "y"], "B1": ["x"], "B2": ["x"]},
    ["A1(x) -> exists y . A2(x, y)", "A2(x, y) -> B1(x)", "B1(x) -> B2(x)"],
    {"a": ["A1", "A2"], "b": ["B1", "B2"]},
)
RELAY = (
    {"A1": ["x"], "B1": ["x"]},
    ["A1(x) -> B1(x)"],
    {"a": ["A1"], "b": ["B1"]},
)
CYCLIC = (
    {"Seed": ["x"], "Person": ["name"], "Father": ["child", "father"]},
    ["Seed(x) -> Person(x)", "Person(x) -> exists y . Father(x, y), Person(y)"],
    {"a": ["Seed"], "b": ["Person", "Father"]},
)


@pytest.fixture(params=["inprocess", "process"])
def federation_of(request, tmp_path):
    """Build a federation of the parametrized runtime over a topology."""

    @contextlib.contextmanager
    def build(topology, admission=None):
        relations, mappings, ownership = topology
        schema = DatabaseSchema.from_dict(relations)
        arguments = (
            schema,
            FrozenDatabase(schema, {name: frozenset() for name in relations}),
            parse_tgds(mappings),
            ownership,
        )
        if request.param == "inprocess":
            yield FederatedNetwork(*arguments, admission=admission)
            return
        federation = ProcessFederation(
            *arguments, admission=admission, workdir=str(tmp_path)
        )
        try:
            yield federation
        finally:
            federation.close()
            federation.assert_reaped()

    return build


def _settle(federation):
    if isinstance(federation, FederatedNetwork):
        federation.run_until_quiescent()
    else:
        federation.drain(timeout=TIMEOUT)


def _advance(federation):
    if isinstance(federation, FederatedNetwork):
        federation.pump()
    else:
        federation.poll(0.05)


def test_tickets_and_rejections(federation_of):
    with federation_of(CHAIN) as federation:
        tickets = [
            federation.submit("a", InsertOperation(make_tuple("A1", "v1"))),
            federation.submit("a", InsertOperation(make_tuple("B1", "w1"))),
            federation.submit("b", InsertOperation(make_tuple("B1", "w2"))),
        ]
        assert [ticket.ticket_id for ticket in tickets] == [1, 2, 3]
        assert federation.tickets() == tickets
        assert [ticket.target for ticket in tickets] == ["a", "b", "b"]
        _settle(federation)
        assert [ticket.status for ticket in tickets] == [TicketStatus.COMMITTED] * 3
        assert all(ticket.is_done for ticket in tickets)
        assert federation.ticket(2) is tickets[1]
        with pytest.raises(FederationError):
            federation.ticket(99)
        with pytest.raises(FederationError):
            federation.inbox("zz")
        with pytest.raises(FederationError):
            federation.submit("zz", InsertOperation(make_tuple("A1", "v2")))


def test_a_full_admission_queue_defers_submissions_in_order(
    federation_of, monkeypatch
):
    """One admission slot and four submissions at one peer: every call
    returns a ticket, and the peer commits all four in submission order."""
    one_slot = AdmissionConfig(max_in_flight=1, batch_size=1, max_queue_depth=1)
    with federation_of(RELAY, admission=one_slot) as federation:
        committed = []
        apply = federation._apply

        def recording(event):
            if event["t"] == "ticket":
                committed.append((event["fid"], event["status"]))
            apply(event)

        monkeypatch.setattr(federation, "_apply", recording)
        tickets = [
            federation.submit("a", InsertOperation(make_tuple("A1", value)))
            for value in ("v0", "v1", "v2", "v3")
        ]
        assert [ticket.ticket_id for ticket in tickets] == [1, 2, 3, 4]
        _settle(federation)
        assert committed == [(fid, "committed") for fid in (1, 2, 3, 4)]
        assert [ticket.status for ticket in tickets] == [TicketStatus.COMMITTED] * 4
        snapshot = federation.global_snapshot()
        assert (snapshot.count("A1"), snapshot.count("B1")) == (4, 4)


def test_routed_question_is_answered_at_its_origin(federation_of):
    with federation_of(CYCLIC) as federation:
        # Person is b's: the update is routed there, and the question its
        # chase raises comes back to a, where the client is.
        ticket = federation.submit("a", InsertOperation(make_tuple("Person", "alice")))
        assert ticket.target == "b"
        deadline = time.monotonic() + TIMEOUT
        while not federation.inbox("a"):
            assert time.monotonic() < deadline, "the question never reached a"
            _advance(federation)
        (question,) = federation.inbox("a")
        assert question.executing_peer == "b"
        assert federation.inbox("b") == []
        unify = [
            alternative
            for alternative in question.alternatives()
            if isinstance(alternative, UnifyOperation)
        ][0]
        with pytest.raises(FederationError):
            federation.answer("zz", question, unify)
        federation.answer("a", question, unify)
        with pytest.raises(FederationError):
            federation.answer("a", question, unify)
        _settle(federation)
        assert ticket.status is TicketStatus.COMMITTED
        assert federation.inbox("a") == []
        snapshot = federation.global_snapshot()
        assert (snapshot.count("Person"), snapshot.count("Father")) == (1, 1)


def test_a_link_to_an_unknown_peer_or_to_itself_is_rejected(federation_of):
    with federation_of(CHAIN) as federation:
        for a, b in (("a", "zz"), ("zz", "a"), ("a", "a")):
            with pytest.raises(FederationError):
                federation.partition(a, b)
            with pytest.raises(FederationError):
                federation.heal(a, b)
        # Nothing reached a peer: the federation works on, every peer alive.
        ticket = federation.submit("a", InsertOperation(make_tuple("A1", "v1")))
        _settle(federation)
        assert ticket.status is TicketStatus.COMMITTED
        if isinstance(federation, ProcessFederation):
            assert all(
                handle.process.poll() is None
                for handle in federation._handles.values()
            )


def test_a_call_naming_an_unknown_peer_is_rejected(federation_of, tmp_path):
    with federation_of(CHAIN) as federation:
        path = str(tmp_path / "zz.ckpt")
        with pytest.raises(FederationError):
            federation.checkpoint_peer("zz", path)
        with pytest.raises(FederationError):
            federation.restart_peer("zz", path)
        if isinstance(federation, ProcessFederation):
            with pytest.raises(FederationError):
                federation.kill_peer("zz")
        # Nothing reached a peer: the federation works on, every peer alive.
        ticket = federation.submit("a", InsertOperation(make_tuple("A1", "v1")))
        _settle(federation)
        assert ticket.status is TicketStatus.COMMITTED
        if isinstance(federation, ProcessFederation):
            assert all(
                handle.process.poll() is None
                for handle in federation._handles.values()
            )


def test_a_call_that_reaches_no_peer_leaves_the_desk_as_it_was(tmp_path):
    """An answer or a submission whose write fails reached no peer: the
    question stays open and no ticket is left queued forever."""
    relations, mappings, ownership = CYCLIC
    schema = DatabaseSchema.from_dict(relations)
    federation = ProcessFederation(
        schema,
        FrozenDatabase(schema, {name: frozenset() for name in relations}),
        parse_tgds(mappings),
        ownership,
        workdir=str(tmp_path),
    )
    try:
        ticket = federation.submit("a", InsertOperation(make_tuple("Person", "alice")))
        deadline = time.monotonic() + TIMEOUT
        while not federation.inbox("a"):
            assert time.monotonic() < deadline, "the question never reached a"
            federation.poll(0.05)
        (question,) = federation.inbox("a")
        process = federation._handles["a"].process
        process.kill()
        process.wait(timeout=TIMEOUT)
        with pytest.raises(SocketTransportError):
            federation.answer("a", question, 0)
        assert federation.inbox("a") == [question]
        with pytest.raises(SocketTransportError):
            federation.submit("a", InsertOperation(make_tuple("Seed", "s1")))
        federation.poll()
        with pytest.raises(ProcessFederationError):
            federation.submit("a", InsertOperation(make_tuple("Seed", "s2")))
        assert federation.tickets() == [ticket]
        assert federation.inbox("a") == [question]
    finally:
        federation.close()
        federation.assert_reaped()
