"""A routed operation's terminal status is reported by the peer that ran it.

A user operation submitted at peer ``a`` on a relation ``b`` owns travels to
``b`` as a :class:`~repro.federation.envelopes.RemoteUpdate`; when it commits
or fails there, ``b`` reports the status straight to the client desk under
the federated ticket id the update's origin carries.  Nothing travels back
to ``a``, so the desk learns the outcome in the round that commits it, and a
budget stall at ``b`` still reaches the desk as ``FAILED`` while ``b`` keeps
serving, in both runtimes.  A peer checkpoint
of an earlier build, which kept a ``routed`` table of the operations the peer
had forwarded, restores cleanly in both runtimes.
"""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.codec.wire import dumps
from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import FederatedNetwork, ProcessFederation
from repro.service.tickets import TicketStatus
from repro.storage.memory import FrozenDatabase

TIMEOUT = 120.0

RELATIONS = {"A1": ["x"], "A2": ["x", "y"], "B1": ["x"], "B2": ["x"]}
MAPPINGS = ["A1(x) -> exists y . A2(x, y)", "A2(x, y) -> B1(x)", "B1(x) -> B2(x)"]
OWNERSHIP = {"a": ["A1", "A2"], "b": ["B1", "B2"]}


def _arguments():
    schema = DatabaseSchema.from_dict(RELATIONS)
    return (
        schema,
        FrozenDatabase(schema, {name: frozenset() for name in RELATIONS}),
        parse_tgds(MAPPINGS),
        OWNERSHIP,
    )


@pytest.fixture(params=["inprocess", "process"])
def federation_of(request, tmp_path):
    """Build a federation of the parametrized runtime over the chain."""

    @contextlib.contextmanager
    def build(**options):
        if request.param == "inprocess":
            yield FederatedNetwork(*_arguments(), **options)
            return
        federation = ProcessFederation(
            *_arguments(), workdir=str(tmp_path / "fed"), **options
        )
        try:
            yield federation
        finally:
            federation.close()
            federation.assert_reaped()

    return build


def test_routed_commit_reaches_the_desk_in_the_round_that_commits_it():
    network = FederatedNetwork(*_arguments())
    # B2 is on no mapping's LHS: the insert commits without a chase step.
    ticket = network.submit("a", InsertOperation(make_tuple("B2", "w")))
    assert ticket.target == "b"
    for _ in range(5):
        report = network.pump()
        if report.committed:
            break
    assert report.committed == 1
    assert ticket.status is TicketStatus.COMMITTED
    assert network.peer("b").notices_emitted == 1
    # Nothing was staged back toward the submitting peer.
    assert not network.transport.in_flight
    assert network.peer("b").service.count("B2") == 1


def test_routed_update_stopped_by_the_owners_budget_is_failed_at_the_desk(
    federation_of,
):
    # The lifetime budget admits the insert's own step but not the local
    # chase it triggers at b (B1 -> B2).  The stall fails the update at b,
    # which reports it to the desk and goes on serving.
    with federation_of(max_total_steps=1) as federation:
        ticket = federation.submit("a", InsertOperation(make_tuple("B1", "w")))
        federation.drain(timeout=TIMEOUT)
        assert ticket.status is TicketStatus.FAILED
        if isinstance(federation, FederatedNetwork):
            assert federation.peer("b").notices_emitted == 1
        else:
            assert federation._handles["b"].process.poll() is None
        assert federation.global_snapshot().count("B2") == 0


def test_checkpoint_with_a_routed_table_restores(federation_of, tmp_path):
    path = str(tmp_path / "a.ckpt")
    with federation_of() as federation:
        routed = federation.submit("a", InsertOperation(make_tuple("B1", "w1")))
        federation.drain(timeout=TIMEOUT)
        assert routed.status is TicketStatus.COMMITTED
        if isinstance(federation, FederatedNetwork):
            federation.checkpoint_peer("a", path)
        else:
            federation.checkpoint_peer("a", path, halt=True)
            federation.kill_peer("a")
        with open(path) as handle:
            manifest = json.load(handle)
        assert "routed" not in manifest["extra"]
        # What an earlier build wrote: the ids of operations routed from a.
        manifest["extra"]["routed"] = [routed.ticket_id, routed.ticket_id + 7]
        with open(path, "wb") as handle:
            handle.write(dumps(manifest) + b"\n")
        federation.restart_peer("a", path)
        tickets = [
            federation.submit("a", InsertOperation(make_tuple("B1", "w2"))),
            federation.submit("a", InsertOperation(make_tuple("A1", "v1"))),
        ]
        federation.drain(timeout=TIMEOUT)
        assert [ticket.status for ticket in tickets] == [TicketStatus.COMMITTED] * 2
        snapshot = federation.global_snapshot()
        assert (snapshot.count("B1"), snapshot.count("B2")) == (3, 3)
