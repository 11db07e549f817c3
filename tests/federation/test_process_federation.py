"""Socket-federation differential: real peer processes ≡ in-process ≡ chase.

The acceptance bar of the multi-process transport: a federation of peer
*processes* exchanging framed codec envelopes over Unix-domain sockets must
drain to the same global state — hom-equivalence up to null renaming, ground
parts exactly equal — as (a) the in-process :class:`FederatedNetwork` over
the simulated transport and (b) the single-repository chase over the union
of mappings.  Randomized 3–5 peer scenarios, partition-then-heal, and a
kill-and-restart of a peer *process* from a checkpoint file all go through
the same comparison (seeded delay and reorder are the in-memory transport's,
exercised by the in-process differentials), each
drained by the runtime's watermark protocol and, where a premature verdict
would hide, by the paced poll oracle (``tests/oracles/poll_drain.py``) too.

Every test tears its federation down through :func:`running`, which closes
the coordinator and then *asserts* that no child process and no socket file
survived — a failing test must not leak zombies (the harness teardown
guarantee the CI smoke job relies on).
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import tempfile
import time
import warnings

import pytest
from drivers import FederatedClientSpec, FederatedClosedLoopDriver, all_operations
from oracles.poll_drain import poll_drain

from repro.core.oracle import AlwaysExpandOracle
from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import (
    FederatedNetwork,
    FederationError,
    Peer,
    ProcessFederation,
    ProcessFederationError,
    Transport,
    databases_equivalent,
    reference_chase,
)
from repro.obs.trace import NOOP_TRACER
from repro.service.tickets import TicketStatus
from repro.storage.memory import FrozenDatabase
from repro.workload.federated_loop import conservative_answer, expanding_answer
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

DRAIN_TIMEOUT = 120.0


@contextlib.contextmanager
def running(federation):
    """Close the federation on the way out and assert every child is reaped."""
    try:
        yield federation
    finally:
        federation.close()
        federation.assert_reaped()


def chain_pieces():
    schema = DatabaseSchema.from_dict(
        {"A1": ["x"], "A2": ["x", "y"], "B1": ["x"], "B2": ["x"]}
    )
    mappings = parse_tgds(
        [
            "A1(x) -> exists y . A2(x, y)",
            "A2(x, y) -> B1(x)",
            "B1(x) -> B2(x)",
        ]
    )
    initial = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    return schema, mappings, initial


def _reference(environment):
    reference = reference_chase(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        all_operations(environment),
        oracle=AlwaysExpandOracle(),
    )
    assert reference.all_terminated
    return reference


def _run_inprocess(environment, delay=1):
    network = FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=Transport(delay=delay),
    )
    specs = [
        FederatedClientSpec(
            peer=peer, name="client@{}".format(peer), operations=list(ops)
        )
        for peer, ops in environment.operations.items()
    ]
    driver = FederatedClosedLoopDriver(
        network, specs, answer_delay=1, answer_strategy=expanding_answer
    )
    report = driver.run(max_rounds=5_000)
    assert report.all_done and report.drained
    return network


def _drain(federation, drain_mode, **kwargs):
    """Drain with the runtime's watermark protocol or the poll oracle."""
    if drain_mode == "poll":
        return poll_drain(federation, **kwargs)
    return federation.drain(**kwargs)


def _submit_all(federation, environment):
    tickets = []
    for peer in sorted(environment.operations):
        for operation in environment.operations[peer]:
            tickets.append(federation.submit(peer, operation))
    return tickets


# ----------------------------------------------------------------------
# Mechanics on the hand-built chain
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["unix", "tcp"])
def test_forward_cascade_across_processes(tmp_path, transport):
    schema, mappings, initial = chain_pieces()
    operations = [InsertOperation(make_tuple("A1", "v1"))]
    with running(ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
        transport=transport,
        workdir=str(tmp_path / transport),
    )) as federation:
        ticket = federation.submit("a", operations[0])
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert ticket.status is TicketStatus.COMMITTED
        snapshot = federation.global_snapshot()
    assert snapshot.count("A1") == 1
    assert snapshot.count("A2") == 1
    assert snapshot.count("B1") == 1  # crossed a real socket
    assert snapshot.count("B2") == 1  # cascaded through b's local chase
    reference = reference_chase(schema, initial, mappings, operations)
    assert databases_equivalent(snapshot, reference.final)


@pytest.mark.parametrize("ownership,message", [
    ({"a": ["A1"]}, "no peer owns"),
    ({"a": ["A1", "B1"], "b": ["B1"]}, "claimed by both"),
    ({"a": ["A1", "C1"], "b": ["B1"]}, "unknown relation"),
])
def test_invalid_topologies_rejected_before_anything_starts(
    tmp_path, ownership, message
):
    schema = DatabaseSchema.from_dict({"A1": ["x"], "B1": ["x"]})
    initial = FrozenDatabase(schema, {"A1": frozenset(), "B1": frozenset()})
    workdir = tmp_path / "federation"
    with pytest.raises(FederationError, match=message):
        ProcessFederation(schema, initial, [], ownership, workdir=str(workdir))
    assert not workdir.exists()


def test_user_update_routed_to_owner_process(tmp_path):
    schema, mappings, initial = chain_pieces()
    with running(ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
        workdir=str(tmp_path),
    )) as federation:
        ticket = federation.submit("a", InsertOperation(make_tuple("B1", "w")))
        assert ticket.target == "b"
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert ticket.status is TicketStatus.COMMITTED
        snapshot = federation.global_snapshot()
        assert snapshot.count("B1") == 1
        # Status replies carry per-peer commit counts: the update executed
        # at the owner's process, not where it was submitted.
        metrics = federation.metrics()
        assert metrics["b"]["committed"] >= 1


def test_relayed_answer_crosses_the_sockets_as_an_index(tmp_path, monkeypatch):
    """Coordinator -> origin peer -> executing peer: the answer never
    carries the request's tuples back, only a position in it."""
    from repro.core.frontier import UnifyOperation

    schema = DatabaseSchema.from_dict(
        {"Seed": ["x"], "Person": ["name"], "Father": ["child", "father"]}
    )
    mappings = parse_tgds(
        [
            "Seed(x) -> Person(x)",                             # cross a -> b
            "Person(x) -> exists y . Father(x, y), Person(y)",  # cyclic local at b
        ]
    )
    initial = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    sent = []
    send = ProcessFederation._send

    def recording(self, name, body):
        sent.append((name, body))
        return send(self, name, body)

    monkeypatch.setattr(ProcessFederation, "_send", recording)
    with running(ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["Seed"], "b": ["Person", "Father"]},
        workdir=str(tmp_path),
    )) as federation:
        ticket = federation.submit("a", InsertOperation(make_tuple("Seed", "alice")))
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while not federation.inbox("a"):
            assert time.monotonic() < deadline, "the question never reached a"
            federation.poll(0.05)
        question = federation.inbox("a")[0]
        assert question.executing_peer == "b"
        position, unify = [
            (position, alternative)
            for position, alternative in enumerate(question.alternatives())
            if isinstance(alternative, UnifyOperation)
        ][0]
        federation.answer("a", question, unify)
        answers = [body for _, body in sent if body["t"] == "answer"]
        assert [body["choice"] for body in answers] == [{"t": "index", "i": position}]
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert ticket.status is TicketStatus.COMMITTED
        snapshot = federation.global_snapshot()
        assert (snapshot.count("Person"), snapshot.count("Father")) == (1, 1)
        assert all(
            view["answers_dropped"] == 0 for view in federation.metrics().values()
        )


# ----------------------------------------------------------------------
# Randomized differential scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,num_peers", [(0, 3), (1, 4), (2, 5)])
def test_randomized_sockets_match_inprocess_and_reference(
    tmp_path, seed, num_peers
):
    config = FederationScenarioConfig(
        num_peers=num_peers,
        cross_mappings=num_peers + 2,
        seed=seed,
    )
    environment = generate_federation_environment(config)
    with running(ProcessFederation(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        workdir=str(tmp_path),
    )) as federation:
        tickets = _submit_all(federation, environment)
        federation.drain(
            answer_strategy=expanding_answer, timeout=DRAIN_TIMEOUT
        )
        assert all(ticket.is_done for ticket in tickets)
        socket_snapshot = federation.global_snapshot()
    reference = _reference(environment)
    assert databases_equivalent(socket_snapshot, reference.final)
    # Same scenario, in-process federation: the differential oracle.
    inprocess = _run_inprocess(
        generate_federation_environment(config)
    ).global_snapshot()
    assert databases_equivalent(socket_snapshot, inprocess)


def test_drain_modes_agree_on_randomized_topology(tmp_path):
    """The watermark drain and the poll oracle settle the same state and keys.

    The same randomized scenario runs once per drain; both must match
    the single-repository reference chase, and the post-drain ``metrics()``
    documents must carry bit-identical key sets (top-level peers, per-peer
    status keys, and per-peer metric-registry keys) so dashboards cannot
    tell the two apart.
    """
    config = FederationScenarioConfig(num_peers=3, cross_mappings=5, seed=7)
    snapshots = {}
    metric_shapes = {}
    for drain_mode in ("watermark", "poll"):
        environment = generate_federation_environment(config)
        workdir = tmp_path / drain_mode
        workdir.mkdir()
        with running(ProcessFederation(
            environment.schema,
            environment.initial,
            list(environment.mappings),
            environment.ownership,
            workdir=str(workdir),
        )) as federation:
            tickets = _submit_all(federation, environment)
            _drain(
                federation,
                drain_mode,
                answer_strategy=expanding_answer,
                timeout=DRAIN_TIMEOUT,
            )
            assert all(ticket.is_done for ticket in tickets)
            snapshots[drain_mode] = federation.global_snapshot()
            metrics = federation.metrics()
            metric_shapes[drain_mode] = {
                peer: (
                    frozenset(view.keys()),
                    frozenset((view.get("metrics") or {}).keys()),
                )
                for peer, view in metrics.items()
            }
        assert databases_equivalent(
            snapshots[drain_mode], _reference(environment).final
        )
    assert databases_equivalent(snapshots["watermark"], snapshots["poll"])
    assert metric_shapes["watermark"] == metric_shapes["poll"]


@pytest.mark.parametrize("drain_mode", ["watermark", "poll"])
def test_partition_then_heal_sockets_converge(tmp_path, drain_mode):
    config = FederationScenarioConfig(
        num_peers=3, cross_mappings=6, remote_insert_fraction=0.5, seed=4
    )
    environment = generate_federation_environment(config)
    with running(ProcessFederation(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        workdir=str(tmp_path),
    )) as federation:
        peers = environment.config.peer_names()
        federation.partition(peers[0], peers[1])
        federation.partition(peers[1], peers[2])
        tickets = _submit_all(federation, environment)
        # A routed submission whose path crosses the cut cannot finish: its
        # RemoteUpdate frame is held on the origin's outgoing link.
        cut = {(peers[0], peers[1]), (peers[1], peers[0]),
               (peers[1], peers[2]), (peers[2], peers[1])}
        blocked = [
            ticket for ticket in tickets
            if (ticket.peer, ticket.target) in cut
        ]
        assert blocked, "scenario routed nothing across the partition"
        deadline_questions = 40
        for _ in range(deadline_questions):
            federation.poll(0.05)
            for peer_name in peers:
                for question in federation.inbox(peer_name):
                    federation.answer(
                        peer_name, question, expanding_answer(question)
                    )
        assert any(not ticket.is_done for ticket in blocked), (
            "the partition should still be holding routed updates"
        )
        federation.heal(peers[0], peers[1])
        federation.heal(peers[1], peers[2])
        _drain(
            federation,
            drain_mode,
            answer_strategy=expanding_answer,
            timeout=DRAIN_TIMEOUT,
        )
        assert all(ticket.is_done for ticket in tickets)
        snapshot = federation.global_snapshot()
    assert databases_equivalent(snapshot, _reference(environment).final)


# ----------------------------------------------------------------------
# Kill and restart of a real process
# ----------------------------------------------------------------------
# Both transports on purpose: a TCP connection to a killed peer can absorb
# a write without an error (the RST races the write), so survivors must drop
# their outgoing links at the dead process's EOF before the release — UDS
# alone never sees it.
# Watermark mode on both transports: a reborn peer resets its activity
# sequence, so kill/restart is where a stale coordinator watermark view
# could fake quiescence.  The poll oracle rides along once as the control.
@pytest.mark.parametrize("transport,drain_mode", [
    ("unix", "watermark"),
    ("tcp", "watermark"),
    ("unix", "poll"),
])
def test_kill_and_restart_peer_process_converges(tmp_path, transport, drain_mode):
    config = FederationScenarioConfig(
        num_peers=3,
        cross_mappings=6,
        operations_per_peer=6,
        remote_insert_fraction=0.3,
        seed=0,
    )
    environment = generate_federation_environment(config)
    with running(ProcessFederation(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=transport,
        workdir=str(tmp_path),
    )) as federation:
        tickets = _submit_all(federation, environment)
        # Let the federation make *some* progress, then snapshot-and-kill a
        # genuinely mid-workload victim process.
        for _ in range(4):
            federation.poll(0.05)
            for peer_name in environment.config.peer_names():
                for question in federation.inbox(peer_name):
                    federation.answer(
                        peer_name, question, expanding_answer(question)
                    )
        victim = environment.config.peer_names()[1]
        old_pid = federation._handles[victim].process.pid
        path = str(tmp_path / "{}.ckpt".format(victim))
        federation.checkpoint_peer(victim, path, halt=True)
        federation.kill_peer(victim)
        assert federation._handles[victim].process.poll() is not None
        federation.restart_peer(victim, path)
        assert federation._handles[victim].process.pid != old_pid
        _drain(
            federation,
            drain_mode,
            answer_strategy=expanding_answer,
            timeout=DRAIN_TIMEOUT,
        )
        assert all(ticket.is_done for ticket in tickets)
        snapshot = federation.global_snapshot()
    assert databases_equivalent(snapshot, _reference(environment).final)


def test_a_replaced_destination_receives_every_held_frame_over_tcp(tmp_path):
    """Frames queued toward a killed peer reach its reborn process, not the
    dead process's TCP connection, which the survivor reads to its EOF."""
    schema, mappings, initial = chain_pieces()
    with running(ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
        transport="tcp",
        workdir=str(tmp_path),
    )) as federation:
        # a's link to b connects first, so there is a connection to go stale.
        tickets = [federation.submit("a", InsertOperation(make_tuple("A1", "v0")))]
        federation.drain(timeout=DRAIN_TIMEOUT)
        path = str(tmp_path / "b.ckpt")
        federation.checkpoint_peer("b", path, halt=True)
        federation.kill_peer("b")
        for index in range(1, 6):
            tickets.append(federation.submit(
                "a", InsertOperation(make_tuple("A1", "v{}".format(index)))
            ))
        federation.restart_peer("b", path)
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert all(ticket.status is TicketStatus.COMMITTED for ticket in tickets)
        snapshot = federation.global_snapshot()
        expected = {"v{}".format(index) for index in range(6)}
        for relation in ("B1", "B2"):
            rows = snapshot.tuples(relation)
            assert {row.values[0].value for row in rows} == expected


def test_global_snapshot_names_a_killed_owner(tmp_path):
    schema, mappings, initial = chain_pieces()
    with running(ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
        workdir=str(tmp_path),
    )) as federation:
        federation.kill_peer("b")
        with pytest.raises(FederationError, match="dead peer.*b"):
            federation.global_snapshot()


def test_restarted_peer_process_forgets_its_dead_services_questions(tmp_path):
    """A question the killed service asked dies with it: the reborn process
    re-asks under a fresh decision id and counts only the new one."""
    schema = DatabaseSchema.from_dict(
        {"Seed": ["x"], "Person": ["name"], "Father": ["child", "father"]}
    )
    mappings = parse_tgds(
        [
            "Seed(x) -> Person(x)",
            "Person(x) -> exists y . Father(x, y), Person(y)",
        ]
    )
    initial = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    with running(ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["Seed"], "b": ["Person", "Father"]},
        workdir=str(tmp_path),
    )) as federation:
        ticket = federation.submit("b", InsertOperation(make_tuple("Person", "alice")))
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while [question.key for question in federation.inbox("b")] != [("b", 1)]:
            assert time.monotonic() < deadline, "the question never reached b"
            federation.poll(0.05)
        path = str(tmp_path / "b.ckpt")
        federation.checkpoint_peer("b", path, halt=True)
        federation.kill_peer("b")
        federation.restart_peer("b", path)
        federation.drain(
            answer_strategy=conservative_answer, timeout=DRAIN_TIMEOUT
        )
        assert ticket.status is TicketStatus.COMMITTED
        assert federation.inbox("b") == []
        assert federation.metrics()["b"]["open_questions"] == 0


def test_failed_checkpoint_releases_its_holds(tmp_path):
    """A checkpoint that times out must not leave the links toward its
    victim held: the federation drains once the victim is back."""
    schema, mappings, initial = chain_pieces()
    with running(ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
        workdir=str(tmp_path),
    )) as federation:
        victim = federation._handles["b"].process.pid
        os.kill(victim, signal.SIGSTOP)
        try:
            with pytest.raises(ProcessFederationError):
                federation.checkpoint_peer(
                    "b", str(tmp_path / "b.ckpt"), timeout=1.0
                )
        finally:
            os.kill(victim, signal.SIGCONT)
        ticket = federation.submit("a", InsertOperation(make_tuple("A1", "v1")))
        federation.drain(timeout=5)
        assert ticket.status is TicketStatus.COMMITTED
        assert federation.global_snapshot().count("B2") == 1


def test_a_bare_peer_checkpoint_is_refused_at_restart(tmp_path):
    """Only ``checkpoint_peer``'s file carries the link watermarks: a reborn
    process without them would count frames received from 0, and no drain
    could settle.  The forked peer refuses the file before it listens."""
    schema, mappings, initial = chain_pieces()
    with running(ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
        workdir=str(tmp_path),
    )) as federation:
        path = str(tmp_path / "bare.ckpt")
        Peer.build(
            "b", schema, initial, federation.rules, tracer=NOOP_TRACER
        ).checkpoint(path)
        federation.kill_peer("b")
        with pytest.raises(ProcessFederationError) as failure:
            federation.restart_peer("b", path)
        log_path = os.path.join(federation.workdir, "peer-b.log")
        assert log_path in str(failure.value)
        with open(log_path) as handle:
            assert "checkpoint_peer" in handle.read()


# ----------------------------------------------------------------------
# Teardown discipline
# ----------------------------------------------------------------------
def test_failed_construction_leaks_no_workdir_or_handle(tmp_path, monkeypatch):
    schema, mappings, initial = chain_pieces()
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(ProcessFederationError, match="unknown transport"):
            ProcessFederation(
                schema,
                initial,
                mappings,
                ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
                transport="bogus",
            )
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert list(tmp_path.iterdir()) == []


def test_close_reaps_processes_mid_federation(tmp_path):
    """Closing with traffic still in flight leaves no zombies or sockets."""
    schema, mappings, initial = chain_pieces()
    federation = ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
        workdir=str(tmp_path),
    )
    for index in range(10):
        federation.submit("a", InsertOperation(make_tuple("A1", "v{}".format(index))))
    # No drain: close mid-flight, exactly like a failing test's teardown.
    federation.close()
    federation.assert_reaped()
    # Idempotent: a second close (pytest teardown after an explicit close)
    # must not raise.
    federation.close()
