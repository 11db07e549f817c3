"""FederatedNetwork behavior on hand-built topologies.

These fixtures pin the exchange mechanics one at a time: forward cascades
(local chase → cross firing → remote local chase), backward retraction
cascades, user-update routing with the owner's terminal report, question
routing with answers, cancellations and partitions.
"""

from __future__ import annotations

import pytest

from repro.core.frontier import UnifyOperation
from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import DeleteOperation, InsertOperation
from repro.federation import (
    FederatedNetwork,
    FederationError,
    Transport,
    check_convergence,
    reference_chase,
)
from repro.service.tickets import TicketStatus


def chain_fixture(delay=1, reorder_seed=None):
    schema = DatabaseSchema.from_dict(
        {"A1": ["x"], "A2": ["x", "y"], "B1": ["x"], "B2": ["x"]}
    )
    mappings = parse_tgds(
        [
            "A1(x) -> exists y . A2(x, y)",  # local at a
            "A2(x, y) -> B1(x)",             # cross a -> b
            "B1(x) -> B2(x)",                # local at b
        ]
    )
    from repro.storage.memory import FrozenDatabase

    initial = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    network = FederatedNetwork(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
        transport=Transport(delay=delay, reorder_seed=reorder_seed),
    )
    return schema, mappings, initial, network


def test_forward_cascade_across_peers():
    schema, mappings, initial, network = chain_fixture()
    network.submit("a", InsertOperation(make_tuple("A1", "v1")))
    network.drain()
    assert network.metrics()["transport_delivered"] >= 1
    snapshot = network.global_snapshot()
    assert snapshot.count("A1") == 1
    assert snapshot.count("A2") == 1
    assert snapshot.count("B1") == 1  # crossed the transport
    assert snapshot.count("B2") == 1  # cascaded through b's local chase
    reference = reference_chase(
        schema, initial, mappings, [InsertOperation(make_tuple("A1", "v1"))]
    )
    assert check_convergence(network, reference).equivalent


def test_backward_retraction_cascades_to_source_peer():
    schema, mappings, initial, network = chain_fixture()
    operations = [
        InsertOperation(make_tuple("A1", "v1")),
        DeleteOperation(make_tuple("B1", "v1")),
    ]
    network.submit("a", operations[0])
    network.drain()
    network.submit("b", operations[1])
    network.drain()
    snapshot = network.global_snapshot()
    # The retraction deleted A2 at a, whose local backward chase deleted A1.
    assert snapshot.count("A1") == 0
    assert snapshot.count("A2") == 0
    assert snapshot.count("B1") == 0
    assert snapshot.count("B2") == 1  # B2 has no reason to go (tgds are implications)
    reference = reference_chase(schema, initial, mappings, operations)
    assert check_convergence(network, reference).equivalent


def test_user_update_routed_to_owner_with_commit_notice():
    _, _, _, network = chain_fixture()
    ticket = network.submit("a", InsertOperation(make_tuple("B1", "w")))
    assert ticket.is_remote and ticket.target == "b"
    assert ticket.status is TicketStatus.QUEUED
    network.drain()
    assert ticket.status is TicketStatus.COMMITTED
    assert network.metrics()["updates_routed"] == 1
    # The update executed at b: b's store holds it, a's does not.
    assert network.peer("b").service.count("B1") == 1
    assert network.peer("a").service.count("B1") == 0


def test_commit_notice_is_delayed_by_partition():
    # The owner reports a routed update's terminal status straight to the
    # client desk; a partition still delays it by holding the update itself.
    _, _, _, network = chain_fixture()
    network.partition("a", "b")
    ticket = network.submit("a", InsertOperation(make_tuple("B1", "w")))
    for _ in range(5):
        network.pump()
    # The RemoteUpdate envelope itself is held: nothing executed anywhere.
    assert ticket.status is TicketStatus.QUEUED
    assert network.peer("b").service.count("B1") == 0
    network.heal("a", "b")
    network.drain()
    assert ticket.status is TicketStatus.COMMITTED


def test_a_drain_that_cannot_settle_says_so_at_once():
    """A held link holds the cascade, so no pump can move anything: the
    drain raises at once, naming the held link, not at its timeout."""
    _, _, _, network = chain_fixture()
    network.partition("a", "b")
    network.submit("a", InsertOperation(make_tuple("A1", "v1")))
    with pytest.raises(RuntimeError, match="nothing moves") as failure:
        network.drain(timeout=60.0)
    assert "'held': ['b']" in str(failure.value)
    assert network.last_drain["settle_reason"] == "stuck"
    network.heal("a", "b")
    network.drain()
    assert network.global_snapshot().count("B2") == 1


def test_a_went_idle_notice_carries_a_copy_of_the_receive_counters():
    """Like a status reply: the drain view stays what the peer reported."""
    _, _, _, network = chain_fixture()
    network.submit("a", InsertOperation(make_tuple("A1", "v1")))
    network.drain()
    runtime = network._runtimes["b"]
    notices = []
    runtime._events = notices.append
    runtime.control({"t": "watch", "on": True})
    assert notices[0]["received"] == runtime.frames_received == {"a": 1}
    assert notices[0]["received"] is not runtime.frames_received


def test_unowned_relations_stay_empty_everywhere():
    _, _, _, network = chain_fixture()
    network.submit("a", InsertOperation(make_tuple("A1", "v1")))
    network.submit("b", InsertOperation(make_tuple("B1", "w1")))
    network.drain()
    for peer in network.peers():
        snapshot = peer.service.snapshot()
        for relation in snapshot.relations():
            if relation not in peer.owned:
                assert snapshot.count(relation) == 0, (
                    "peer {} holds tuples of unowned relation {}".format(
                        peer.name, relation
                    )
                )


def question_fixture():
    schema = DatabaseSchema.from_dict(
        {"Seed": ["x"], "Person": ["name"], "Father": ["child", "father"]}
    )
    mappings = parse_tgds(
        [
            "Seed(x) -> Person(x)",                             # cross a -> b
            "Person(x) -> exists y . Father(x, y), Person(y)",  # cyclic local at b
        ]
    )
    from repro.storage.memory import FrozenDatabase

    initial = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    network = FederatedNetwork(
        schema,
        initial,
        mappings,
        ownership={"a": ["Seed"], "b": ["Person", "Father"]},
        transport=Transport(delay=1),
    )
    return network


def _unify(question):
    return next(
        alternative
        for alternative in question.alternatives()
        if isinstance(alternative, UnifyOperation)
    )


def _pump_until_question(network, peer_name, max_rounds=50):
    for _ in range(max_rounds):
        network.pump()
        questions = network.inbox(peer_name)
        if questions:
            return questions
    raise AssertionError("no question reached {}".format(peer_name))


def test_question_routes_to_originating_peer_and_answer_resumes():
    network = question_fixture()
    network.submit("a", InsertOperation(make_tuple("Seed", "alice")))
    questions = _pump_until_question(network, "a")
    question = questions[0]
    assert question.executing_peer == "b"
    assert network.inbox("b") == []  # the executor does not see it locally
    unify = [
        alternative
        for alternative in question.alternatives()
        if isinstance(alternative, UnifyOperation)
    ][0]
    network.answer("a", question, unify)
    assert network.inbox("a") == []  # removed optimistically
    network.drain()
    snapshot = network.global_snapshot()
    assert snapshot.count("Person") == 1
    assert snapshot.count("Father") == 1
    metrics = network.metrics()
    assert metrics["questions_routed"] == 1
    assert metrics["answers_routed"] == 1
    assert metrics["answers_dropped"] == 0


def test_an_answer_during_a_drain_makes_its_first_candidate_stale(monkeypatch):
    """b's drain view is the idle one the previous drain confirmed.  Since
    then a question parked at b, and the drain's own answer moves b again:
    every view still reads idle and conserved, so the drain confirms a
    candidate that is stale, and only a later round settles.  In process
    the order is deterministic; over sockets this branch is reached by
    timing."""
    network = question_fixture()
    network.drain()
    ticket = network.submit("b", InsertOperation(make_tuple("Person", "bob")))
    _pump_until_question(network, "b")
    moved = []
    status_round = network._status_round

    def confirming(names, deadline):
        views = {name: network._watermarks[name]["activity_seq"] for name in names}
        replies = status_round(names, deadline)
        moved.append(sorted(
            name for name in names if replies[name]["activity_seq"] != views[name]
        ))
        return replies

    monkeypatch.setattr(network, "_status_round", confirming)
    rounds = network.drain(answer_strategy=_unify, timeout=30.0)
    assert rounds >= 2 and rounds == len(moved)
    assert moved[0] == ["b"] and moved[-1] == []
    assert network.last_drain["settle_reason"] == "watermark-idle"
    assert ticket.status is TicketStatus.COMMITTED
    assert network.inbox("b") == [] and network.quiescent()


def test_local_question_stays_local():
    network = question_fixture()
    network.submit("b", InsertOperation(make_tuple("Person", "bob")))
    questions = _pump_until_question(network, "b")
    assert questions[0].executing_peer == "b"
    assert network.metrics()["questions_routed"] == 0
    unify = [
        alternative
        for alternative in questions[0].alternatives()
        if isinstance(alternative, UnifyOperation)
    ][0]
    network.answer("b", questions[0], unify)
    network.drain()
    assert network.global_snapshot().count("Person") == 1


def test_answering_a_closed_question_raises():
    network = question_fixture()
    network.submit("a", InsertOperation(make_tuple("Seed", "alice")))
    question = _pump_until_question(network, "a")[0]
    unify = [
        alternative
        for alternative in question.alternatives()
        if isinstance(alternative, UnifyOperation)
    ][0]
    network.answer("a", question, unify)
    with pytest.raises(FederationError, match="not open"):
        network.answer("a", question, unify)


def test_remote_answer_travels_as_an_index_into_the_parked_request():
    network = question_fixture()
    network.submit("a", InsertOperation(make_tuple("Seed", "alice")))
    question = _pump_until_question(network, "a")[0]
    position, unify = [
        (position, alternative)
        for position, alternative in enumerate(question.alternatives())
        if isinstance(alternative, UnifyOperation)
    ][0]
    assert question.by_index(unify) == position
    assert question.by_index(position) == position
    network.answer("a", question, unify)
    # The request the answer belongs to never rides back: index only.
    envelope = network.transport._queues[("a", "b")][-1]
    assert envelope.payload_kind == "question-answer"
    assert b'"c":{"i":%d,"t":"index"}' % position in envelope.payload
    network.drain()
    assert network.global_snapshot().count("Father") == 1
    assert network.metrics()["answers_dropped"] == 0


def test_answer_that_is_not_a_listed_alternative_travels_inline():
    from repro.core.frontier import DeleteSubsetOperation
    from repro.storage.memory import FrozenDatabase

    schema = DatabaseSchema.from_dict(
        {"Del": ["x"], "L": ["x"], "M": ["x"], "N": ["x"]}
    )
    mappings = parse_tgds(["L(x), M(x) -> N(x)"])
    initial = FrozenDatabase(schema, {
        "Del": frozenset(),
        "L": frozenset({make_tuple("L", "v")}),
        "M": frozenset({make_tuple("M", "v")}),
        "N": frozenset({make_tuple("N", "v")}),
    })
    network = FederatedNetwork(
        schema, initial, mappings, ownership={"a": ["Del"], "b": ["L", "M", "N"]},
    )
    # Submitted at a, executed at b: the negative frontier routes back to a.
    network.submit("a", DeleteOperation(make_tuple("N", "v")))
    question = _pump_until_question(network, "a")[0]
    both = DeleteSubsetOperation(question.request.candidates)
    assert len(both.rows) == 2
    assert question.by_index(both) is both
    network.answer("a", question, both)
    envelope = network.transport._queues[("a", "b")][-1]
    assert b'"t":"op"' in envelope.payload
    network.drain()
    snapshot = network.global_snapshot()
    assert snapshot.count("L") == 0 and snapshot.count("M") == 0
    assert network.metrics()["answers_dropped"] == 0


def test_stale_and_out_of_range_indexed_answers_are_dropped():
    from repro.codec.wire import encode_envelope
    from repro.federation.envelopes import QuestionAnswer

    network = question_fixture()
    network.submit("a", InsertOperation(make_tuple("Seed", "alice")))
    question = _pump_until_question(network, "a")[0]
    # Out of range for the parked request, then a decision b never asked.
    for decision_id, choice in ((question.decision_id, 99), (4242, 0)):
        network.transport.send("a", "b", encode_envelope(QuestionAnswer(
            executing_peer="b", decision_id=decision_id, choice=choice,
            answered_by="a",
        )), "question-answer")
    for _ in range(3):
        network.pump()
    assert network.metrics()["answers_dropped"] == 2
    # The question survived both and still takes its real answer.
    unify = [
        position
        for position, alternative in enumerate(question.alternatives())
        if isinstance(alternative, UnifyOperation)
    ][0]
    network.answer("a", question, unify)
    network.drain()
    assert network.metrics()["answers_dropped"] == 2
    assert network.global_snapshot().count("Father") == 1


def test_two_federations_in_one_process_may_reuse_mapping_names():
    """Mapping names resolve per federation: no process-global registry."""
    from repro.storage.memory import FrozenDatabase

    schema = DatabaseSchema.from_dict({"A1": ["x"], "B1": ["x"], "B2": ["x"]})
    initial = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    ownership = {"a": ["A1"], "b": ["B1", "B2"]}
    # Both call their only mapping "sigma1"; the bodies differ.
    into_b1 = FederatedNetwork(
        schema, initial, parse_tgds(["A1(x) -> B1(x)"]), ownership,
    )
    into_b2 = FederatedNetwork(
        schema, initial, parse_tgds(["A1(x) -> B2(x)"]), ownership,
    )
    for network in (into_b1, into_b2):
        network.submit("a", InsertOperation(make_tuple("A1", "v")))
        network.pump()
        # Both firings sit encoded on their wires, by the same name.
        assert b'"tgd":"sigma1"' in network.transport._queues[("a", "b")][-1].payload
    # Decoded interleaved: a shared table would resolve one of them wrongly.
    for _ in range(3):
        into_b1.pump()
        into_b2.pump()
    assert into_b1.quiescent() and into_b2.quiescent()
    first, second = into_b1.global_snapshot(), into_b2.global_snapshot()
    assert (first.count("B1"), first.count("B2")) == (1, 0)
    assert (second.count("B1"), second.count("B2")) == (0, 1)


def test_bounded_admission_defers_deliveries_instead_of_losing_them():
    from repro.core.schema import DatabaseSchema
    from repro.service import AdmissionConfig
    from repro.storage.memory import FrozenDatabase

    schema = DatabaseSchema.from_dict({"A1": ["x"], "B1": ["x"]})
    mappings = parse_tgds(["A1(x) -> B1(x)"])
    initial = FrozenDatabase(schema, {"A1": frozenset(), "B1": frozenset()})
    network = FederatedNetwork(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1"], "b": ["B1"]},
        transport=Transport(),
        # A queue of depth 1 with one-at-a-time admission: a burst of routed
        # updates must overflow it.
        admission=AdmissionConfig(max_in_flight=1, batch_size=1, max_queue_depth=1),
    )
    tickets = [
        network.submit("a", InsertOperation(make_tuple("B1", "w{}".format(index))))
        for index in range(6)
    ]
    network.drain()
    # Every routed update eventually executed; overflow deferred, not lost.
    assert all(ticket.status is TicketStatus.COMMITTED for ticket in tickets)
    assert network.metrics()["deliveries_deferred"] > 0
    assert network.peer("b").service.count("B1") == 6


def test_deferred_deliveries_wait_in_the_destination_peers_retry_queue():
    from repro.service import AdmissionConfig
    from repro.storage.memory import FrozenDatabase

    schema = DatabaseSchema.from_dict({"A1": ["x"], "B1": ["x"]})
    network = FederatedNetwork(
        schema,
        FrozenDatabase(schema, {"A1": frozenset(), "B1": frozenset()}),
        parse_tgds(["A1(x) -> B1(x)"]),
        ownership={"a": ["A1"], "b": ["B1"]},
        transport=Transport(),
        admission=AdmissionConfig(max_in_flight=1, batch_size=1, max_queue_depth=1),
    )
    tickets = [
        network.submit("a", InsertOperation(make_tuple("B1", "w{}".format(index))))
        for index in range(6)
    ]
    network.pump()
    deferred = network.metrics()["deliveries_deferred"]
    assert deferred > 0
    # Deferred at the destination, not re-sent: the a -> b link is empty and
    # every deferred update waits in b's own retry queue.
    assert network.transport.pending("a", "b") == 0
    assert len(network.peer("b").retry) == deferred
    rounds = 0
    while network.peer("b").retry:
        assert not network.quiescent()
        network.pump()
        rounds += 1
        assert rounds < 200
    assert network.metrics()["deliveries_deferred"] == deferred  # counted once
    network.drain()
    assert all(ticket.status is TicketStatus.COMMITTED for ticket in tickets)
    assert network.peer("b").service.count("B1") == 6


def test_invalid_topologies_rejected():
    schema = DatabaseSchema.from_dict({"A1": ["x"], "B1": ["x"]})
    from repro.storage.memory import FrozenDatabase

    initial = FrozenDatabase(schema, {"A1": frozenset(), "B1": frozenset()})
    with pytest.raises(FederationError, match="no peer owns"):
        FederatedNetwork(schema, initial, [], {"a": ["A1"]})
    with pytest.raises(FederationError, match="claimed by both"):
        FederatedNetwork(schema, initial, [], {"a": ["A1", "B1"], "b": ["B1"]})
    with pytest.raises(FederationError, match="unknown relation"):
        FederatedNetwork(schema, initial, [], {"a": ["A1", "C1"], "b": ["B1"]})
