"""Service checkpoint/restore: committed state + watermark + pending inbox.

A checkpointed service restarts as a fresh process would: the committed
snapshot becomes its initial database, every queued or in-flight-uncommitted
operation is re-submitted (with its federation origin) in the original order,
the null-factory numbering resumes past everything already minted, and
frontier decision ids resume past everything already issued — so nothing a
restarted peer produces can collide with bytes its predecessor already put on
a wire.

With a ``durable_dir`` the checkpoint is a manifest over a base snapshot and
the redo log; the differential tests at the bottom hold that incremental form
to the full one: after every checkpoint of a randomized history, ``restore``
equals ``snapshot()`` and re-submits exactly the pending tickets.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.terms import LabeledNull
from repro.core.tuples import make_tuple
from repro.core.update import DeleteOperation, InsertOperation
from repro.fixtures.genealogy import genealogy_repository
from repro.service.admission import AdmissionConfig
from repro.service.repository import RepositoryService
from repro.service.tickets import RemoteOrigin, TicketStatus
from repro.storage.interface import dump_sorted
from repro.workload import ExperimentConfig, build_environment
from repro.workload.closed_loop import conservative_answer
from repro.workload.mapping_gen import mapping_prefix
from repro.workload.workloads import mixed_workload


def _service(**kwargs):
    database, mappings = genealogy_repository()
    return RepositoryService(database.snapshot(), mappings, **kwargs), mappings


def test_checkpoint_carries_committed_state_and_watermark(tmp_path):
    service, mappings = _service()
    session = service.open_session("writer")
    ticket = service.submit(session.session_id, InsertOperation(make_tuple("Person", "zoe")))
    service.run_until_blocked()
    # Answer until the insert commits (the cyclic mapping parks it).
    for _ in range(10):
        if ticket.status is TicketStatus.COMMITTED:
            break
        for question in service.inbox():
            service.answer(session.session_id, question.decision_id,
                           conservative_answer(question))
        service.run_until_blocked()
    assert ticket.status is TicketStatus.COMMITTED
    path = str(tmp_path / "svc.ckpt")
    body = service.checkpoint(path)
    assert body["watermark"] == service.scheduler.commit_watermark()
    assert body["pending"] == []
    restored = RepositoryService.restore(path, mappings)
    assert dump_sorted(restored.service.snapshot()) == dump_sorted(service.snapshot())


def test_pending_operations_resubmit_in_order_with_origins(tmp_path):
    service, mappings = _service(admission=AdmissionConfig(max_in_flight=1, batch_size=1))
    session = service.open_session("writer")
    origin = RemoteOrigin("p9", 42)
    tickets = [
        service.submit(session.session_id, InsertOperation(make_tuple("Person", name)),
                       origin=origin if name == "b" else None)
        for name in ("a", "b", "c")
    ]
    service.pump()  # admit "a" only (max_in_flight=1); it parks on its question
    assert tickets[0].status in (TicketStatus.RUNNING, TicketStatus.WAITING_FRONTIER)
    path = str(tmp_path / "svc.ckpt")
    body = service.checkpoint(path)
    # Every non-terminal ticket is pending: the running one re-executes too.
    assert [entry["ticket"] for entry in body["pending"]] == [1, 2, 3]
    restored = RepositoryService.restore(path, mappings)
    assert sorted(restored.resubmitted) == [1, 2, 3]
    replacement = restored.resubmitted[2]
    assert replacement.origin == origin
    assert [restored.resubmitted[i].operation for i in (1, 2, 3)] == [
        t.operation for t in tickets
    ]


def test_restored_null_factory_and_decision_ids_do_not_collide(tmp_path):
    service, mappings = _service()
    session = service.open_session("writer")
    service.submit(session.session_id, InsertOperation(make_tuple("Person", "ann")))
    service.run_until_blocked()
    assert service.inbox()  # a question was asked -> a decision id was issued
    minted = service.null_factory.fresh()
    issued = service.inbox()[0].decision_id
    path = str(tmp_path / "svc.ckpt")
    service.checkpoint(path)
    restored = RepositoryService.restore(path, mappings).service
    # Null numbering resumes past the predecessor's last minted null.
    fresh = restored.null_factory.fresh()
    assert fresh != minted
    assert int(fresh.name[len(restored.null_factory.prefix):]) > int(
        minted.name[len(service.null_factory.prefix):]
    )
    restored.run_until_blocked()
    assert restored.inbox()
    assert all(q.decision_id > issued for q in restored.inbox())


def test_restore_rejects_unknown_version(tmp_path):
    from repro.codec import CodecError
    from repro.codec.wire import dumps

    path = tmp_path / "bad.ckpt"
    path.write_bytes(dumps({"v": 99, "t": "service-checkpoint"}) + b"\n")
    _, mappings = _service()
    with pytest.raises(CodecError, match="unsupported checkpoint version"):
        RepositoryService.restore(str(path), mappings)


def test_restore_rejects_a_version_1_checkpoint(tmp_path):
    """A checkpoint in the previous dialect fails the gate, clearly."""
    import json

    from repro.codec import CodecError

    path = tmp_path / "v1.ckpt"
    path.write_text(json.dumps({
        "v": 1, "t": "service-checkpoint", "watermark": 0,
        "schema": [["Person", ["name"]]],
        "relations": {"Person": [
            {"r": "Person", "vs": [{"t": "const", "v": "John"}]},
        ]},
        "null_factory": ["x", 1], "next_decision_id": 1, "pending": [], "extra": {},
    }))
    _, mappings = _service()
    with pytest.raises(CodecError, match="version 1 .this build speaks 2"):
        RepositoryService.restore(str(path), mappings)


def test_durable_dir_keeps_the_log_and_checkpoints_a_manifest(tmp_path):
    database, mappings = genealogy_repository()
    service = RepositoryService(
        database.snapshot(), mappings, durable_dir=str(tmp_path / "wal")
    )
    session = service.open_session("writer")
    ticket = service.submit(session.session_id, InsertOperation(make_tuple("Person", "kim")))
    _answer_until_done(service, session.session_id, [ticket])
    segments = service.scheduler.store.segments
    assert segments is not None
    # The insert's write is still in the durable log after its commit.
    assert segments.watermark == service.scheduler.commit_watermark() >= 1
    assert make_tuple("Person", "kim") in [
        entry.write.row for entry in segments.replay(upto=segments.watermark)
    ]
    path = str(tmp_path / "svc.ckpt")
    first = service.checkpoint(path)
    # The first checkpoint writes a base (in the log's directory) and drops
    # the segments it covers; the manifest itself holds no rows.
    assert first["log"] == "wal" and first["base"].startswith("wal" + os.sep)
    assert "relations" not in first
    assert segments.replay(upto=segments.watermark) == []
    # A little more traffic: the log has not outgrown the base, so the next
    # checkpoint is the manifest alone and restore replays the log.
    ticket = service.submit(session.session_id, DeleteOperation(make_tuple("Person", "kim")))
    _answer_until_done(service, session.session_id, [ticket])
    second = service.checkpoint(path)
    assert second["base"] == first["base"] and second["watermark"] > first["watermark"]
    at_checkpoint = dump_sorted(service.snapshot())
    restored = RepositoryService.restore(path, mappings)
    assert dump_sorted(restored.service.snapshot()) == at_checkpoint
    # Replay is bounded by the manifest's watermark: the log growing past it
    # (a commit and an in-flight update) does not change what it restores.
    tickets = [
        service.submit(session.session_id, InsertOperation(make_tuple("Person", name)))
        for name in ("lee", "max")
    ]
    _answer_until_done(service, session.session_id, tickets[:1])
    service.close()
    assert dump_sorted(service.snapshot()) != at_checkpoint
    again = RepositoryService.restore(path, mappings)
    assert dump_sorted(again.service.snapshot()) == at_checkpoint
    # The state directory can move: the manifest's references are relative.
    os.rename(str(tmp_path), str(tmp_path) + "-moved")
    moved = RepositoryService.restore(str(tmp_path) + "-moved/svc.ckpt", mappings)
    assert dump_sorted(moved.service.snapshot()) == at_checkpoint


def test_restore_reads_each_segment_once(tmp_path, monkeypatch):
    from repro.storage import durable

    database, mappings = genealogy_repository()
    service = RepositoryService(
        database.snapshot(), mappings, durable_dir=str(tmp_path / "wal")
    )
    session = service.open_session("writer")
    path = str(tmp_path / "svc.ckpt")
    first = service.checkpoint(path)
    ticket = service.submit(session.session_id, InsertOperation(make_tuple("Person", "kim")))
    _answer_until_done(service, session.session_id, [ticket])
    second = service.checkpoint(path)
    # The same base and a higher watermark: restore replays the log.
    assert second["base"] == first["base"] and second["watermark"] > first["watermark"]
    service.close()
    read = durable._read_segment
    reads = []

    def counted(segment, newest):
        reads.append(segment)
        return read(segment, newest)

    monkeypatch.setattr(durable, "_read_segment", counted)
    restored = RepositoryService.restore(path, mappings)
    assert dump_sorted(restored.service.snapshot()) == dump_sorted(service.snapshot())
    segments = [
        name for name in os.listdir(str(tmp_path / "wal")) if name.endswith(".log")
    ]
    assert segments and sorted(os.path.basename(p) for p in reads) == sorted(segments)


def test_a_second_service_cannot_append_to_the_same_log(tmp_path):
    from repro.service.repository import ServiceError

    database, mappings = genealogy_repository()
    service = RepositoryService(
        database.snapshot(), mappings, durable_dir=str(tmp_path / "wal")
    )
    session = service.open_session("writer")
    ticket = service.submit(session.session_id, InsertOperation(make_tuple("Person", "kim")))
    _answer_until_done(service, session.session_id, [ticket])
    service.close()
    with pytest.raises(ServiceError, match="already holds a redo log"):
        RepositoryService(database.snapshot(), mappings, durable_dir=str(tmp_path / "wal"))


def test_a_log_backs_its_latest_checkpoint_only(tmp_path):
    """A base rewrite retires older manifests; restoring one fails loudly."""
    database, mappings = genealogy_repository()
    service = RepositoryService(
        database.snapshot(), mappings, durable_dir=str(tmp_path / "wal")
    )
    session = service.open_session("writer")
    old, new = str(tmp_path / "old.ckpt"), str(tmp_path / "new.ckpt")
    first = service.checkpoint(old)
    tickets = [
        service.submit(session.session_id, InsertOperation(make_tuple("Person", name)))
        for name in ("ann", "bob", "cyd")
    ]
    _answer_until_done(service, session.session_id, tickets)
    assert service.checkpoint(new)["base"] != first["base"]
    service.close()
    with pytest.raises(FileNotFoundError):
        RepositoryService.restore(old, mappings)
    restored = RepositoryService.restore(new, mappings)
    assert dump_sorted(restored.service.snapshot()) == dump_sorted(service.snapshot())


def test_checkpoint_without_a_log_writes_a_base_beside_each_manifest(tmp_path):
    service, mappings = _service()
    session = service.open_session("writer")
    first, second = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    service.checkpoint(first)
    before = dump_sorted(service.snapshot())
    ticket = service.submit(session.session_id, InsertOperation(make_tuple("Person", "zoe")))
    _answer_until_done(service, session.session_id, [ticket])
    service.checkpoint(second)
    service.checkpoint(second)  # unchanged watermark: the base is reused
    # Two paths, two self-contained checkpoints; superseded bases are removed.
    assert sorted(os.listdir(str(tmp_path))) == [
        "a.ckpt", "a.ckpt.base-0", "b.ckpt",
        "b.ckpt.base-{}".format(service.scheduler.commit_watermark()),
    ]
    assert dump_sorted(RepositoryService.restore(first, mappings).service.snapshot()) == before
    assert dump_sorted(
        RepositoryService.restore(second, mappings).service.snapshot()
    ) == dump_sorted(service.snapshot())
    service.checkpoint(first)
    assert "a.ckpt.base-0" not in os.listdir(str(tmp_path))


@pytest.mark.parametrize("durable", [False, True])
@pytest.mark.parametrize("nth", [1, 2])
def test_a_checkpoint_that_dies_half_way_keeps_the_old_one_restorable(
    tmp_path, dying_write, durable, nth
):
    """*nth* = 1 kills the base write, 2 the manifest write that follows it."""
    database, mappings = genealogy_repository()
    service = RepositoryService(
        database.snapshot(), mappings,
        durable_dir=str(tmp_path / "wal") if durable else None,
    )
    session = service.open_session("writer")
    path = str(tmp_path / "svc.ckpt")
    tickets = [
        service.submit(session.session_id, InsertOperation(make_tuple("Person", name)))
        for name in ("ann", "bob")
    ]
    _answer_until_done(service, session.session_id, tickets)
    service.checkpoint(path)
    good = dump_sorted(service.snapshot())
    # Enough traffic that the next checkpoint has to write a new base.
    tickets = [
        service.submit(session.session_id, InsertOperation(make_tuple("Person", name)))
        for name in ("cyd", "dee", "eli", "fay")
    ]
    _answer_until_done(service, session.session_id, tickets)
    dying_write(nth)
    with pytest.raises(OSError, match="disk full"):
        service.checkpoint(path)
    assert not [name for name in os.listdir(str(tmp_path)) if name.endswith(".tmp")]
    assert dump_sorted(RepositoryService.restore(path, mappings).service.snapshot()) == good
    # ... and the service is not wedged: the next checkpoint succeeds.
    dying_write(0)
    service.checkpoint(path)
    assert dump_sorted(
        RepositoryService.restore(path, mappings).service.snapshot()
    ) == dump_sorted(service.snapshot())
    service.close()


def test_checkpoint_does_not_walk_ticket_history(tmp_path, monkeypatch):
    service, _ = _service()
    session = service.open_session("writer")
    tickets = [
        service.submit(session.session_id, InsertOperation(make_tuple("Person", name)))
        for name in ("a", "b")
    ]
    _answer_until_done(service, session.session_id, tickets)
    monkeypatch.setattr(
        service, "tickets", lambda: pytest.fail("checkpoint() sorted every ticket")
    )
    assert service.checkpoint(str(tmp_path / "svc.ckpt"))["pending"] == []


# ----------------------------------------------------------------------
# Incremental ≡ full, differentially
# ----------------------------------------------------------------------
def _answer_until_done(service, session_id, tickets):
    for _ in range(50):
        service.run_until_blocked()
        if all(ticket.is_done for ticket in tickets):
            return
        for question in service.inbox():
            service.answer(session_id, question.decision_id, conservative_answer(question))
    raise AssertionError("tickets did not finish")


def _drive_with_checkpoints(service, mappings, operations, rng, path, clients):
    """Closed loop over *operations*; checkpoint + restore + compare every tick.

    Answers prefer the *newest* open question, so low-priority updates resume
    (and write) after higher ones have read: the abort-heavy order.  Returns
    the manifests written.
    """
    session = service.open_session("writer").session_id
    operations = iter(operations)
    outstanding, manifests, exhausted = [], [], False
    while True:
        outstanding = [ticket for ticket in outstanding if not ticket.is_done]
        while len(outstanding) < clients and not exhausted:
            operation = next(operations, None)
            if operation is None:
                exhausted = True
            else:
                outstanding.append(service.submit(session, operation))
        if exhausted and not outstanding:
            return manifests
        service.pump(max_steps=rng.randint(1, 3))
        questions = service.inbox()
        if questions and rng.random() < 0.6:
            question = questions[-1] if rng.random() < 0.7 else questions[0]
            service.answer(session, question.decision_id, conservative_answer(question))
        manifests.append(service.checkpoint(path))
        restored = RepositoryService.restore(path, mappings)
        assert dump_sorted(restored.service.snapshot()) == dump_sorted(service.snapshot())
        assert sorted(restored.resubmitted) == sorted(
            ticket.ticket_id for ticket in outstanding if not ticket.is_done
        )
        assert [restored.resubmitted[key].operation for key in sorted(restored.resubmitted)] == [
            ticket.operation
            for ticket in sorted(outstanding, key=lambda ticket: ticket.ticket_id)
            if not ticket.is_done
        ]


@pytest.mark.parametrize("seed,durable", [(0, True), (1, True), (2, True), (3, False)])
def test_incremental_equals_full_under_aborts(tmp_path, seed, durable):
    """Genealogy: every insert parks, unifying answers, deletes, many aborts.

    A checkpoint after every pump means an aborted update's writes routinely
    sit in the log below a manifest whose tombstone only lands after it.
    """
    rng = random.Random(seed)
    database, mappings = genealogy_repository()
    # Enough settled ancestors that the base outweighs a few updates' log, so
    # replays regularly span aborted priorities.
    for index in range(60):
        name = "elder{}".format(index)
        database.insert(make_tuple("Person", name))
        database.insert(make_tuple("Father", name, name))
    service = RepositoryService(
        database.snapshot(), mappings,
        admission=AdmissionConfig(max_in_flight=4, batch_size=4),
        durable_dir=str(tmp_path / "wal") if durable else None,
    )
    operations, live = [], []
    for index in range(60):
        if live and rng.random() < 0.25:
            victim = live.pop(rng.randrange(len(live)))
            operations.append(DeleteOperation(make_tuple("Person", victim)))
        name = "p{}".format(index)
        operations.append(InsertOperation(make_tuple("Person", name)))
        live.append(name)
    manifests = _drive_with_checkpoints(
        service, mappings, operations, rng, str(tmp_path / "svc.ckpt"), clients=4
    )
    assert service.metrics.restarts > 0
    if durable:
        # Both kinds of checkpoint happened: base rewrites (several) and
        # manifests that lean on the log.
        assert len({manifest["base"] for manifest in manifests}) >= 3
        assert any(
            manifest["watermark"] > int(manifest["base"].rsplit("-", 1)[1])
            for manifest in manifests
        )
    service.close()


@pytest.mark.parametrize("seed", range(2))
def test_incremental_equals_full_on_a_generated_repository(tmp_path, seed):
    """Section 6 mixed stream over 15 mappings: cascades, deletes, unifies.

    Sized so the log outgrows the base several times: the log holds
    committed writes only, so it needs a small start and a long stream to
    overtake a base that grows with the store.
    """
    rng = random.Random(seed)
    environment = build_environment(ExperimentConfig().scaled(num_initial_tuples=10))
    mappings = list(mapping_prefix(environment.mappings, 15))
    service = RepositoryService(
        environment.initial, mappings,
        admission=AdmissionConfig(max_in_flight=8, batch_size=8),
        durable_dir=str(tmp_path / "wal"),
    )
    operations = mixed_workload(
        environment.schema, environment.initial, 200, environment.constant_pool,
        rng=rng, delete_fraction=0.3,
    )
    manifests = _drive_with_checkpoints(
        service, mappings, operations, rng, str(tmp_path / "svc.ckpt"), clients=8
    )
    bases = {manifest["base"] for manifest in manifests}
    assert 3 <= len(bases) < len(manifests) / 2  # mostly manifest-only
    service.close()
