"""Service checkpoint/restore: committed state + watermark + pending inbox.

A checkpointed service restarts as a fresh process would: the committed
snapshot becomes its initial database, every queued or in-flight-uncommitted
operation is re-submitted (with its federation origin) in the original order,
the null-factory numbering resumes past everything already minted, and
frontier decision ids resume past everything already issued — so nothing a
restarted peer produces can collide with bytes its predecessor already put on
a wire.
"""

from __future__ import annotations

import pytest

from repro.core.terms import LabeledNull
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.fixtures.genealogy import genealogy_repository
from repro.service.admission import AdmissionConfig
from repro.service.repository import RepositoryService
from repro.service.tickets import RemoteOrigin, TicketStatus
from repro.storage.interface import dump_sorted
from repro.workload.closed_loop import conservative_answer


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


def test_durable_dir_attaches_segments(tmp_path):
    database, mappings = genealogy_repository()
    service = RepositoryService(
        database.snapshot(), mappings, durable_dir=str(tmp_path / "wal")
    )
    session = service.open_session("writer")
    service.submit(session.session_id, InsertOperation(make_tuple("Person", "kim")))
    service.run_until_blocked()
    segments = service.scheduler.store.segments
    assert segments is not None
    assert (tmp_path / "wal").is_dir()
    # The insert's write reached the durable log.
    nulls_named = [
        entry.write.row for entry in segments.replay()
        if entry.write.row.relation == "Person"
    ]
    assert make_tuple("Person", "kim") in nulls_named
