"""Known defect, pinned not fixed: a unify rewrites one of two equal-valued identities.

Bench finding 11 (``bench/README.md``): on ``repo_durable`` stream ``13.3`` a
sequential unify leaves a violated mapping in the committed repository.

Root cause (confirmed).  The multiversion store keeps tuple *identities*; two
identities may come to hold the same visible content — an earlier unify
rewrote ``R(.., #a)`` into an already-present ``R(.., #b)``.  Views hide the
duplicate (they enumerate distinct values), so
:func:`~repro.core.frontier.writes_for_operation` sees one affected row per
*value* and emits one ``modify`` for it; the store applies that write to the
first identity whose content matches and leaves its twin untouched.  The twin
keeps the replaced null while every other occurrence moved on, and the
mapping that joined through it is violated from then on.

Both tests are ``xfail(strict=True)``: the fix is a store/chase semantics
change (dedupe identities on unify, or emit one write per identity) that can
move ``repo_batch``'s pinned warm-up counts, which only a benchmark PR may
re-record.  Whoever fixes it flips these to plain tests.
"""

from __future__ import annotations

import random

import pytest

from repro.core.frontier import FrontierTuple, UnifyOperation, writes_for_operation
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple
from repro.core.update import InsertOperation
from repro.core.violations import find_all_violations
from repro.core.writes import modify
from repro.service import RepositoryService
from repro.storage.memory import FrozenDatabase
from repro.storage.versioned import VersionedDatabase
from repro.workload import ExperimentConfig, build_environment, conservative_answer
from repro.workload.mapping_gen import mapping_prefix
from repro.workload.workloads import mixed_workload

# bench/workloads.py::RepoDurable, re-stated (bench/ is not importable here).
_INITIAL_TUPLES = 600
_MAPPINGS = 10
_CHUNK = 200
_WARMUP_OPS = 80


def _durable_stream(experiment, config, seed):
    """``RepoDurable.streams``: Section 6 mixed chunks with cross-chunk fresh values."""
    rng = random.Random("durable-{}".format(seed))
    chunk = 0
    while True:
        chunk += 1
        for operation in mixed_workload(
            experiment.schema, experiment.initial, _CHUNK,
            experiment.constant_pool, rng=rng,
            delete_fraction=config.delete_fraction,
        ):
            if isinstance(operation, InsertOperation):
                operation = InsertOperation(Tuple(
                    operation.row.relation,
                    [
                        "d{}k{}{}".format(seed, chunk, value.value)
                        if value.value.startswith("fresh_")
                        else value
                        for value in operation.row.values
                    ],
                ))
            yield operation


@pytest.mark.xfail(strict=True, reason="unify rewrites one of two equal-valued identities")
def test_repo_durable_stream_13_3_leaves_no_violation():
    """The bench replay, sequential: one session, no ``durable_dir``.

    80 operations of the ``warmup`` stream, then stream ``13.3``.  After its
    605th operation (``insert R17(hooqqrfy, ...)``) ``find_all_violations``
    reports ``sigma3`` on ``R19(#g527, #g128, wzjdgcbk, fleosfnr)``: just
    before it the store holds two pairs of identities with equal visible
    content, one of them that very ``R19`` row, and the operation's unify of
    ``#g128`` rewrites only one of the pair.  Independent of the hash seed.
    """
    config = ExperimentConfig().scaled(num_initial_tuples=_INITIAL_TUPLES)
    experiment = build_environment(config)
    mappings = list(mapping_prefix(experiment.mappings, _MAPPINGS))
    # The finding is on the Python evaluator, whatever REPRO_SQL_CHASE says.
    service = RepositoryService(experiment.initial, mappings, sql_chase=False)
    session = service.open_session("replay").session_id

    def run(stream, count):
        for _ in range(count):
            ticket = service.submit(session, next(stream))
            while not ticket.is_done:
                service.pump()
                for question in service.inbox():
                    service.answer(
                        session, question.decision_id, conservative_answer(question)
                    )

    run(_durable_stream(experiment, config, "warmup"), _WARMUP_OPS)
    measured = _durable_stream(experiment, config, "13.3")
    run(measured, 604)
    assert find_all_violations(mappings, service.snapshot()) == []
    run(measured, 1)
    assert find_all_violations(mappings, service.snapshot()) == []


@pytest.mark.xfail(strict=True, reason="unify rewrites one of two equal-valued identities")
def test_unify_reaches_every_identity_holding_the_replaced_null():
    """The same defect on a three-row store, no chase involved."""
    schema = DatabaseSchema.from_relations(
        [RelationSchema("R", ["a", "b"]), RelationSchema("S", ["a"])]
    )
    first, second = LabeledNull("n1"), LabeledNull("n2")
    left = Tuple("R", [Constant("a"), first])
    right = Tuple("R", [Constant("a"), second])
    store = VersionedDatabase(schema)
    store.load_initial(FrozenDatabase(schema, {
        "R": frozenset({left, right}),
        "S": frozenset({Tuple("S", [second])}),
    }))
    # An earlier unify n1 := n2 collapses the two R rows to one value, held
    # by two identities.
    store.apply_writes([modify(left, right, first, second)], priority=1)
    view = store.view_for(2)
    assert list(view.tuples("R")) == [right]
    # Now unify n2 := c.  One modify per affected *value* comes back ...
    generated = Tuple("S", [second])
    operation = UnifyOperation(
        FrontierTuple(row=generated, violation=None, candidates=()),
        Tuple("S", [Constant("c")]),
    )
    store.apply_writes(writes_for_operation(operation, view), priority=2)
    # ... and the twin identity still holds n2.
    assert list(store.view_for(3).tuples_containing_null(second)) == []
