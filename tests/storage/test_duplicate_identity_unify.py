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

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.frontier import FrontierTuple, UnifyOperation, writes_for_operation
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple
from repro.core.writes import modify
from repro.storage.memory import FrozenDatabase
from repro.storage.versioned import VersionedDatabase

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

# bench/workloads.py::RepoDurable, re-stated (bench/ is not importable here):
# 600 initial tuples, the first 10 mappings, chunks of 200 operations, 80
# warm-up operations; ``RepoDurable.streams`` is Section 6 mixed chunks with
# cross-chunk fresh values.
_REPLAY = """
import json
import random

from repro.core.tuples import Tuple
from repro.core.update import InsertOperation
from repro.core.violations import find_all_violations
from repro.service import RepositoryService
from repro.workload import ExperimentConfig, build_environment, conservative_answer
from repro.workload.mapping_gen import mapping_prefix
from repro.workload.workloads import mixed_workload


def durable_stream(experiment, config, seed):
    rng = random.Random("durable-{}".format(seed))
    chunk = 0
    while True:
        chunk += 1
        for operation in mixed_workload(
            experiment.schema, experiment.initial, 200,
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


config = ExperimentConfig().scaled(num_initial_tuples=600)
experiment = build_environment(config)
mappings = list(mapping_prefix(experiment.mappings, 10))
service = RepositoryService(experiment.initial, mappings)
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


def violations():
    return sorted(repr(v) for v in find_all_violations(mappings, service.snapshot()))


run(durable_stream(experiment, config, "warmup"), 80)
measured = durable_stream(experiment, config, "13.3")
run(measured, 604)
before = violations()
run(measured, 1)
print(json.dumps({"before": before, "after": violations()}))
"""


@functools.lru_cache(maxsize=None)
def _replay():
    """Violations before and after stream ``13.3``'s 605th operation.

    A fresh subprocess with ``PYTHONHASHSEED=0``, as ``bench/run.py`` runs
    the stream: in-process, whether the defect shows depended on the hash
    seed and on the state earlier tests had left behind.
    """
    environment = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(_SRC))
    done = subprocess.run(
        [sys.executable, "-c", _REPLAY],
        capture_output=True, text=True, timeout=600, env=environment,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_repo_durable_stream_13_3_is_clean_up_to_its_604th_operation():
    assert _replay()["before"] == []


@pytest.mark.xfail(strict=True, reason="unify rewrites one of two equal-valued identities")
def test_repo_durable_stream_13_3_leaves_no_violation():
    """The bench replay, sequential: one session, no ``durable_dir``.

    80 operations of the ``warmup`` stream, then stream ``13.3``.  After its
    605th operation (``insert R17(hooqqrfy, ...)``) ``find_all_violations``
    reports ``sigma3`` on ``R19(#g527, #g128, wzjdgcbk, fleosfnr)``: just
    before it the store holds two pairs of identities with equal visible
    content, one of them that very ``R19`` row, and the operation's unify of
    ``#g128`` rewrites only one of the pair.  The store resolves a content to
    its lowest tid, so the twin that keeps the stale null is now the higher
    tid.
    """
    assert _replay()["after"] == []


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
