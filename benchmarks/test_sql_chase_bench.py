"""SQL chase benchmark: set-based violation sweeps vs the Python evaluator.

ROADMAP item 3.  The chase's hot read is the violation query — on a
nearly-consistent database it enumerates a large LHS join to report few (or
no) violations.  The Python path walks that join tuple-at-a-time through
backtracking index lookups; the SQL path (:mod:`repro.query.sql_chase`) runs
the whole join + anti-join inside SQLite over the
:class:`~repro.storage.mirror.DeltaMirror` shadow and materializes only the
answers.

This benchmark times a full violation sweep (every mapping, whole store) both
ways on a mappings-satisfying store with a sprinkling of injected violations,
asserts the two paths return **identical** answer sets (``semantics_match``),
and — under ``REPRO_BENCH_STRICT=1`` — that the SQL path is at least
``MIN_SWEEP_SPEEDUP`` times faster.  A second measurement pins the reworked
SQLite backend's bulk load (one transaction + ``executemany``) against a
faithful replica of the historical insert-per-row-with-commit loop on a
file-backed database.  Results land under the ``sql_chase`` key of
``BENCH_scaling.json`` (tracked by ``compare_bench.py``).
"""

from __future__ import annotations

import os
import random
import sqlite3
import time

from repro.codec.rows import decode_row, encode_row
from repro.query.sql import create_table_statement, quote_identifier
from repro.query.sql_chase import SqlViolationEvaluator
from repro.query.violation_query import ViolationQuery
from repro.storage.memory import MemoryDatabase
from repro.storage.mirror import DeltaMirror
from repro.storage.sqlite_backend import SQLiteDatabase
from repro.workload.experiment import ExperimentConfig, build_environment
from repro.workload.mapping_gen import mapping_prefix

from conftest import record_entries

#: Mapping density of the measured sweep (the densest Figure 3 cell).
MAPPING_COUNT = 25

#: Store size (initial tuples requested from the generator) per bench scale.
TUPLE_COUNTS = {"tiny": 500, "small": 1500, "paper": 4000}

#: Timed sweep repetitions per path.
SWEEPS = 3

#: Rows deleted from the satisfying store so the sweep reports something.
INJECTED_VIOLATION_DELETES = 10

#: Required speedups under ``REPRO_BENCH_STRICT=1``.  The acceptance bar is
#: 2x for the sweep at the default scale; the tiny CI smoke run keeps soft
#: bars because sub-10ms timings are noisy.
MIN_SWEEP_SPEEDUP = {"tiny": 1.2, "small": 2.0, "paper": 2.0}
MIN_LOAD_SPEEDUP = {"tiny": 1.0, "small": 1.5, "paper": 1.5}



def _build_store(scale):
    config = ExperimentConfig.small_scale().scaled(
        num_initial_tuples=TUPLE_COUNTS.get(scale, TUPLE_COUNTS["small"])
    )
    environment = build_environment(config)
    mappings = mapping_prefix(environment.mappings, MAPPING_COUNT)
    database = MemoryDatabase(environment.schema)
    for relation in environment.schema.relation_names():
        for row in environment.initial.tuples(relation):
            database.insert(row)
    rng = random.Random(7)
    all_rows = [
        row
        for relation in environment.schema.relation_names()
        for row in database.tuples(relation)
    ]
    for row in rng.sample(all_rows, min(INJECTED_VIOLATION_DELETES, len(all_rows))):
        database.delete(row)
    return environment, mappings, database


def _sweep_seconds(evaluate, queries, database):
    started = time.perf_counter()
    answers = None
    for _ in range(SWEEPS):
        answers = [evaluate(query, database) for query in queries]
    return time.perf_counter() - started, answers


def _legacy_per_row_load(schema, view, path):
    """Faithful replica of the pre-rework bulk load: per-row existence check,
    per-row INSERT, per-row ``commit()`` on a deferred-transaction connection.
    """
    connection = sqlite3.connect(path)
    connection.execute("PRAGMA synchronous = OFF")
    for relation in schema.relation_names():
        connection.execute(create_table_statement(schema, relation))
    connection.commit()
    started = time.perf_counter()
    for relation in schema.relation_names():
        attributes = schema.relation(relation).attributes
        predicate = " AND ".join(
            "{} = ?".format(quote_identifier(attribute)) for attribute in attributes
        )
        placeholders = ", ".join("?" for _ in attributes)
        probe = "SELECT 1 FROM {} WHERE {} LIMIT 1".format(
            quote_identifier(relation), predicate
        )
        statement = "INSERT INTO {} VALUES ({})".format(
            quote_identifier(relation), placeholders
        )
        for row in view.tuples(relation):
            encoded = encode_row(row)
            if connection.execute(probe, encoded).fetchone() is None:
                connection.execute(statement, encoded)
                connection.commit()
    elapsed = time.perf_counter() - started
    return connection, elapsed


def _bench_bulk_load(schema, view, tmp_path):
    legacy_connection, per_row_seconds = _legacy_per_row_load(
        schema, view, str(tmp_path / "legacy.db")
    )
    batched = SQLiteDatabase(schema, path=str(tmp_path / "batched.db"))
    started = time.perf_counter()
    batched.load_from(view)
    batched_seconds = time.perf_counter() - started
    rows = 0
    contents_match = True
    for relation in schema.relation_names():
        batched_rows = frozenset(batched.tuples(relation))
        legacy_rows = frozenset(
            decode_row(relation, fields)
            for fields in legacy_connection.execute(
                "SELECT * FROM {}".format(quote_identifier(relation))
            )
        )
        rows += len(batched_rows)
        if legacy_rows != batched_rows:
            contents_match = False
    legacy_connection.close()
    batched.close()
    return {
        "rows": rows,
        "per_row_seconds": per_row_seconds,
        "batched_seconds": batched_seconds,
        "speedup": per_row_seconds / max(batched_seconds, 1e-9),
        "contents_match": contents_match,
    }


def test_sql_chase_sweep(tmp_path):
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    environment, mappings, database = _build_store(scale)
    queries = [ViolationQuery(tgd) for tgd in mappings]

    python_seconds, python_answers = _sweep_seconds(
        lambda query, view: query.evaluate(view), queries, database
    )

    mirror_started = time.perf_counter()
    mirror = DeltaMirror(environment.schema)
    mirror.reset_from(database)
    mirror_seconds = time.perf_counter() - mirror_started
    evaluator = SqlViolationEvaluator(mirror)
    sql_seconds, sql_answers = _sweep_seconds(evaluator.evaluate, queries, database)

    semantics_match = all(
        python_answer == sql_answer
        for python_answer, sql_answer in zip(python_answers, sql_answers)
    )
    assert semantics_match  # identical ViolationRow sets, bindings + witnesses
    assert evaluator.python_fallbacks == 0
    speedup = python_seconds / max(sql_seconds, 1e-9)

    bulk_load = _bench_bulk_load(environment.schema, database, tmp_path)
    assert bulk_load["contents_match"]

    store_rows = sum(
        1
        for relation in environment.schema.relation_names()
        for _ in database.tuples(relation)
    )
    report = {
        "scale": scale,
        "mapping_count": MAPPING_COUNT,
        "store_rows": store_rows,
        "sweeps": SWEEPS,
        "violations_found": sum(len(answer) for answer in python_answers),
        "python_seconds": python_seconds,
        "sql_seconds": sql_seconds,
        "speedup": speedup,
        "mirror_build_seconds": mirror_seconds,
        "statements_rendered": evaluator.statements_rendered,
        "statement_cache_hits": evaluator.statement_cache_hits,
        "semantics_match": semantics_match,
        "bulk_load": bulk_load,
    }
    mirror.close()

    record_entries({"sql_chase": report})

    print(
        "\nSQL chase sweep over {} rows, {} mappings: python {:.3f}s vs "
        "sql {:.3f}s ({:.1f}x, mirror build {:.3f}s); bulk load {} rows: "
        "per-row {:.3f}s vs batched {:.3f}s ({:.1f}x)".format(
            store_rows,
            MAPPING_COUNT,
            python_seconds,
            sql_seconds,
            speedup,
            mirror_seconds,
            bulk_load["rows"],
            bulk_load["per_row_seconds"],
            bulk_load["batched_seconds"],
            bulk_load["speedup"],
        )
    )

    if strict:
        assert speedup >= MIN_SWEEP_SPEEDUP.get(scale, 2.0), (
            "set-based SQL sweep must be at least {}x faster than the Python "
            "evaluator (measured {:.1f}x)".format(
                MIN_SWEEP_SPEEDUP.get(scale, 2.0), speedup
            )
        )
        assert bulk_load["speedup"] >= MIN_LOAD_SPEEDUP.get(scale, 1.5), (
            "batched load_from must be at least {}x faster than the per-row "
            "commit loop (measured {:.1f}x)".format(
                MIN_LOAD_SPEEDUP.get(scale, 1.5), bulk_load["speedup"]
            )
        )
