"""SQLite-backed storage and query evaluation.

The paper presents a chase step's reads as SQL queries against an RDBMS
(Example 4.1).  This backend stores a repository in an SQLite database —
one table per relation, one TEXT column per attribute, terms encoded through
the canonical row codec (:mod:`repro.codec.rows`, shared with the SQL
generator) — and evaluates conjunctive and violation queries by generating
SQL.

It serves two purposes:

* it demonstrates that the update-exchange machinery runs unchanged on top of
  a real SQL engine (the backend implements the same
  :class:`~repro.storage.interface.MutableDatabase` interface as the in-memory
  store, so the chase engine can use it directly), and
* it is used by tests to cross-check the in-memory query evaluator against
  SQLite on the same data.

Transaction discipline: the connection runs in autocommit mode
(``isolation_level=None``) so single-row writes are one statement with no
per-row ``commit()`` round-trip, and every bulk operation — :meth:`load_from`,
:meth:`replace_null` — wraps its statements in one explicit ``BEGIN``/
``COMMIT`` pair with ``executemany`` batching, instead of one transaction per
row.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..codec.rows import decode_row, decode_term, encode_row, encode_term
from ..core.atoms import Atom
from ..core.schema import DatabaseSchema, SchemaError
from ..core.terms import DataTerm, LabeledNull, Variable
from ..core.tgd import Tgd
from ..core.tuples import Tuple
from ..query.sql import (
    conjunctive_query_sql,
    create_table_statement,
    quote_identifier,
    violation_query_sql,
)
from .interface import DatabaseView, MutableDatabase
from .memory import FrozenDatabase


class SQLiteDatabase(MutableDatabase):
    """A repository stored in an SQLite database (in-memory by default)."""

    def __init__(self, schema: DatabaseSchema, path: str = ":memory:"):
        self._schema = schema
        self._connection = sqlite3.connect(path)
        # Autocommit mode: the explicit BEGIN/COMMIT discipline below is the
        # only transaction control, so single statements never pay an extra
        # commit round-trip.
        self._connection.isolation_level = None
        self._connection.execute("PRAGMA synchronous = OFF")
        with self._transaction():
            for relation in schema.relation_names():
                self._connection.execute(create_table_statement(schema, relation))

    @contextmanager
    def _transaction(self):
        """Run several statements as one explicit transaction."""
        self._connection.execute("BEGIN")
        try:
            yield
        except BaseException:
            self._connection.execute("ROLLBACK")
            raise
        self._connection.execute("COMMIT")

    # ------------------------------------------------------------------
    # DatabaseView
    # ------------------------------------------------------------------
    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    def relations(self) -> List[str]:
        return self._schema.relation_names()

    def tuples(self, relation: str) -> Iterator[Tuple]:
        if relation not in self._schema:
            raise SchemaError("unknown relation {!r}".format(relation))
        cursor = self._connection.execute(
            "SELECT DISTINCT * FROM {}".format(quote_identifier(relation))
        )
        for fields in cursor.fetchall():
            yield decode_row(relation, fields)

    def contains(self, row: Tuple) -> bool:
        where, parameters = self._row_predicate(row)
        cursor = self._connection.execute(
            "SELECT 1 FROM {} WHERE {} LIMIT 1".format(
                quote_identifier(row.relation), where
            ),
            parameters,
        )
        return cursor.fetchone() is not None

    def tuples_matching(
        self, relation: str, bound: Sequence[PyTuple[int, DataTerm]]
    ) -> Iterator[Tuple]:
        if not bound:
            yield from self.tuples(relation)
            return
        attributes = self._schema.relation(relation).attributes
        cursor = self._connection.execute(
            "SELECT DISTINCT * FROM {} WHERE {}".format(
                quote_identifier(relation),
                " AND ".join(
                    "{} = ?".format(quote_identifier(attributes[position]))
                    for position, _ in bound
                ),
            ),
            tuple(encode_term(value) for _, value in bound),
        )
        for fields in cursor.fetchall():
            yield decode_row(relation, fields)

    def count(self, relation: str) -> int:
        cursor = self._connection.execute(
            "SELECT COUNT(*) FROM (SELECT DISTINCT * FROM {})".format(
                quote_identifier(relation)
            )
        )
        return int(cursor.fetchone()[0])

    # ------------------------------------------------------------------
    # MutableDatabase
    # ------------------------------------------------------------------
    def insert(self, row: Tuple) -> bool:
        self._schema.validate_tuple(row)
        if self.contains(row):
            return False
        placeholders = ", ".join("?" for _ in row.values)
        self._connection.execute(
            "INSERT INTO {} VALUES ({})".format(
                quote_identifier(row.relation), placeholders
            ),
            encode_row(row),
        )
        return True

    def delete(self, row: Tuple) -> bool:
        if not self.contains(row):
            return False
        where, parameters = self._row_predicate(row)
        self._connection.execute(
            "DELETE FROM {} WHERE {}".format(quote_identifier(row.relation), where),
            parameters,
        )
        return True

    def replace_null(self, null: LabeledNull, value: DataTerm) -> List[Tuple]:
        modified: List[Tuple] = []
        encoded_null = encode_term(null)
        encoded_value = encode_term(value)
        substitution = {null: value}
        with self._transaction():
            for relation in self._schema.relation_names():
                attributes = self._schema.relation(relation).attributes
                # Collect the affected rows *before* the UPDATE — one SELECT
                # per relation filtered on the encoded null — instead of
                # rescanning every relation afterwards to guess which rows
                # now carry the replacement value.
                predicate = " OR ".join(
                    "{} = ?".format(quote_identifier(attribute))
                    for attribute in attributes
                )
                cursor = self._connection.execute(
                    "SELECT DISTINCT * FROM {} WHERE {}".format(
                        quote_identifier(relation), predicate
                    ),
                    [encoded_null] * len(attributes),
                )
                affected = cursor.fetchall()
                if not affected:
                    continue
                for attribute in attributes:
                    self._connection.execute(
                        "UPDATE {} SET {} = ? WHERE {} = ?".format(
                            quote_identifier(relation),
                            quote_identifier(attribute),
                            quote_identifier(attribute),
                        ),
                        (encoded_value, encoded_null),
                    )
                for fields in affected:
                    modified.append(
                        decode_row(relation, fields).substitute(substitution)
                    )
        return modified

    def snapshot(self) -> DatabaseView:
        return FrozenDatabase(
            self._schema,
            {name: frozenset(self.tuples(name)) for name in self._schema.relation_names()},
        )

    # ------------------------------------------------------------------
    # Bulk loading and SQL-level query evaluation
    # ------------------------------------------------------------------
    def load_from(self, view: DatabaseView) -> None:
        """Copy every tuple of *view* into the SQLite database.

        One transaction, one ``executemany`` per relation.  The per-row
        ``WHERE NOT EXISTS`` guard preserves set semantics against whatever
        the table already holds (and against earlier rows of the same batch),
        so the result is identical to the historical insert-per-row loop.
        """
        with self._transaction():
            for relation in view.relations():
                relation_schema = self._schema.relation(relation)
                placeholders = ", ".join("?" for _ in relation_schema.attributes)
                guard = " AND ".join(
                    "{} = ?".format(quote_identifier(attribute))
                    for attribute in relation_schema.attributes
                )
                statement = (
                    "INSERT INTO {table} SELECT {placeholders} "
                    "WHERE NOT EXISTS (SELECT 1 FROM {table} WHERE {guard})"
                ).format(
                    table=quote_identifier(relation),
                    placeholders=placeholders,
                    guard=guard,
                )
                batch = []
                for row in view.tuples(relation):
                    self._schema.validate_tuple(row)
                    encoded = encode_row(row)
                    batch.append(encoded + encoded)
                if batch:
                    self._connection.executemany(statement, batch)

    def evaluate_conjunctive_sql(
        self,
        atoms: Sequence[Atom],
        answer_variables: Sequence[Variable],
        seed: Optional[Dict[Variable, DataTerm]] = None,
    ) -> frozenset:
        """Evaluate a conjunctive query through generated SQL."""
        sql, parameters = conjunctive_query_sql(
            atoms, answer_variables, self._schema, seed=seed
        )
        cursor = self._connection.execute(sql, parameters)
        answers = set()
        for fields in cursor.fetchall():
            answers.add(tuple(decode_term(field) for field in fields))
        return frozenset(answers)

    def evaluate_violation_sql(
        self, tgd: Tgd, seed: Optional[Dict[Variable, DataTerm]] = None
    ) -> frozenset:
        """Evaluate the violation query of *tgd* through generated SQL.

        Returns the set of LHS-variable assignments (as frozensets of
        ``(variable, value)`` pairs) for which the mapping is violated —
        comparable to the bindings of
        :class:`~repro.query.violation_query.ViolationRow`.
        """
        sql, parameters, answer_variables = violation_query_sql(
            tgd, self._schema, seed=seed
        )
        cursor = self._connection.execute(sql, parameters)
        results = set()
        for fields in cursor.fetchall():
            assignment = frozenset(
                (variable, decode_term(field))
                for variable, field in zip(answer_variables, fields)
            )
            results.add(assignment)
        return frozenset(results)

    def close(self) -> None:
        """Close the underlying SQLite connection."""
        self._connection.close()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _row_predicate(self, row: Tuple):
        relation_schema = self._schema.relation(row.relation)
        clauses = []
        parameters = []
        for attribute, value in zip(relation_schema.attributes, row.values):
            clauses.append("{} = ?".format(quote_identifier(attribute)))
            parameters.append(encode_term(value))
        return " AND ".join(clauses), parameters
