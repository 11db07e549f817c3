"""SQL generation for conjunctive and violation queries (SQLite dialect).

Section 4.2 presents the read queries of a chase step as SQL
(``SELECT * FROM (LHS query) WHERE NOT EXISTS (SELECT * FROM (RHS query))``,
Example 4.1).  This module renders our query objects into exactly that shape
so the SQLite backend can evaluate them, and so tests can cross-check the
in-memory evaluator against a real SQL engine.

Terms are encoded into a single text column per attribute: constants as
``c:<value>`` and labeled nulls as ``n:<name>``.  The encoding preserves
equality, which is all conjunctive-query evaluation needs; its single
definition lives in :mod:`repro.codec.rows` (re-exported here for backward
compatibility) and is shared with the SQLite backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from ..codec.rows import decode_row, decode_term, encode_row, encode_term
from ..core.atoms import Atom
from ..core.schema import DatabaseSchema
from ..core.terms import DataTerm, Variable, is_variable
from ..core.tgd import Tgd

__all__ = [
    "conjunction_sql",
    "conjunctive_query_sql",
    "create_table_statement",
    "decode_row",
    "decode_term",
    "encode_row",
    "encode_term",
    "quote_identifier",
    "violation_query_sql",
]


def quote_identifier(name: str) -> str:
    """Quote an SQL identifier."""
    return '"{}"'.format(name.replace('"', '""'))


def create_table_statement(schema: DatabaseSchema, relation: str) -> str:
    """``CREATE TABLE`` statement for *relation* (all columns TEXT)."""
    relation_schema = schema.relation(relation)
    columns = ", ".join(
        "{} TEXT NOT NULL".format(quote_identifier(attribute))
        for attribute in relation_schema.attributes
    )
    return "CREATE TABLE IF NOT EXISTS {} ({})".format(
        quote_identifier(relation), columns
    )


class _AliasAllocator:
    """Hands out table aliases ``t1, t2, ...`` for the atoms of a query."""

    def __init__(self) -> None:
        self._counter = 0

    def next(self) -> str:
        self._counter += 1
        return "t{}".format(self._counter)


def _column(schema: DatabaseSchema, alias: str, relation: str, position: int) -> str:
    attribute = schema.relation(relation).attributes[position]
    return "{}.{}".format(alias, quote_identifier(attribute))


def conjunction_sql(
    atoms: Sequence[Atom],
    schema: DatabaseSchema,
    seed: Optional[Dict[Variable, DataTerm]] = None,
    bound_columns: Optional[Dict[Variable, str]] = None,
    aliases: Optional[_AliasAllocator] = None,
) -> PyTuple[str, str, List[str], Dict[Variable, str]]:
    """Render a conjunction of atoms as FROM/WHERE fragments.

    Returns ``(from_clause, where_clause, parameters, variable_columns)``
    where ``variable_columns`` maps each variable to a column expression that
    carries its value.  ``bound_columns`` lets a correlated subquery refer to
    columns of the outer query (used for the NOT EXISTS of violation queries).
    """
    seed = seed or {}
    bound_columns = bound_columns or {}
    aliases = aliases or _AliasAllocator()
    from_parts: List[str] = []
    where_parts: List[str] = []
    parameters: List[str] = []
    variable_columns: Dict[Variable, str] = dict(bound_columns)

    for atom in atoms:
        alias = aliases.next()
        from_parts.append("{} AS {}".format(quote_identifier(atom.relation), alias))
        for position, term in enumerate(atom.terms):
            column = _column(schema, alias, atom.relation, position)
            if is_variable(term):
                if term in seed:
                    where_parts.append("{} = ?".format(column))
                    parameters.append(encode_term(seed[term]))
                    if term not in variable_columns:
                        variable_columns[term] = column
                elif term in variable_columns:
                    where_parts.append("{} = {}".format(column, variable_columns[term]))
                else:
                    variable_columns[term] = column
            else:
                where_parts.append("{} = ?".format(column))
                parameters.append(encode_term(term))
    from_clause = ", ".join(from_parts)
    where_clause = " AND ".join(where_parts) if where_parts else "1=1"
    return from_clause, where_clause, parameters, variable_columns


def conjunctive_query_sql(
    atoms: Sequence[Atom],
    answer_variables: Sequence[Variable],
    schema: DatabaseSchema,
    seed: Optional[Dict[Variable, DataTerm]] = None,
) -> PyTuple[str, List[str]]:
    """``SELECT DISTINCT <answers> FROM ... WHERE ...`` for a conjunctive query."""
    from_clause, where_clause, parameters, variable_columns = conjunction_sql(
        atoms, schema, seed=seed
    )
    if answer_variables:
        select_list = ", ".join(
            variable_columns[variable] for variable in answer_variables
        )
    else:
        select_list = "1"
    sql = "SELECT DISTINCT {} FROM {} WHERE {}".format(
        select_list, from_clause, where_clause
    )
    return sql, parameters


def violation_query_sql(
    tgd: Tgd,
    schema: DatabaseSchema,
    seed: Optional[Dict[Variable, DataTerm]] = None,
) -> PyTuple[str, List[str], List[Variable]]:
    """The paper's violation query shape for *tgd* (Example 4.1).

    Returns ``(sql, parameters, answer_variables)``; the answer columns carry
    the values of the LHS variables, in sorted name order, so callers can
    rebuild violation assignments from result rows.
    """
    aliases = _AliasAllocator()
    lhs_variables = sorted(tgd.lhs_variables(), key=lambda variable: variable.name)
    from_clause, where_clause, parameters, variable_columns = conjunction_sql(
        tgd.lhs, schema, seed=seed, aliases=aliases
    )
    exported = {
        variable: column
        for variable, column in variable_columns.items()
        if variable in tgd.frontier_variables()
    }
    rhs_from, rhs_where, rhs_parameters, _ = conjunction_sql(
        tgd.rhs, schema, seed=None, bound_columns=exported, aliases=aliases
    )
    select_list = ", ".join(variable_columns[variable] for variable in lhs_variables)
    sql = (
        "SELECT DISTINCT {select} FROM {lhs_from} WHERE {lhs_where} "
        "AND NOT EXISTS (SELECT 1 FROM {rhs_from} WHERE {rhs_where})"
    ).format(
        select=select_list or "1",
        lhs_from=from_clause,
        lhs_where=where_clause,
        rhs_from=rhs_from,
        rhs_where=rhs_where,
    )
    return sql, parameters + rhs_parameters, lhs_variables
