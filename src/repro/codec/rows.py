"""The flat row codec: one string per term, as stored in SQL TEXT columns.

Constants encode as ``c:<value>`` and labeled nulls as ``n:<name>``.  The
encoding preserves equality — which is all conjunctive-query evaluation over
the SQLite backend needs — but it is *lossy on constant payload types*
(``Constant(42)`` decodes as ``Constant('42')``), which is why the wire codec
(:mod:`repro.codec.wire`) uses a typed encoding instead.  This module is the
single definition both the SQL generator (:mod:`repro.query.sql`) and the
SQLite backend share; historically each re-stated it.
"""

from __future__ import annotations

from typing import Sequence, Tuple as PyTuple

from ..core.terms import Constant, DataTerm, LabeledNull
from ..core.tuples import Tuple


def encode_term(term: DataTerm) -> str:
    """Encode a data term into its storage string."""
    if isinstance(term, LabeledNull):
        return "n:{}".format(term.name)
    if isinstance(term, Constant):
        return "c:{}".format(term.value)
    raise TypeError("cannot encode {!r} for SQL storage".format(term))


def decode_term(text: str) -> DataTerm:
    """Decode a storage string back into a data term."""
    if text.startswith("n:"):
        return LabeledNull(text[2:])
    if text.startswith("c:"):
        return Constant(text[2:])
    raise ValueError("malformed encoded term {!r}".format(text))


def encode_row(row: Tuple) -> PyTuple[str, ...]:
    """Encode every field of *row*."""
    return tuple(encode_term(value) for value in row.values)


def decode_row(relation: str, fields: Sequence[str]) -> Tuple:
    """Decode a stored row of *relation*."""
    return Tuple(relation, [decode_term(field) for field in fields])
