"""Single-version in-memory stores.

This is the storage backend used by single-chase scenarios: the examples, the
fixtures, the initial-database generator, the federation's reference chase and
the serial executor of :mod:`repro.concurrency.serializability`.  The
concurrency-control layer uses the multiversion store in
:mod:`repro.storage.versioned` instead.

Both stores here — the mutable :class:`MemoryDatabase` and its immutable
:class:`FrozenDatabase` snapshots — answer the join probe, the correction
query and the null-occurrence query through one implementation over a
:class:`~repro.storage.index.PositionIndex` (:class:`IndexedProbes`).  The
mutable store maintains its index on every write; a frozen snapshot builds
its own with one bulk pass on its first probe and keeps it, so a snapshot
that is only ever scanned or counted never pays for one.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from ..core.schema import DatabaseSchema, SchemaError
from ..core.terms import DataTerm, LabeledNull
from ..core.tuples import Tuple
from .buckets import bucket_copy
from .index import PositionIndex
from .interface import DatabaseView, MutableDatabase, StorageError


def _agreeing(row: object, bound: Sequence[PyTuple[int, DataTerm]]) -> Iterator[Tuple]:
    """*row* (a bucket of one row, or ``None``) if it holds every pair of *bound*."""
    if row is None:
        return iter(())
    values = row.values
    for position, value in bound:
        if values[position] != value:
            return iter(())
    return iter((row,))


class IndexedProbes(DatabaseView):
    """The index-backed probes the single-version stores share.

    A subclass provides :meth:`_probe_index`, a position index over exactly
    its stored rows, and :meth:`_rows`, a relation's stored rows.  Every
    answer is a fresh container, so callers may write while consuming it.
    """

    def _probe_index(self) -> PositionIndex:
        raise NotImplementedError

    def _rows(self, relation: str) -> AbstractSet[Tuple]:
        raise NotImplementedError

    def tuples_matching(
        self, relation: str, bound: Sequence[PyTuple[int, DataTerm]]
    ) -> Iterator[Tuple]:
        if not bound:
            return self.tuples(relation)
        index = self._probe_index()
        (position, value), *rest = bound
        first = index.bucket(relation, position, value)
        if type(first) is not set:
            return _agreeing(first, rest)
        if not rest:
            return iter(list(first))
        # The first pair's bucket in its own order, minus every row missing
        # from the narrowest other bucket; the survivors are re-checked on
        # every pair (a row may be in one bucket and not the next).  A bucket
        # of one row or none holds the whole answer.
        narrowest = first
        for position, value in rest:
            bucket = index.bucket(relation, position, value)
            if type(bucket) is not set:
                return _agreeing(bucket, bound)
            if len(bucket) < len(narrowest):
                narrowest = bucket
        matches: List[Tuple] = []
        for row in first:
            if row in narrowest:
                values = row.values
                for position, value in rest:
                    if values[position] != value:
                        break
                else:
                    matches.append(row)
        return iter(matches)

    def tuples_containing_null(self, null: LabeledNull) -> Iterator[Tuple]:
        return iter(bucket_copy(self._probe_index().null_bucket(null)))

    def more_specific_tuples(self, row: Tuple) -> List[Tuple]:
        # The chase issues this correction query on every generated tuple, so
        # it must not scan the relation.  Any more-specific tuple agrees with
        # ``row`` on its constant positions (Definition 2.4: the witnessing
        # map is the identity on constants), so intersecting the position
        # index's buckets over those positions narrows the candidates to the
        # few tuples sharing all constants.
        index = self._probe_index()
        relation = row.relation
        candidates = None
        first_at: Dict[LabeledNull, int] = {}
        repeats: List[PyTuple[int, int]] = []
        for position, value in enumerate(row.values):
            if isinstance(value, LabeledNull):
                first = first_at.setdefault(value, position)
                if first != position:
                    repeats.append((first, position))
                continue
            bucket = index.bucket(relation, position, value)
            if type(bucket) is set:
                if candidates is None:
                    candidates = set(bucket)
                else:
                    candidates &= bucket
                if not candidates:
                    return []
            elif bucket is None or (candidates is not None and bucket not in candidates):
                return []
            else:
                candidates = {bucket}
        if candidates is None:
            # All-null pattern: every tuple of the relation is a candidate.
            candidates = self._rows(relation)
            if not candidates:
                return []
        if self._schema.arity_of(relation) != len(row.values):
            return []  # no stored tuple can match a wrong-arity pattern
        # What is left of Definition 2.4 is that the witnessing map is a
        # function: positions repeating a null must hold equal values (the
        # versioned view's twin check).  Distinct nulls leave nothing to check.
        if not repeats:
            return list(candidates)
        return [
            candidate
            for candidate in candidates
            if all(candidate[first] == candidate[again] for first, again in repeats)
        ]


class FrozenDatabase(IndexedProbes):
    """An immutable snapshot of a :class:`MemoryDatabase`.

    Its position index is built on the first probe and cached here: the
    contents never change, so the index never goes stale.
    """

    def __init__(self, schema: DatabaseSchema, contents: Dict[str, frozenset]):
        self._schema = schema
        self._contents = contents
        self._index: Optional[PositionIndex] = None

    def _probe_index(self) -> PositionIndex:
        index = self._index
        if index is None:
            index = PositionIndex()
            index.add_many(row for rows in self._contents.values() for row in rows)
            self._index = index
        return index

    def _rows(self, relation: str) -> AbstractSet[Tuple]:
        return self._contents.get(relation, frozenset())

    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    def relations(self) -> List[str]:
        return list(self._contents)

    def tuples(self, relation: str) -> Iterator[Tuple]:
        return iter(self._contents.get(relation, frozenset()))

    def contains(self, row: Tuple) -> bool:
        return row in self._contents.get(row.relation, frozenset())

    def count(self, relation: str) -> int:
        return len(self._contents.get(relation, frozenset()))

    def cardinality_estimate(self, relation: str) -> Optional[int]:
        return len(self._contents.get(relation, frozenset()))

    def change_token(self) -> Optional[object]:
        return 0  # immutable: every read is memoizable forever


class MemoryDatabase(IndexedProbes, MutableDatabase):
    """A mutable, indexed, single-version in-memory database."""

    def __init__(self, schema: DatabaseSchema):
        self._schema = schema
        self._relations: Dict[str, Set[Tuple]] = {
            name: set() for name in schema.relation_names()
        }
        self._index = PositionIndex()
        #: Monotone stamp bumped by every mutation (the change token).
        self._stamp = 0

    # ------------------------------------------------------------------
    # DatabaseView
    # ------------------------------------------------------------------
    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    def relations(self) -> List[str]:
        return list(self._relations)

    def tuples(self, relation: str) -> Iterator[Tuple]:
        if relation not in self._relations:
            raise SchemaError("unknown relation {!r}".format(relation))
        # Iterate over a copy so callers may mutate while scanning results.
        return iter(tuple(self._relations[relation]))

    def contains(self, row: Tuple) -> bool:
        return row in self._relations.get(row.relation, set())

    def _probe_index(self) -> PositionIndex:
        return self._index

    def _rows(self, relation: str) -> AbstractSet[Tuple]:
        return self._relations.get(relation, frozenset())

    def count(self, relation: str) -> int:
        return len(self._relations.get(relation, set()))

    def cardinality_estimate(self, relation: str) -> Optional[int]:
        return len(self._relations.get(relation, set()))

    def change_token(self) -> Optional[object]:
        return self._stamp

    # ------------------------------------------------------------------
    # MutableDatabase
    # ------------------------------------------------------------------
    def insert(self, row: Tuple) -> bool:
        self._schema.validate_tuple(row)
        bucket = self._relations[row.relation]
        if row in bucket:
            return False
        bucket.add(row)
        self._index.add(row)
        self._stamp += 1
        return True

    def delete(self, row: Tuple) -> bool:
        bucket = self._relations.get(row.relation)
        if bucket is None:
            raise SchemaError("unknown relation {!r}".format(row.relation))
        if row not in bucket:
            return False
        bucket.remove(row)
        self._index.remove(row)
        self._stamp += 1
        return True

    def snapshot(self) -> FrozenDatabase:
        return FrozenDatabase(
            self._schema,
            {name: frozenset(rows) for name, rows in self._relations.items()},
        )

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Remove all tuples (the schema is kept)."""
        for bucket in self._relations.values():
            bucket.clear()
        self._index.rebuild(())
        self._stamp += 1

    def load_from(self, view: DatabaseView) -> None:
        """Replace the contents of this store by the contents of *view*.

        Bulk path: rows are validated and deduplicated per relation, then
        indexed with one :meth:`PositionIndex.add_many` pass instead of a
        per-row insert — loading is the burstiest write this store sees.
        """
        # Validate-then-commit: nothing is mutated until every incoming row
        # passed, so a failing row leaves the (cleared-on-entry) store
        # consistent instead of half-loaded with unindexed rows.
        staged: Dict[str, List[Tuple]] = {}
        for relation in view.relations():
            if relation not in self._relations:
                raise SchemaError("unknown relation {!r}".format(relation))
            seen: Set[Tuple] = set()
            rows = staged.setdefault(relation, [])
            for row in view.tuples(relation):
                if row not in seen:
                    self._schema.validate_tuple(row)
                    seen.add(row)
                    rows.append(row)
        self.clear()
        fresh: List[Tuple] = []
        for relation, rows in staged.items():
            self._relations[relation].update(rows)
            fresh.extend(rows)
        self._index.add_many(fresh)
        self._stamp += 1

    def __repr__(self) -> str:
        sizes = ", ".join(
            "{}={}".format(name, len(rows)) for name, rows in self._relations.items() if rows
        )
        return "MemoryDatabase({})".format(sizes or "empty")
