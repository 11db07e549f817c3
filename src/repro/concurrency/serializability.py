"""Final-state comparison for serializability (Definition 3.4).

The paper defines serializability of a schedule prefix through the final
states of its terminating extensions.  Checking the definition exactly is
impractical (it quantifies over all futures); this module provides the
final-state comparison that ``examples/interference.py`` runs:

* :func:`databases_isomorphic` — compare two repository states up to a
  renaming of labeled nulls (two chases that invent different fresh null
  names are still "the same" outcome);
* :class:`SerialExecutor` — run a batch of updates serially, in a given
  order, with a chosen oracle, producing the reference final state.

Together with the optimistic scheduler these are enough to demonstrate the
paper's Example 3.1: the unsafe interleaving produces a state no serial order
can produce, and the optimistic scheduler prevents it by aborting the
offending update.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple as PyTuple

from ..core.oracle import AlwaysUnifyOracle, FrontierOracle
from ..core.chase import ChaseConfig, ChaseEngine
from ..core.terms import LabeledNull
from ..core.tgd import Tgd
from ..core.tuples import Tuple
from ..core.update import UserOperation
from ..storage.interface import DatabaseView
from ..storage.memory import FrozenDatabase, MemoryDatabase


def _null_signature(view: DatabaseView) -> Dict[str, int]:
    """Per-relation tuple counts — a cheap necessary condition for isomorphism."""
    return {relation: view.count(relation) for relation in view.relations()}


def databases_isomorphic(first: DatabaseView, second: DatabaseView) -> bool:
    """Equality up to a bijective renaming of labeled nulls.

    Two runs that make the same decisions but invent different fresh null
    names produce isomorphic databases; treating those as equal is the right
    notion of "same final state" for serializability comparisons.

    The search is a straightforward backtracking construction of the renaming,
    adequate for the repository sizes used in tests and examples.
    """
    if _null_signature(first) != _null_signature(second):
        return False

    relations = sorted(set(first.relations()) | set(second.relations()))
    first_rows: List[Tuple] = []
    second_rows_by_relation: Dict[str, List[Tuple]] = {}
    for relation in relations:
        first_rows.extend(first.tuples(relation))
        second_rows_by_relation[relation] = list(second.tuples(relation))

    def match_rows(
        index: int,
        mapping: Dict[LabeledNull, LabeledNull],
        used: Dict[str, List[Tuple]],
    ) -> bool:
        if index == len(first_rows):
            return True
        row = first_rows[index]
        for candidate in used[row.relation]:
            extended = _try_extend(row, candidate, mapping)
            if extended is None:
                continue
            remaining = dict(used)
            remaining[row.relation] = [
                other for other in used[row.relation] if other is not candidate
            ]
            if match_rows(index + 1, extended, remaining):
                return True
        return False

    def _try_extend(
        row: Tuple, candidate: Tuple, mapping: Dict[LabeledNull, LabeledNull]
    ) -> Optional[Dict[LabeledNull, LabeledNull]]:
        if row.arity != candidate.arity:
            return None
        extended = dict(mapping)
        reverse = {value: key for key, value in extended.items()}
        for mine, theirs in zip(row.values, candidate.values):
            mine_is_null = isinstance(mine, LabeledNull)
            theirs_is_null = isinstance(theirs, LabeledNull)
            if mine_is_null != theirs_is_null:
                return None
            if not mine_is_null:
                if mine != theirs:
                    return None
                continue
            bound = extended.get(mine)
            if bound is None:
                if theirs in reverse and reverse[theirs] != mine:
                    return None
                extended[mine] = theirs
                reverse[theirs] = mine
            elif bound != theirs:
                return None
        return extended

    return match_rows(0, {}, dict(second_rows_by_relation))


class SerialExecutor:
    """Run updates one after another on a private copy of the initial database."""

    def __init__(
        self,
        initial: DatabaseView,
        mappings: Sequence[Tgd],
        oracle_factory: Optional[Callable[[], FrontierOracle]] = None,
        max_steps: int = 10_000,
    ):
        self._initial = initial
        self._mappings = list(mappings)
        self._oracle_factory = (
            oracle_factory if oracle_factory is not None else AlwaysUnifyOracle
        )
        self._max_steps = max_steps

    def run(self, operations: Sequence[UserOperation]) -> FrozenDatabase:
        """Execute *operations* serially, in order; return the final state."""
        database = MemoryDatabase(self._initial.schema)
        database.load_from(self._initial)
        engine = ChaseEngine(
            database,
            self._mappings,
            oracle=self._oracle_factory(),
            config=ChaseConfig(max_steps=self._max_steps, track_provenance=False),
        )
        engine.run_all(operations)
        return database.snapshot()
