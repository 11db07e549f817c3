"""User operations and the Youtopia *update* abstraction (Definition 2.6).

Three user operations can start a chase: tuple insertion, tuple deletion and
null-replacement.  An **update** is the complete sequence of database
modifications induced by one initial operation, including the frontier
operations users perform along the way; it is *positive* when the initial
operation was an insertion or null-replacement and *negative* when it was a
deletion.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..storage.interface import DatabaseView
from .frontier import FrontierOperation
from .terms import Constant, DataTerm, LabeledNull
from .tuples import Tuple
from .violations import Violation
from .writes import NullReplacement, Write, delete, insert


class UserOperation(ABC):
    """An initial user operation that may set off a chase."""

    @abstractmethod
    def initial_writes(self, view: DatabaseView) -> List[Write]:
        """The tuple-level writes the operation performs, given the current view."""

    @abstractmethod
    def describe(self) -> str:
        """One-line human-readable description."""

    def target_relations(self) -> Optional[frozenset]:
        """The relations this operation's *initial* writes touch, if knowable.

        Used by compatible-group admission to batch operations whose seeds
        are pairwise disjoint (the chase may of course cascade further).
        ``None`` (the default) means "unknown" — such operations are admitted
        in a group of their own.
        """
        return None

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__name__, self.describe())


class InsertOperation(UserOperation):
    """Insert a tuple supplied by a user."""

    def __init__(self, row: Tuple):
        self.row = row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InsertOperation):
            return NotImplemented
        return self.row == other.row

    def __hash__(self) -> int:
        return hash(("insert", self.row))

    def initial_writes(self, view: DatabaseView) -> List[Write]:
        if view.contains(self.row):
            # Inserting an existing tuple is a no-op; the chase starts with an
            # empty write set and immediately terminates.
            return []
        return [insert(self.row)]

    def target_relations(self) -> Optional[frozenset]:
        return frozenset((self.row.relation,))

    def describe(self) -> str:
        return "insert {!r}".format(self.row)


class DeleteOperation(UserOperation):
    """Delete a tuple chosen by a user."""

    def __init__(self, row: Tuple):
        self.row = row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeleteOperation):
            return NotImplemented
        return self.row == other.row

    def __hash__(self) -> int:
        return hash(("delete", self.row))

    def initial_writes(self, view: DatabaseView) -> List[Write]:
        if not view.contains(self.row):
            return []
        return [delete(self.row)]

    def target_relations(self) -> Optional[frozenset]:
        return frozenset((self.row.relation,))

    def describe(self) -> str:
        return "delete {!r}".format(self.row)


class NullReplacementOperation(UserOperation):
    """Replace every occurrence of a labeled null by a constant value."""

    def __init__(self, null: LabeledNull, value: object):
        self.null = null
        self.value: DataTerm = value if isinstance(value, (Constant, LabeledNull)) else Constant(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NullReplacementOperation):
            return NotImplemented
        return self.null == other.null and self.value == other.value

    def __hash__(self) -> int:
        return hash(("replace", self.null, self.value))

    def initial_writes(self, view: DatabaseView) -> List[Write]:
        affected = list(view.tuples_containing_null(self.null))
        return NullReplacement(self.null, self.value).expand(affected)

    def describe(self) -> str:
        return "replace {} by {}".format(self.null, self.value)


class UpdateStatus(enum.Enum):
    """Lifecycle of an update in a (possibly concurrent) execution."""

    PENDING = "pending"
    RUNNING = "running"
    WAITING_FRONTIER = "waiting-frontier"
    TERMINATED = "terminated"
    ABORTED = "aborted"
    #: The chase was stopped by a step or frontier budget, not by completing
    #: its work — updates may legitimately be non-terminating in Youtopia.
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass
class UpdateRecord:
    """The complete record of one Youtopia update (Definition 2.6).

    ``writes`` lists every database modification the update performed, in
    order; ``frontier_operations`` the human (or oracle) decisions consumed;
    ``violations_processed`` how many violations were examined.  ``terminated``
    is ``False`` when the chase was stopped by a step budget — updates may
    legitimately be non-terminating in Youtopia, so engines expose a budget
    instead of looping forever.
    """

    operation: UserOperation
    writes: List[Write] = field(default_factory=list)
    frontier_operations: List[FrontierOperation] = field(default_factory=list)
    violations_processed: int = 0
    steps: int = 0
    terminated: bool = False
    status: UpdateStatus = UpdateStatus.PENDING

    @property
    def write_count(self) -> int:
        """Number of tuple-level writes performed."""
        return len(self.writes)

    @property
    def frontier_operation_count(self) -> int:
        """Number of frontier operations consumed."""
        return len(self.frontier_operations)

    def summary(self) -> str:
        """One-line summary for logs and examples."""
        return (
            "{}: {} writes, {} frontier ops, {} violations, "
            "{} steps, {}".format(
                self.operation.describe(),
                self.write_count,
                self.frontier_operation_count,
                self.violations_processed,
                self.steps,
                "terminated" if self.terminated else "stopped by budget",
            )
        )
