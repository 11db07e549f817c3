"""Chase provenance: the tree of "who caused what" during a chase execution.

Section 2.2 notes that frontier operations are only feasible for users if the
interface provides "meaningful provenance information for the frontier
tuples".  The chase engine therefore records a causality tree: the initial
user operation is the root, every write performed is a node, every violation
links the writes in its witness to the corrective writes (or frontier tuples)
it produced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .violations import Violation
from .writes import Write


@dataclass
class ProvenanceNode:
    """One event in a chase execution."""

    node_id: int
    label: str
    write: Optional[Write] = None
    violation: Optional[Violation] = None
    parents: List[int] = field(default_factory=list)
    children: List[int] = field(default_factory=list)

    def is_root(self) -> bool:
        """``True`` when this node has no cause recorded."""
        return not self.parents


class ChaseTree:
    """A DAG of chase events (a tree when every effect has a single cause)."""

    def __init__(self) -> None:
        self._nodes: Dict[int, ProvenanceNode] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_event(
        self,
        label: str,
        write: Optional[Write] = None,
        violation: Optional[Violation] = None,
        caused_by: Iterable[int] = (),
    ) -> int:
        """Record an event and its causes; returns the new node id."""
        node_id = next(self._ids)
        node = ProvenanceNode(
            node_id=node_id, label=label, write=write, violation=violation
        )
        for parent_id in caused_by:
            if parent_id in self._nodes:
                node.parents.append(parent_id)
                self._nodes[parent_id].children.append(node_id)
        self._nodes[node_id] = node
        return node_id

    def add_write(self, write: Write, caused_by: Iterable[int] = ()) -> int:
        """Record a write event."""
        return self.add_event(write.describe(), write=write, caused_by=caused_by)

    def add_violation(self, violation: Violation, caused_by: Iterable[int] = ()) -> int:
        """Record the detection of a violation."""
        return self.add_event(
            violation.describe(), violation=violation, caused_by=caused_by
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> ProvenanceNode:
        """Fetch a node by id."""
        return self._nodes[node_id]

    def roots(self) -> List[ProvenanceNode]:
        """Events with no recorded cause (normally the initial user operation)."""
        return [node for node in self._nodes.values() if node.is_root()]

    def __len__(self) -> int:
        return len(self._nodes)

    def to_text(self) -> str:
        """Indented rendering of the tree, roots first."""
        lines: List[str] = []

        def render(node: ProvenanceNode, depth: int, seen: set) -> None:
            lines.append("{}{}".format("  " * depth, node.label))
            if node.node_id in seen:
                return
            seen.add(node.node_id)
            for child_id in node.children:
                render(self._nodes[child_id], depth + 1, seen)

        for root in self.roots():
            render(root, 0, set())
        return "\n".join(lines)
