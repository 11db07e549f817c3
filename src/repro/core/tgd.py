"""Tuple-generating dependencies (tgds), the mappings of a Youtopia repository.

A tgd has the form ``Φ(x, y) → ∃z Ψ(x, z)`` where Φ (the left-hand side, LHS)
and Ψ (the right-hand side, RHS) are conjunctions of relational atoms.  Free
variables are universally quantified; variables that appear only on the RHS
are existentially quantified and give rise to fresh labeled nulls when the
forward chase fires the mapping (Example 1.1 in the paper).

This module provides:

* the :class:`Tgd` value object with validation,
* a small concrete syntax parser (:func:`parse_tgd`), so that examples and
  fixtures can write mappings as readable strings,
* the mapping dependency graph, cycle detection and the classical weak
  acyclicity test — Youtopia explicitly *permits* cycles, and the tests use
  these utilities to demonstrate that the fixtures and generated mappings do
  contain cycles that other systems would reject.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple

from .atoms import Atom, atoms_relations, atoms_variables
from .schema import DatabaseSchema, SchemaError
from .terms import Constant, Variable


class TgdError(ValueError):
    """Raised for malformed tgds or unparseable tgd strings."""


class Tgd:
    """A tuple-generating dependency ``LHS → ∃ existentials . RHS``."""

    __slots__ = ("_name", "_lhs", "_rhs", "_hash")

    def __init__(
        self,
        lhs: Sequence[Atom],
        rhs: Sequence[Atom],
        name: Optional[str] = None,
    ):
        lhs_atoms = tuple(lhs)
        rhs_atoms = tuple(rhs)
        if not lhs_atoms:
            raise TgdError("a tgd needs at least one atom on the left-hand side")
        if not rhs_atoms:
            raise TgdError("a tgd needs at least one atom on the right-hand side")
        self._lhs = lhs_atoms
        self._rhs = rhs_atoms
        self._name = name or "tgd"
        self._hash = hash((self._lhs, self._rhs))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable mapping name (``sigma3`` in the examples)."""
        return self._name

    @property
    def lhs(self) -> PyTuple[Atom, ...]:
        """Left-hand-side atoms Φ."""
        return self._lhs

    @property
    def rhs(self) -> PyTuple[Atom, ...]:
        """Right-hand-side atoms Ψ."""
        return self._rhs

    def lhs_variables(self) -> FrozenSet[Variable]:
        """Variables occurring on the LHS (the universally quantified x ∪ y)."""
        return atoms_variables(self._lhs)

    def rhs_variables(self) -> FrozenSet[Variable]:
        """Variables occurring on the RHS (x ∪ z)."""
        return atoms_variables(self._rhs)

    def frontier_variables(self) -> FrozenSet[Variable]:
        """Variables shared between LHS and RHS (the exported x)."""
        return self.lhs_variables() & self.rhs_variables()

    def existential_variables(self) -> FrozenSet[Variable]:
        """Variables appearing only on the RHS (the existential z)."""
        return self.rhs_variables() - self.lhs_variables()

    def lhs_relations(self) -> FrozenSet[str]:
        """Relations mentioned on the LHS."""
        return atoms_relations(self._lhs)

    def rhs_relations(self) -> FrozenSet[str]:
        """Relations mentioned on the RHS."""
        return atoms_relations(self._rhs)

    def relations(self) -> FrozenSet[str]:
        """All relations mentioned by the tgd."""
        return self.lhs_relations() | self.rhs_relations()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, schema: DatabaseSchema) -> None:
        """Check every atom against *schema* (relation exists, arity matches)."""
        for atom in self._lhs + self._rhs:
            if atom.relation not in schema:
                raise SchemaError(
                    "mapping {} mentions unknown relation {!r}".format(
                        self._name, atom.relation
                    )
                )
            expected = schema.arity_of(atom.relation)
            if atom.arity != expected:
                raise SchemaError(
                    "mapping {} uses {} with arity {} but the schema says {}".format(
                        self._name, atom.relation, atom.arity, expected
                    )
                )

    # ------------------------------------------------------------------
    # Value semantics and rendering
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tgd):
            return NotImplemented
        return self._lhs == other._lhs and self._rhs == other._rhs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Tgd({}: {})".format(self._name, self.to_string())

    def to_string(self) -> str:
        """Render the tgd in the concrete syntax accepted by :func:`parse_tgd`."""
        lhs = ", ".join(_render_atom(atom) for atom in self._lhs)
        rhs = ", ".join(_render_atom(atom) for atom in self._rhs)
        existentials = sorted(variable.name for variable in self.existential_variables())
        if existentials:
            return "{} -> exists {} . {}".format(lhs, ", ".join(existentials), rhs)
        return "{} -> {}".format(lhs, rhs)


def _render_atom(atom: Atom) -> str:
    parts = []
    for term in atom.terms:
        if isinstance(term, Variable):
            parts.append(term.name)
        else:
            parts.append("'{}'".format(term.value))
    return "{}({})".format(atom.relation, ", ".join(parts))


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
_ATOM_PATTERN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*")


def _parse_term(token: str) -> object:
    token = token.strip()
    if not token:
        raise TgdError("empty term in atom")
    if token.startswith("'") and token.endswith("'") and len(token) >= 2:
        return Constant(token[1:-1])
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return Constant(token[1:-1])
    if re.fullmatch(r"-?\d+", token):
        return Constant(int(token))
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", token):
        return Variable(token)
    raise TgdError("cannot parse term {!r}".format(token))


def _parse_atom_list(text: str) -> List[Atom]:
    atoms: List[Atom] = []
    position = 0
    text = text.strip()
    while position < len(text):
        match = _ATOM_PATTERN.match(text, position)
        if match is None:
            raise TgdError("cannot parse atoms from {!r}".format(text[position:]))
        relation, body = match.group(1), match.group(2)
        terms = [_parse_term(token) for token in body.split(",")] if body.strip() else []
        if not terms:
            raise TgdError("atom {!r} has no terms".format(relation))
        atoms.append(Atom(relation, terms))
        position = match.end()
        if position < len(text):
            if text[position] == ",":
                position += 1
            elif text[position] == "&":
                position += 1
            else:
                raise TgdError(
                    "unexpected character {!r} in atom list {!r}".format(
                        text[position], text
                    )
                )
    if not atoms:
        raise TgdError("no atoms found in {!r}".format(text))
    return atoms


def parse_tgd(text: str, name: Optional[str] = None) -> Tgd:
    """Parse a tgd from its concrete syntax.

    Examples of accepted syntax (``->`` separates the sides; an optional
    ``exists z1, z2 .`` prefix on the right-hand side declares existential
    variables explicitly, otherwise RHS-only variables are implicitly
    existential; constants are quoted)::

        C(c) -> exists a, l . S(a, l, c)
        A(l, n), T(n, c, cs) -> exists r . R(c, n, r)
        V(cs, x), T(n, c, cs) -> E(x, n)
        Person(x) -> exists y . Father(x, y), Person(y)
    """
    if "->" not in text:
        raise TgdError("a tgd needs a '->' separator: {!r}".format(text))
    lhs_text, rhs_text = text.split("->", 1)
    rhs_text = rhs_text.strip()
    declared_existentials: Set[str] = set()
    if rhs_text.lower().startswith("exists"):
        remainder = rhs_text[len("exists"):]
        if "." not in remainder:
            raise TgdError(
                "an 'exists' prefix must be terminated by '.': {!r}".format(text)
            )
        variable_list, rhs_text = remainder.split(".", 1)
        declared_existentials = {
            token.strip() for token in variable_list.split(",") if token.strip()
        }
    lhs_atoms = _parse_atom_list(lhs_text)
    rhs_atoms = _parse_atom_list(rhs_text)
    tgd = Tgd(lhs_atoms, rhs_atoms, name=name)
    if declared_existentials:
        actual = {variable.name for variable in tgd.existential_variables()}
        missing = declared_existentials - actual
        if missing:
            raise TgdError(
                "variables declared existential but appearing on the LHS "
                "(or not at all on the RHS): {}".format(sorted(missing))
            )
    return tgd


def parse_tgds(specs: Iterable[str]) -> List[Tgd]:
    """Parse several tgds, naming them ``sigma1, sigma2, ...`` in order."""
    return [
        parse_tgd(spec, name="sigma{}".format(index + 1))
        for index, spec in enumerate(specs)
    ]


# ----------------------------------------------------------------------
# Mapping graphs, cycles and weak acyclicity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MappingGraph:
    """The directed graph with relations as nodes and tgds as edge bundles.

    There is an edge ``R → S`` whenever some mapping has ``R`` on its LHS and
    ``S`` on its RHS.  Cycles in this graph are precisely what classical
    update-exchange systems forbid and what Youtopia allows.
    """

    edges: FrozenSet[PyTuple[str, str]]

    @classmethod
    def from_tgds(cls, tgds: Sequence[Tgd]) -> "MappingGraph":
        edges: Set[PyTuple[str, str]] = set()
        for tgd in tgds:
            for source in tgd.lhs_relations():
                for target in tgd.rhs_relations():
                    edges.add((source, target))
        return cls(frozenset(edges))

    def nodes(self) -> FrozenSet[str]:
        """All relations appearing as an endpoint of some edge."""
        found: Set[str] = set()
        for source, target in self.edges:
            found.add(source)
            found.add(target)
        return frozenset(found)

    def successors(self, node: str) -> FrozenSet[str]:
        """Relations directly reachable from *node*."""
        return frozenset(target for source, target in self.edges if source == node)

    def has_cycle(self) -> bool:
        """``True`` when the relation-level mapping graph has a directed cycle."""
        return bool(self.cycles())

    def cycles(self) -> List[List[str]]:
        """Return one representative node list per strongly connected cycle.

        Self-loops (``R → R``) count as cycles.  The implementation is an
        iterative Tarjan strongly-connected-components pass; any component of
        size greater than one, or single node with a self-loop, is cyclic.
        """
        adjacency: Dict[str, List[str]] = {}
        for source, target in self.edges:
            adjacency.setdefault(source, []).append(target)
            adjacency.setdefault(target, [])
        index_counter = 0
        indices: Dict[str, int] = {}
        lowlinks: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        result: List[List[str]] = []

        for start in adjacency:
            if start in indices:
                continue
            work: List[PyTuple[str, Iterator[str]]] = [(start, iter(adjacency[start]))]
            indices[start] = lowlinks[start] = index_counter
            index_counter += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in indices:
                        indices[successor] = lowlinks[successor] = index_counter
                        index_counter += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append((successor, iter(adjacency[successor])))
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlinks[node] = min(lowlinks[node], indices[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
                if lowlinks[node] == indices[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or (component[0], component[0]) in self.edges:
                        result.append(sorted(component))
        return result


def is_weakly_acyclic(tgds: Sequence[Tgd]) -> bool:
    """Classical weak-acyclicity test on the position dependency graph.

    Nodes are relation positions ``(R, i)``.  For every tgd and every frontier
    variable occurrence at LHS position ``(R, i)``: add a *regular* edge to
    every RHS position where that variable occurs, and a *special* edge to
    every RHS position holding an existential variable in an atom that exports
    the variable's tuple.  The mapping set is weakly acyclic iff no cycle goes
    through a special edge.  Youtopia does not require weak acyclicity — this
    is used in tests to demonstrate that cyclic fixtures really are outside
    the classical terminating fragment.
    """
    regular: Set[PyTuple[PyTuple[str, int], PyTuple[str, int]]] = set()
    special: Set[PyTuple[PyTuple[str, int], PyTuple[str, int]]] = set()
    for tgd in tgds:
        existentials = tgd.existential_variables()
        for lhs_atom in tgd.lhs:
            for lhs_position, term in enumerate(lhs_atom.terms):
                if not isinstance(term, Variable):
                    continue
                if term not in tgd.frontier_variables():
                    continue
                source = (lhs_atom.relation, lhs_position)
                for rhs_atom in tgd.rhs:
                    for rhs_position, rhs_term in enumerate(rhs_atom.terms):
                        target = (rhs_atom.relation, rhs_position)
                        if rhs_term == term:
                            regular.add((source, target))
                        elif isinstance(rhs_term, Variable) and rhs_term in existentials:
                            special.add((source, target))
    nodes: Set[PyTuple[str, int]] = set()
    for source, target in regular | special:
        nodes.add(source)
        nodes.add(target)
    adjacency: Dict[PyTuple[str, int], List[PyTuple[PyTuple[str, int], bool]]] = {
        node: [] for node in nodes
    }
    for source, target in regular:
        adjacency[source].append((target, False))
    for source, target in special:
        adjacency[source].append((target, True))

    # A mapping set fails weak acyclicity iff some cycle contains a special
    # edge: i.e. there is a special edge (u, v) such that u is reachable from v.
    def reachable(start: PyTuple[str, int], goal: PyTuple[str, int]) -> bool:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for successor, _ in adjacency.get(node, []):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return False

    for source, target in special:
        if reachable(target, source) or source == target:
            return False
    return True


class MappingSet:
    """An ordered collection of named tgds with schema validation and lookups."""

    def __init__(self, tgds: Iterable[Tgd] = ()):  # noqa: D107 - simple container
        self._tgds: List[Tgd] = list(tgds)

    def add(self, tgd: Tgd) -> None:
        """Append *tgd* to the set."""
        self._tgds.append(tgd)

    def __iter__(self) -> Iterator[Tgd]:
        return iter(self._tgds)

    def __len__(self) -> int:
        return len(self._tgds)

    def __getitem__(self, index: int) -> Tgd:
        return self._tgds[index]

    def by_name(self, name: str) -> Tgd:
        """Look a mapping up by its name."""
        for tgd in self._tgds:
            if tgd.name == name:
                return tgd
        raise KeyError("no mapping named {!r}".format(name))

    def validate(self, schema: DatabaseSchema) -> None:
        """Validate every mapping against *schema*."""
        for tgd in self._tgds:
            tgd.validate(schema)

    def graph(self) -> MappingGraph:
        """The relation-level mapping graph."""
        return MappingGraph.from_tgds(self._tgds)

    def has_cycle(self) -> bool:
        """``True`` when the mapping graph contains a cycle."""
        return self.graph().has_cycle()

    def is_weakly_acyclic(self) -> bool:
        """``True`` when the set passes the classical weak-acyclicity test."""
        return is_weakly_acyclic(self._tgds)
