"""Partitioning the union mapping set across peers, and commit-time exchange.

The paper's setting is many autonomous peers joined by tgd mappings.  Here a
*federation schema* assigns every relation to exactly one owning peer; a
mapping is **local** when both of its sides are owned by the same peer (that
peer's repository chases it natively) and **cross-peer** when its LHS
relations are owned by one peer and its RHS relations by another.  A mapping
whose single side straddles two owners is rejected — it has no home to
evaluate the side's join, which is exactly the restriction the paper's
peer-to-peer mappings obey.

Cross-peer propagation happens at commit time.  The owning scheduler reports
each committed update's write set (see
:meth:`~repro.concurrency.optimistic.OptimisticScheduler.add_commit_listener`);
:func:`envelopes_for_commit` turns it into exchange payloads:

* an inserted row seeds the cross mapping's LHS over the source peer's
  committed snapshot (another peer owns the RHS relations, so every LHS match
  is a violation there and no ``NOT EXISTS`` needs evaluating), and each new
  exported assignment becomes an
  :class:`~repro.federation.envelopes.ExchangeFiring` carrying the
  instantiated head rows — existentials materialized as peer-fresh nulls;
* a deleted row at the RHS-owning peer is matched against the mapping's RHS
  over the pre-delete state; exported assignments that thereby lost their
  *last* RHS match become
  :class:`~repro.federation.envelopes.ExchangeRetraction` payloads for the
  LHS owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple as PyTuple

from ..core.terms import NullFactory, Variable
from ..core.tgd import Tgd
from ..core.update import DeleteOperation, InsertOperation, UserOperation
from ..core.writes import WriteKind
from ..query.compiled import get_plan
from ..query.violation_query import seeds_for_lhs_write
from ..service.tickets import RemoteOrigin
from ..storage.interface import DatabaseView
from ..storage.overlay import OverlayView
from ..storage.versioned import VersionedWrite
from .envelopes import ExchangeFiring, ExchangeRetraction, freeze_assignment


class FederationError(ValueError):
    """Raised for unroutable mappings or inconsistent ownership declarations."""


@dataclass(frozen=True)
class CrossMapping:
    """A tgd whose LHS lives on one peer and whose RHS lives on another."""

    tgd: Tgd
    source: str
    target: str


class ExchangeRules:
    """The routed view of a union mapping set under a relation-ownership map."""

    def __init__(self, mappings: Sequence[Tgd], owner_of: Dict[str, str]):
        self.owner_of = dict(owner_of)
        self.local: Dict[str, List[Tgd]] = {}
        self.cross: List[CrossMapping] = []
        #: The federation's mapping table: every peer (and the coordinator)
        #: builds it from the same mapping list, so the wire codec can send
        #: a mapping as its name (see :mod:`repro.codec.wire`).
        self.by_name: Dict[str, Tgd] = {}
        self._outgoing: Dict[str, Dict[str, List[CrossMapping]]] = {}
        self._incoming: Dict[str, Dict[str, List[CrossMapping]]] = {}
        for tgd in mappings:
            if self.by_name.setdefault(tgd.name, tgd) != tgd:
                raise FederationError(
                    "two different mappings are both named {!r} — names "
                    "identify mappings on the wire".format(tgd.name)
                )
            source = self._single_owner(tgd, tgd.lhs_relations(), "LHS")
            target = self._single_owner(tgd, tgd.rhs_relations(), "RHS")
            if source == target:
                self.local.setdefault(source, []).append(tgd)
                continue
            cross = CrossMapping(tgd=tgd, source=source, target=target)
            self.cross.append(cross)
            outgoing = self._outgoing.setdefault(source, {})
            for relation in tgd.lhs_relations():
                outgoing.setdefault(relation, []).append(cross)
            incoming = self._incoming.setdefault(target, {})
            for relation in tgd.rhs_relations():
                incoming.setdefault(relation, []).append(cross)

    @classmethod
    def for_federation(
        cls, schema, mappings: Sequence[Tgd], ownership: Dict[str, Sequence[str]]
    ) -> "ExchangeRules":
        """Route *mappings* under a ``peer -> relations`` declaration that
        gives every relation of *schema* exactly one owner."""
        owner_of: Dict[str, str] = {}
        for peer_name, relations in ownership.items():
            for relation in relations:
                if relation not in schema:
                    raise FederationError(
                        "peer {!r} claims unknown relation {!r}".format(
                            peer_name, relation
                        )
                    )
                if relation in owner_of:
                    raise FederationError(
                        "relation {!r} claimed by both {!r} and {!r}".format(
                            relation, owner_of[relation], peer_name
                        )
                    )
                owner_of[relation] = peer_name
        unowned = [name for name in schema.relation_names() if name not in owner_of]
        if unowned:
            raise FederationError(
                "no peer owns relation(s) {}".format(sorted(unowned))
            )
        return cls(mappings, owner_of)

    def _single_owner(
        self, tgd: Tgd, relations: FrozenSet[str], side: str
    ) -> str:
        owners = set()
        for relation in relations:
            owner = self.owner_of.get(relation)
            if owner is None:
                raise FederationError(
                    "mapping {} mentions relation {!r} that no peer owns".format(
                        tgd.name, relation
                    )
                )
            owners.add(owner)
        if len(owners) != 1:
            raise FederationError(
                "mapping {} has its {} spread over peers {} — each mapping "
                "side must be owned by a single peer to be routable".format(
                    tgd.name, side, sorted(owners)
                )
            )
        return owners.pop()

    def owned_by(self, peer: str) -> PyTuple[str, ...]:
        """The relations *peer* owns."""
        return tuple(
            relation for relation, owner in self.owner_of.items() if owner == peer
        )

    def route(self, peer: str, operation: UserOperation) -> str:
        """The peer a user operation submitted at *peer* executes at.

        An insert or delete runs at the owner of its relation.  Anything else
        (a null replacement) runs where it was submitted: a labeled null's
        occurrences are confined to the peer that minted it under this
        exchange model.
        """
        if isinstance(operation, (InsertOperation, DeleteOperation)):
            return self.owner_of[operation.row.relation]
        return peer

    def local_mappings(self, peer: str) -> List[Tgd]:
        """The mappings peer *peer* chases natively."""
        return list(self.local.get(peer, ()))

    def exchange_relations(self, peer: str) -> FrozenSet[str]:
        """Relations of *peer* whose writes can produce exchange envelopes.

        The union of the peer's outgoing (LHS) and incoming (RHS) cross-
        mapping relations.  A committed write set touching none of them can
        be skipped by the commit-time exchange without evaluating anything —
        the common case for purely local cascades.
        """
        relations = set(self._outgoing.get(peer, ()))
        relations.update(self._incoming.get(peer, ()))
        return frozenset(relations)

    def outgoing(self, peer: str, relation: str) -> Sequence[CrossMapping]:
        """Cross mappings fired by writes of *peer* into *relation* (LHS side)."""
        return self._outgoing.get(peer, {}).get(relation, ())

    def incoming(self, peer: str, relation: str) -> Sequence[CrossMapping]:
        """Cross mappings retracted by deletes of *peer* from *relation* (RHS side)."""
        return self._incoming.get(peer, {}).get(relation, ())

    def union(self) -> List[Tgd]:
        """Every mapping, local and cross (the single-repository reference set)."""
        result: List[Tgd] = []
        for tgds in self.local.values():
            result.extend(tgds)
        result.extend(cross.tgd for cross in self.cross)
        return result


def _instantiate_head(
    tgd: Tgd, exported: Dict[Variable, object], null_factory: NullFactory
) -> PyTuple:
    """The RHS atoms under *exported*, existentials as fresh labeled nulls."""
    plan = get_plan(tgd)
    full = dict(exported)
    for variable in plan.sorted_existentials:
        full[variable] = null_factory.fresh()
    return tuple(atom.instantiate(full) for atom in tgd.rhs)


def envelopes_for_commit(
    rules: ExchangeRules,
    peer: str,
    writes: Sequence[VersionedWrite],
    view: DatabaseView,
    null_factory: NullFactory,
    origin: RemoteOrigin,
) -> List[PyTuple[str, object]]:
    """The ``(destination, payload)`` pairs one committed update produces.

    *view* must be the committed snapshot the update's own chase saw (the
    commit listener provides exactly that); *origin* identifies the federated
    update that ultimately caused this commit, so questions raised while
    chasing the resulting envelopes route all the way back.
    """
    payloads: List[PyTuple[str, object]] = []
    fired: Set[PyTuple[Tgd, frozenset]] = set()
    retracted: Set[PyTuple[Tgd, frozenset]] = set()
    for logged in writes:
        write = logged.write
        added = write.added_row()
        if added is not None:
            for cross in rules.outgoing(peer, added.relation):
                plan = get_plan(cross.tgd)
                # LHS matches only: the RHS relations live at another peer
                # (checked once, at Peer construction), so the violation
                # query's NOT EXISTS could never filter anything here.
                for seed in seeds_for_lhs_write(cross.tgd, added):
                    for assignment, _ in plan.lhs.find_matches(view, seed):
                        exported = plan.exported(assignment)
                        key = (cross.tgd, freeze_assignment(exported))
                        if key in fired:
                            continue
                        fired.add(key)
                        payloads.append(
                            (
                                cross.target,
                                ExchangeFiring(
                                    tgd=cross.tgd,
                                    assignment_items=key[1],
                                    head_rows=_instantiate_head(
                                        cross.tgd, exported, null_factory
                                    ),
                                    origin=origin,
                                ),
                            )
                        )
        if write.kind is not WriteKind.DELETE:
            continue
        removed = write.removed_row()
        if removed is None:
            continue
        for cross in rules.incoming(peer, removed.relation):
            plan = get_plan(cross.tgd)
            restored = OverlayView(view, added={removed})
            for atom in plan.rhs_atoms_by_relation.get(removed.relation, ()):
                bound = atom.match(removed)
                if bound is None:
                    continue
                for assignment, witness in plan.rhs.find_matches(restored, bound):
                    if removed not in witness:
                        continue
                    exported = {
                        variable: value
                        for variable, value in assignment.items()
                        if variable in plan.frontier_variables
                    }
                    if plan.rhs.exists_match(view, exported):
                        continue  # another RHS match survives the delete
                    key = (cross.tgd, freeze_assignment(exported))
                    if key in retracted:
                        continue
                    retracted.add(key)
                    payloads.append(
                        (
                            cross.source,
                            ExchangeRetraction(
                                tgd=cross.tgd,
                                assignment_items=key[1],
                                removed_row=removed,
                                origin=origin,
                            ),
                        )
                    )
    return payloads


def coalesce_envelopes(
    staged: Sequence[PyTuple[str, object]],
) -> List[PyTuple[str, object]]:
    """Coalesce one commit batch's staged ``(destination, payload)`` pairs.

    Two in-order rewrites, each preserving the destination's observable
    outcome (delivery is per-link FIFO, and a batch is flushed as one bundle,
    so "deliver the coalesced sequence" ≡ "deliver the original sequence"):

    * **Dedup absorbed firings.**  A second firing of the same
      ``(tgd, exported assignment)`` to the same destination would be
      absorbed on arrival (its RHS match already exists) — drop it.  Its
      head rows may carry differently-named fresh nulls, but chase results
      are identities only up to null renaming, so keeping the first is
      enough.
    * **Cancel firing→retraction pairs.**  A firing followed (within the
      batch) by a retraction of the same key nets to nothing remotely: the
      firing's head rows would be inserted and then retracted before anything
      else could observe them.  Both drop; a *later* firing of the key is
      re-emitted fresh.  Under the current routing this rule is *defensive*:
      a tgd's firings go to its RHS owner and its retractions to its LHS
      owner, and :class:`ExchangeRules` guarantees those differ, so no peer
      can stage both sides of a key today — the rule keeps the rewrite sound
      for any future payload source that can.

    Question-routing payloads and remote updates pass through untouched —
    their per-message identity matters (answers and cancellations reference
    individual decisions).
    """
    kept: List[Optional[PyTuple[str, object]]] = []
    live_firing: Dict[PyTuple[str, Tgd, frozenset], int] = {}
    seen_retraction: Set[PyTuple[str, Tgd, frozenset]] = set()
    for destination, payload in staged:
        if isinstance(payload, ExchangeFiring):
            key = (destination, payload.tgd, payload.assignment_items)
            if key in live_firing:
                continue  # duplicate: would be absorbed on arrival
            live_firing[key] = len(kept)
            kept.append((destination, payload))
        elif isinstance(payload, ExchangeRetraction):
            key = (destination, payload.tgd, payload.assignment_items)
            index = live_firing.pop(key, None)
            if index is not None:
                kept[index] = None  # the pair cancels
                continue
            if key in seen_retraction:
                continue
            seen_retraction.add(key)
            kept.append((destination, payload))
        else:
            kept.append((destination, payload))
    return [entry for entry in kept if entry is not None]
