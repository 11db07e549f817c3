"""Exchange rules: mapping routing, firing and retraction computation."""

from __future__ import annotations

import pytest

from repro.core.schema import DatabaseSchema
from repro.core.terms import NullFactory
from repro.core.tgd import parse_tgd, parse_tgds
from repro.core.tuples import make_tuple
from repro.core.writes import delete, insert
from repro.federation.envelopes import ExchangeFiring, ExchangeRetraction
from repro.federation.exchange import (
    ExchangeRules,
    FederationError,
    envelopes_for_commit,
)
from repro.federation.operations import (
    RemoteFiringOperation,
    RemoteRetractionOperation,
)
from repro.service.tickets import RemoteOrigin
from repro.storage.versioned import VersionedDatabase


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict(
        {"A1": ["x"], "A2": ["x", "y"], "B1": ["x"], "B2": ["x", "y"]}
    )


OWNERSHIP = {"A1": "a", "A2": "a", "B1": "b", "B2": "b"}


def test_rules_partition_local_and_cross(schema):
    mappings = parse_tgds(
        ["A1(x) -> exists y . A2(x, y)", "A2(x, y) -> B1(x)", "B1(x) -> exists y . B2(x, y)"]
    )
    rules = ExchangeRules(mappings, OWNERSHIP)
    assert [tgd.name for tgd in rules.local_mappings("a")] == ["sigma1"]
    assert [tgd.name for tgd in rules.local_mappings("b")] == ["sigma3"]
    assert len(rules.cross) == 1
    cross = rules.cross[0]
    assert (cross.source, cross.target) == ("a", "b")
    assert list(rules.outgoing("a", "A2")) == [cross]
    assert list(rules.incoming("b", "B1")) == [cross]
    assert {tgd.name for tgd in rules.union()} == {"sigma1", "sigma2", "sigma3"}


def test_rules_reject_unowned_relation(schema):
    with pytest.raises(FederationError, match="no peer owns"):
        ExchangeRules([parse_tgd("A1(x) -> B1(x)")], {"A1": "a"})


def test_rules_reject_two_mappings_under_one_name(schema):
    first = parse_tgd("A1(x) -> B1(x)", name="m")
    with pytest.raises(FederationError, match="both named 'm'"):
        ExchangeRules([first, parse_tgd("A2(x, y) -> B1(x)", name="m")], OWNERSHIP)
    # The same mapping listed twice is one mapping.
    rules = ExchangeRules([first, parse_tgd("A1(x) -> B1(x)", name="m")], OWNERSHIP)
    assert rules.by_name == {"m": first}


def test_peer_rejects_owning_the_rhs_of_its_outgoing_mapping(schema):
    """The invariant commit-time exchange relies on to skip the anti-join."""
    from repro.federation import Peer
    from repro.service import RepositoryService
    from repro.storage.memory import FrozenDatabase

    rules = ExchangeRules([parse_tgd("A1(x) -> B1(x)", name="m")], OWNERSHIP)
    empty = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    with pytest.raises(FederationError, match="owns RHS relation"):
        Peer(
            name="a",
            service=RepositoryService(empty, []),
            owned_relations=("A1", "A2", "B1"),
            rules=rules,
            firing_factory=NullFactory(prefix="af"),
        )


def test_rules_reject_straddling_side(schema):
    with pytest.raises(FederationError, match="single peer"):
        ExchangeRules([parse_tgd("A1(x), B1(x) -> A2(x, x)")], OWNERSHIP)


def _committed_store(schema):
    store = VersionedDatabase(schema)
    return store


def test_firing_envelopes_for_inserted_lhs_match(schema):
    rules = ExchangeRules([parse_tgd("A2(x, y) -> exists z . B2(x, z)", name="m")], OWNERSHIP)
    store = _committed_store(schema)
    logged = store.apply_write(insert(make_tuple("A2", "v", "w")), priority=1)
    origin = RemoteOrigin("a", 7)
    payloads = envelopes_for_commit(
        rules, "a", [logged], store.view_for(1), NullFactory(prefix="af"), origin
    )
    assert len(payloads) == 1
    destination, payload = payloads[0]
    assert destination == "b"
    assert isinstance(payload, ExchangeFiring)
    assert payload.origin == origin
    (head,) = payload.head_rows
    assert head.relation == "B2"
    assert str(head[0]) == "v"
    assert head[1].is_null  # the existential became a source-fresh null
    # Duplicate LHS matches within one commit are deduplicated by assignment.
    logged2 = store.apply_write(insert(make_tuple("A2", "v", "u")), priority=1)
    payloads = envelopes_for_commit(
        rules, "a", [logged, logged2], store.view_for(1), NullFactory(prefix="af"), origin
    )
    assert len(payloads) == 1  # same exported assignment {x: v}


def test_retraction_envelope_only_when_last_rhs_match_lost(schema):
    rules = ExchangeRules([parse_tgd("A1(x) -> B1(x)", name="m")], OWNERSHIP)
    store = _committed_store(schema)
    store.apply_write(insert(make_tuple("B1", "v")), priority=0)
    removed = store.apply_write(delete(make_tuple("B1", "v")), priority=1)
    payloads = envelopes_for_commit(
        rules, "b", [removed], store.view_for(1), NullFactory(prefix="bf"), RemoteOrigin("b", 1)
    )
    assert len(payloads) == 1
    destination, payload = payloads[0]
    assert destination == "a"
    assert isinstance(payload, ExchangeRetraction)
    assert payload.assignment() and str(list(payload.assignment().values())[0]) == "v"


def test_no_retraction_when_another_match_survives(schema):
    # Two B2 tuples witness the same exported assignment; deleting one keeps
    # the mapping satisfied, so no retraction must be emitted.
    rules = ExchangeRules([parse_tgd("A1(x) -> exists z . B2(x, z)", name="m")], OWNERSHIP)
    store = _committed_store(schema)
    store.apply_write(insert(make_tuple("B2", "v", "w1")), priority=0)
    store.apply_write(insert(make_tuple("B2", "v", "w2")), priority=0)
    removed = store.apply_write(delete(make_tuple("B2", "v", "w1")), priority=1)
    payloads = envelopes_for_commit(
        rules, "b", [removed], store.view_for(1), NullFactory(prefix="bf"), RemoteOrigin("b", 1)
    )
    assert payloads == []


def test_remote_firing_operation_absorbs_when_satisfied(schema):
    from repro.storage.memory import MemoryDatabase

    tgd = parse_tgd("A1(x) -> exists z . B2(x, z)", name="m")
    from repro.core.terms import Variable

    head = make_tuple("B2", "v", NullFactory(prefix="n").fresh())
    operation = RemoteFiringOperation(tgd, {Variable("x"): head[0]}, [head])
    view = MemoryDatabase(schema)
    # Unsatisfied: the head row is inserted.
    writes = operation.initial_writes(view)
    assert [write.row for write in writes] == [head]
    # Satisfied by any other RHS match: absorbed, no writes.
    view.insert(make_tuple("B2", "v", "existing"))
    assert operation.initial_writes(view) == []


def test_remote_retraction_deletes_first_witness_per_match(schema):
    from repro.core.terms import Variable
    from repro.storage.memory import MemoryDatabase

    tgd = parse_tgd("A2(x, y) -> B1(x)", name="m")
    view = MemoryDatabase(schema)
    view.insert(make_tuple("A2", "v", "w1"))
    view.insert(make_tuple("A2", "v", "w2"))
    operation = RemoteRetractionOperation(tgd, {Variable("x"): make_tuple("B1", "v")[0]})
    writes = operation.initial_writes(view)
    # Each violating LHS match loses its first witness tuple; both matches
    # here are single-atom, so both rows go.
    assert sorted(str(write.row) for write in writes) == ["A2(v, w1)", "A2(v, w2)"]
    # Nothing to do when no LHS match exists.
    empty = RemoteRetractionOperation(tgd, {Variable("x"): make_tuple("B1", "zzz")[0]})
    assert empty.initial_writes(view) == []
