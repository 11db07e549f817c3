"""Randomized codec property suite: round-trip identity for every wire shape.

Seeded generators produce every payload shape the federation can put on the
transport — terms (labeled nulls included), tuples, writes, mappings,
violations, frontier questions with candidates and fresh nulls, user
operations (federation-synthesized ones included), question routing, commit
notices, and coalesced bundles — and every one must satisfy
``decode(encode(x)) == x`` under the core types' value equality.  The suite
also pins the failure behavior: unknown wire versions, unknown tags and
malformed bytes must raise :class:`~repro.codec.CodecError`, never decode to
something wrong.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.codec import (
    CodecError,
    WIRE_VERSION,
    decode_envelope,
    encode_envelope,
    payload_kind,
    payloads_equivalent,
)
from repro.codec.wire import (
    decode_frontier_operation,
    decode_frontier_request,
    decode_schema,
    decode_user_operation,
    decode_write,
    dumps,
    encode_frontier_operation,
    encode_frontier_request,
    encode_schema,
    encode_term,
    encode_tuple,
    encode_user_operation,
    encode_write,
)
from repro.core.atoms import Atom
from repro.core.frontier import (
    DeleteSubsetOperation,
    ExpandOperation,
    FrontierTuple,
    NegativeFrontierRequest,
    PositiveFrontierRequest,
    UnifyOperation,
)
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull, Variable
from repro.core.tgd import Tgd
from repro.core.tuples import Tuple
from repro.core.update import (
    DeleteOperation,
    InsertOperation,
    NullReplacementOperation,
)
from repro.core.violations import Violation, ViolationKind
from repro.core.writes import Write, WriteKind, delete, insert, modify
from repro.federation.envelopes import (
    ExchangeFiring,
    ExchangeRetraction,
    QuestionAnswer,
    QuestionCancelled,
    QuestionOpened,
    RemoteUpdate,
    freeze_assignment,
)
from repro.federation.operations import (
    RemoteFiringOperation,
    RemoteRetractionOperation,
)
from repro.federation.transport import Bundle
from repro.service.tickets import RemoteOrigin


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------
class Gen:
    """A compact generator of every wire shape, driven by one seeded RNG."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def constant(self):
        kind = self.rng.randrange(4)
        if kind == 0:
            return Constant("c{}".format(self.rng.randrange(40)))
        if kind == 1:
            return Constant(self.rng.randrange(-1000, 1000))
        if kind == 2:
            return Constant(self.rng.choice([True, False]))
        return Constant("unicode-é中{}".format(self.rng.randrange(9)))

    def null(self):
        return LabeledNull("x{}".format(self.rng.randrange(30)))

    def data_term(self):
        return self.null() if self.rng.random() < 0.4 else self.constant()

    def row(self, relation=None, arity=None):
        relation = relation or "R{}".format(self.rng.randrange(5))
        arity = arity or self.rng.randint(1, 4)
        return Tuple(relation, [self.data_term() for _ in range(arity)])

    def atom(self, relation=None, arity=None):
        relation = relation or "R{}".format(self.rng.randrange(5))
        arity = arity or self.rng.randint(1, 3)
        terms = []
        for _ in range(arity):
            if self.rng.random() < 0.6:
                terms.append(Variable("v{}".format(self.rng.randrange(8))))
            else:
                terms.append(self.constant())
        return Atom(relation, terms)

    def tgd(self):
        lhs = [self.atom() for _ in range(self.rng.randint(1, 2))]
        # Guarantee a shared variable so generated tgds look like real ones.
        shared = Variable("v0")
        rhs = [
            Atom(
                "H{}".format(self.rng.randrange(3)),
                [shared, Variable("z{}".format(self.rng.randrange(4)))],
            )
        ]
        if not any(shared in atom.variable_set() for atom in lhs):
            lhs[0] = Atom(lhs[0].relation, (shared,) + lhs[0].terms[1:])
        return Tgd(lhs, rhs, name="sigma{}".format(self.rng.randrange(9)))

    def write(self):
        kind = self.rng.randrange(3)
        if kind == 0:
            return insert(self.row())
        if kind == 1:
            return delete(self.row())
        null = self.null()
        replacement = self.constant()
        old = Tuple("R0", [null, self.constant()])
        return modify(old, old.substitute({null: replacement}), null, replacement)

    def origin(self):
        return RemoteOrigin(
            peer="p{}".format(self.rng.randrange(5)),
            ticket_id=self.rng.randrange(1, 200),
        )

    def assignment_items(self, tgd):
        frontier = sorted(tgd.frontier_variables(), key=lambda v: v.name)
        return freeze_assignment(
            {variable: self.data_term() for variable in frontier}
        )

    def violation(self):
        tgd = self.tgd()
        return Violation(
            tgd=tgd,
            bindings=freeze_assignment(
                {variable: self.data_term() for variable in tgd.lhs_variables()}
            ),
            witness=tuple(self.row() for _ in range(self.rng.randint(1, 2))),
            kind=self.rng.choice([ViolationKind.LHS, ViolationKind.RHS]),
        )

    def frontier_tuple(self):
        fresh = frozenset(self.null() for _ in range(self.rng.randint(0, 2)))
        values = list(fresh) + [self.data_term()]
        row = Tuple("F{}".format(self.rng.randrange(3)), values)
        return FrontierTuple(
            row=row,
            violation=self.violation(),
            candidates=tuple(
                self.row(relation=row.relation, arity=row.arity)
                for _ in range(self.rng.randint(0, 2))
            ),
            fresh_nulls=fresh,
        )

    def frontier_request(self):
        if self.rng.random() < 0.5:
            return PositiveFrontierRequest(
                violation=self.violation(),
                frontier_tuples=tuple(
                    self.frontier_tuple() for _ in range(self.rng.randint(1, 2))
                ),
            )
        return NegativeFrontierRequest(
            violation=self.violation(),
            candidates=tuple(self.row() for _ in range(self.rng.randint(1, 3))),
        )

    def frontier_operation(self):
        kind = self.rng.randrange(3)
        if kind == 0:
            return ExpandOperation(self.frontier_tuple())
        if kind == 1:
            frontier = self.frontier_tuple()
            return UnifyOperation(frontier, self.row(
                relation=frontier.row.relation, arity=frontier.row.arity
            ))
        return DeleteSubsetOperation(
            tuple(self.row() for _ in range(self.rng.randint(1, 2)))
        )

    def user_operation(self):
        kind = self.rng.randrange(5)
        if kind == 0:
            return InsertOperation(self.row())
        if kind == 1:
            return DeleteOperation(self.row())
        if kind == 2:
            return NullReplacementOperation(self.null(), self.constant())
        tgd = self.tgd()
        assignment = dict(self.assignment_items(tgd))
        if kind == 3:
            return RemoteFiringOperation(
                tgd, assignment,
                tuple(self.row() for _ in range(self.rng.randint(1, 2))),
            )
        return RemoteRetractionOperation(tgd, assignment)

    def payload(self, allow_bundle=True):
        kind = self.rng.randrange(7 if allow_bundle else 6)
        if kind == 0:
            return RemoteUpdate(operation=self.user_operation(), origin=self.origin())
        if kind == 1:
            tgd = self.tgd()
            return ExchangeFiring(
                tgd=tgd,
                assignment_items=self.assignment_items(tgd),
                head_rows=tuple(self.row() for _ in range(self.rng.randint(1, 2))),
                origin=self.origin(),
            )
        if kind == 2:
            tgd = self.tgd()
            return ExchangeRetraction(
                tgd=tgd,
                assignment_items=self.assignment_items(tgd),
                removed_row=self.row(),
                origin=self.origin(),
            )
        if kind == 3:
            return QuestionOpened(
                executing_peer="p{}".format(self.rng.randrange(4)),
                decision_id=self.rng.randrange(1, 99),
                request=self.frontier_request(),
                origin=self.origin(),
                ticket_description="ticket #{}".format(self.rng.randrange(50)),
            )
        if kind == 4:
            return QuestionCancelled(
                executing_peer="p1",
                decision_id=self.rng.randrange(1, 99),
                origin=self.origin(),
            )
        if kind == 5:
            choice = (
                self.rng.randrange(5)
                if self.rng.random() < 0.5
                else self.frontier_operation()
            )
            return QuestionAnswer(
                executing_peer="p2",
                decision_id=self.rng.randrange(1, 99),
                choice=choice,
                answered_by="p0",
            )
        # A coalesced bundle: several payloads travelling as one envelope.
        return Bundle(
            tuple(
                self.payload(allow_bundle=False)
                for _ in range(self.rng.randint(2, 4))
            )
        )


# ----------------------------------------------------------------------
# Round-trip identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_random_payload_round_trip(seed):
    gen = Gen(seed)
    for _ in range(40):
        payload = gen.payload()
        data = encode_envelope(payload)
        assert isinstance(data, bytes)
        decoded = decode_envelope(data)
        assert decoded == payload
        assert payloads_equivalent(decoded, payload)
        # Determinism: encoding the decoded copy reproduces the exact bytes.
        assert encode_envelope(decoded) == data


@pytest.mark.parametrize("seed", range(6))
def test_random_structure_round_trips(seed):
    gen = Gen(seed)
    for _ in range(60):
        write = gen.write()
        assert decode_write(encode_write(write)) == write
        request = gen.frontier_request()
        assert decode_frontier_request(encode_frontier_request(request)) == request
        operation = gen.frontier_operation()
        assert (
            decode_frontier_operation(encode_frontier_operation(operation))
            == operation
        )
        user_operation = gen.user_operation()
        assert (
            decode_user_operation(encode_user_operation(user_operation))
            == user_operation
        )


def test_schema_round_trip_preserves_declaration_order():
    schema = DatabaseSchema.from_dict(
        {"B": ["x", "y"], "A": ["a1"], "C": ["u", "v", "w"]}
    )
    decoded = decode_schema(encode_schema(schema))
    assert decoded.relation_names() == schema.relation_names()
    for name in schema.relation_names():
        assert decoded.relation(name).attributes == schema.relation(name).attributes


def test_integer_constants_survive_the_wire():
    # The flat SQL row codec is lossy on ints; the wire codec must not be.
    payload = RemoteUpdate(
        operation=InsertOperation(Tuple("R", [Constant(42), Constant("42")])),
        origin=RemoteOrigin("p0", 1),
    )
    decoded = decode_envelope(encode_envelope(payload))
    values = decoded.operation.row.values
    assert values[0] == Constant(42) and values[1] == Constant("42")
    assert values[0] != values[1]


# ----------------------------------------------------------------------
# Mappings by name (wire v2)
# ----------------------------------------------------------------------
def _payloads_and_table(seed, count=40):
    """Random payloads plus a table of the first mapping seen under each name.

    The generator reuses nine names for different bodies, so the table lists
    some of a payload's mappings and clashes by name with others — exactly
    the mix the self-describing field exists for.
    """
    gen = Gen(seed)
    table = {}
    generate = gen.tgd

    def remembering():
        tgd = generate()
        table.setdefault(tgd.name, tgd)
        return tgd

    gen.tgd = remembering
    return [gen.payload() for _ in range(count)], table


@pytest.mark.parametrize("seed", range(8))
def test_random_payload_round_trip_with_a_mapping_table(seed):
    payloads, table = _payloads_and_table(seed)
    for payload in payloads:
        data = encode_envelope(payload, table)
        assert decode_envelope(data, table) == payload
        # Never longer than inline, and still decodable by a receiver whose
        # table is a superset.
        assert len(data) <= len(encode_envelope(payload))
        superset = dict(table, extra=next(iter(table.values())))
        assert decode_envelope(data, superset) == payload


def _firing(tgd):
    return ExchangeFiring(
        tgd=tgd,
        assignment_items=freeze_assignment({Variable("v0"): Constant("c")}),
        head_rows=(Tuple("H0", [Constant("c"), LabeledNull("m1")]),),
        origin=RemoteOrigin("p0", 1),
    )


def test_listed_mapping_travels_by_name_and_resolves_to_the_table_object():
    tgd = Gen(0).tgd()
    table = {tgd.name: tgd}
    body = json.loads(encode_envelope(_firing(tgd), table))["b"]
    assert body["tgd"] == tgd.name
    assert decode_envelope(encode_envelope(_firing(tgd), table), table).tgd is tgd


def test_mapping_not_in_the_table_travels_inline():
    gen = Gen(1)
    listed, other = gen.tgd(), gen.tgd()
    assert listed != other
    # Same name, different body: the name would resolve to the wrong mapping.
    clash = Tgd(other.lhs, other.rhs, name=listed.name)
    for tgd in (other, clash):
        data = encode_envelope(_firing(tgd), {listed.name: listed})
        assert isinstance(json.loads(data)["b"]["tgd"], dict)
        # Inline is self-contained: any receiver decodes it, table or not.
        assert decode_envelope(data).tgd == tgd
        assert decode_envelope(data, {listed.name: listed}).tgd == tgd


def test_unknown_mapping_name_is_rejected():
    tgd = Gen(2).tgd()
    data = encode_envelope(_firing(tgd), {tgd.name: tgd})
    with pytest.raises(CodecError, match="not in the receiver's mapping table"):
        decode_envelope(data)
    with pytest.raises(CodecError, match="not in the receiver's mapping table"):
        decode_envelope(data, {"another": tgd})


def test_frontier_tuples_omit_the_violation_their_request_carries():
    gen = Gen(3)
    violation = gen.violation()
    shared = FrontierTuple(
        row=gen.row(), violation=violation, candidates=(gen.row(),),
    )
    foreign = gen.frontier_tuple()
    request = PositiveFrontierRequest(
        violation=violation, frontier_tuples=(shared, foreign)
    )
    body = encode_frontier_request(request)
    assert "vio" not in body["fts"][0]
    assert "vio" in body["fts"][1]
    assert decode_frontier_request(body) == request


# ----------------------------------------------------------------------
# Null-renaming-aware equality
# ----------------------------------------------------------------------
def _firing_with_nulls(names):
    tgd = Tgd([Atom("A", [Variable("x")])], [Atom("B", [Variable("x"), Variable("z")])])
    return ExchangeFiring(
        tgd=tgd,
        assignment_items=freeze_assignment({Variable("x"): Constant("c")}),
        head_rows=(
            Tuple("B", [Constant("c"), LabeledNull(names[0])]),
            Tuple("B", [LabeledNull(names[1]), LabeledNull(names[0])]),
        ),
        origin=RemoteOrigin("p0", 7),
    )


def test_equivalence_up_to_consistent_null_renaming():
    a = _firing_with_nulls(["n1", "n2"])
    b = _firing_with_nulls(["fresh9", "other3"])
    assert a != b
    assert payloads_equivalent(a, b)


def test_inconsistent_null_renaming_is_not_equivalent():
    a = _firing_with_nulls(["n1", "n2"])  # positions: n1, n2, n1
    c = ExchangeFiring(
        tgd=a.tgd,
        assignment_items=a.assignment_items,
        head_rows=(
            Tuple("B", [Constant("c"), LabeledNull("m1")]),
            Tuple("B", [LabeledNull("m2"), LabeledNull("m3")]),  # m3 != m1
        ),
        origin=a.origin,
    )
    assert not payloads_equivalent(a, c)


# ----------------------------------------------------------------------
# Failure behavior
# ----------------------------------------------------------------------
def test_unknown_wire_version_is_rejected():
    good = encode_envelope(QuestionCancelled("p1", 5, RemoteOrigin("p0", 1)))
    structure = json.loads(good.decode("utf-8"))
    structure["v"] = WIRE_VERSION + 1
    with pytest.raises(CodecError, match="unsupported wire version"):
        decode_envelope(dumps(structure))


def test_missing_header_is_rejected():
    with pytest.raises(CodecError):
        decode_envelope(dumps({"k": "firing", "b": {}}))
    with pytest.raises(CodecError):
        decode_envelope(dumps(["not", "an", "envelope"]))


def test_malformed_bytes_are_rejected():
    with pytest.raises(CodecError):
        decode_envelope(b"\xff\xfe not json")
    with pytest.raises(CodecError):
        decode_envelope(dumps({"v": WIRE_VERSION, "b": {"t": "no-such-payload"}}))


def test_encode_tuple_encodes_each_value_as_encode_term_does():
    """The exact-class fast path and the general path write the same body."""

    class Tagged(Constant):
        pass

    row = Tuple("R", [
        Constant("a"), Constant(7), Constant(2.5), Constant(True), Constant(None),
        LabeledNull("n1"), Tagged("b"),
    ])
    assert encode_tuple(row) == ["R"] + [encode_term(value) for value in row.values]
    with pytest.raises(CodecError, match="not wire-encodable"):
        encode_tuple(Tuple("R", [Constant((1, 2))]))


def test_unencodable_payload_is_rejected():
    class Mystery:
        pass

    with pytest.raises(CodecError):
        encode_envelope(Mystery())
    with pytest.raises(CodecError):
        payload_kind(Mystery())


# ----------------------------------------------------------------------
# Optional trace context (observability layer)
# ----------------------------------------------------------------------
def test_traced_payloads_round_trip():
    """``trace`` rides the wire as an optional ``tr`` field on every kind.

    Equality intentionally ignores the trace (``compare=False`` keeps golden
    comparisons and coalescing dedup independent of tracing), so the context
    itself is asserted explicitly.
    """
    import dataclasses

    from repro.obs.trace import SpanContext

    context = SpanContext(trace_id="t7", span_id="s42")
    for seed in range(4):
        gen = Gen(seed)
        for _ in range(25):
            payload = gen.payload()
            traced = dataclasses.replace(payload, trace=context)
            data = encode_envelope(traced)
            assert b'"tr"' in data
            decoded = decode_envelope(data)
            assert decoded == payload  # equality ignores the trace...
            assert decoded.trace == context  # ...but the context survives
            assert encode_envelope(decoded) == data


def test_traced_bundle_members_keep_their_contexts():
    import dataclasses

    from repro.obs.trace import SpanContext

    gen = Gen(3)
    members = []
    for index in range(3):
        context = SpanContext(trace_id="t{}".format(index), span_id="s{}".format(index))
        members.append(dataclasses.replace(gen.payload(), trace=context))
    bundle = Bundle(payloads=tuple(members), trace=members[0].trace)
    decoded = decode_envelope(encode_envelope(bundle))
    assert decoded.trace == bundle.trace
    for original, restored in zip(members, decoded.payloads):
        assert restored == original
        assert restored.trace == original.trace


def test_untraced_bytes_are_byte_identical_to_pre_trace_format():
    """With tracing off the wire format is unchanged: no ``tr`` key at all."""
    for seed in range(4):
        gen = Gen(seed)
        for _ in range(25):
            payload = gen.payload()
            assert payload.trace is None
            data = encode_envelope(payload)
            assert b'"tr"' not in data


def test_trace_is_ignored_by_equality_and_equivalence():
    import dataclasses

    from repro.obs.trace import SpanContext

    gen = Gen(5)
    payload = gen.payload()
    traced = dataclasses.replace(
        payload, trace=SpanContext(trace_id="t1", span_id="s1")
    )
    assert traced == payload
    assert hash(traced) == hash(payload)
    assert payloads_equivalent(traced, payload)
