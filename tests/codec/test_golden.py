"""Golden-bytes fixtures: the wire dialect is pinned, byte for byte.

``golden_envelopes.jsonl`` records the exact bytes the codec produced for a
fixed set of representative payloads at the time the format was frozen.  The
test re-encodes the same payloads and compares byte-for-byte, and decodes the
recorded bytes back to the expected objects — so *any* accidental change to
an encoder (a renamed key, a reordered member, a float formatting change)
fails loudly here instead of silently forking the wire dialect between
builds.  A deliberate format change must bump
:data:`~repro.codec.WIRE_VERSION` and regenerate the fixture:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/codec/test_golden.py

Every payload that mentions a mapping is pinned twice: inline (no mapping
table — what config files and checkpoints hold) and by name (encoded and
decoded against the table a federation builds from its mapping list).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.codec import decode_envelope, encode_envelope
from repro.core.atoms import Atom
from repro.core.frontier import (
    DeleteSubsetOperation,
    ExpandOperation,
    FrontierTuple,
    NegativeFrontierRequest,
    PositiveFrontierRequest,
)
from repro.core.terms import Constant, LabeledNull, Variable
from repro.core.tgd import Tgd
from repro.core.tuples import Tuple
from repro.core.update import DeleteOperation, InsertOperation, NullReplacementOperation
from repro.core.violations import Violation, ViolationKind
from repro.federation.envelopes import (
    ExchangeFiring,
    ExchangeRetraction,
    QuestionAnswer,
    QuestionCancelled,
    QuestionOpened,
    RemoteUpdate,
    freeze_assignment,
)
from repro.federation.operations import RemoteFiringOperation
from repro.federation.transport import Bundle
from repro.obs.trace import SpanContext
from repro.service.tickets import RemoteOrigin

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_envelopes.jsonl")

_TGD = Tgd(
    [Atom("A", [Variable("x"), Constant("k")])],
    [Atom("B", [Variable("x"), Variable("z")])],
    name="sigma1",
)
#: The mapping table of the ``*-by-name`` records.
_TABLE = {"sigma1": _TGD}
_ORIGIN = RemoteOrigin("p0", 11)
_VIOLATION = Violation(
    tgd=_TGD,
    bindings=freeze_assignment({Variable("x"): Constant("c1")}),
    witness=(Tuple("A", [Constant("c1"), Constant("k")]),),
    kind=ViolationKind.LHS,
)
_FRONTIER = FrontierTuple(
    row=Tuple("B", [Constant("c1"), LabeledNull("x3")]),
    violation=_VIOLATION,
    candidates=(Tuple("B", [Constant("c1"), Constant("nyc")]),),
    fresh_nulls=frozenset({LabeledNull("x3")}),
)


def golden_cases():
    """The fixed ``(name, payload, mapping table)`` set the fixture pins."""
    inline = golden_payloads()
    by_name = [
        (name + "-by-name", payload, _TABLE)
        for name, payload in inline
        if name in _MENTIONS_A_MAPPING
    ]
    return [(name, payload, None) for name, payload in inline] + by_name


_MENTIONS_A_MAPPING = {
    "firing", "retraction", "remote-firing-operation",
    "question-opened-positive", "question-opened-negative",
    "question-answer-expand", "bundle",
}


def golden_payloads():
    """The payloads themselves, in a stable order (also framed by test_framing)."""
    firing = ExchangeFiring(
        tgd=_TGD,
        assignment_items=freeze_assignment({Variable("x"): Constant("c1")}),
        head_rows=(Tuple("B", [Constant("c1"), LabeledNull("p0f1")]),),
        origin=_ORIGIN,
    )
    return [
        ("remote-update-insert", RemoteUpdate(
            operation=InsertOperation(Tuple("A", [Constant(7), Constant("k")])),
            origin=_ORIGIN,
        )),
        ("remote-update-delete", RemoteUpdate(
            operation=DeleteOperation(Tuple("A", [Constant("c9"), Constant("k")])),
            origin=RemoteOrigin("p2", 3),
        )),
        ("firing", firing),
        ("retraction", ExchangeRetraction(
            tgd=_TGD,
            assignment_items=freeze_assignment({Variable("x"): Constant("c1")}),
            removed_row=Tuple("B", [Constant("c1"), Constant("d")]),
            origin=_ORIGIN,
        )),
        ("remote-firing-operation", RemoteUpdate(
            operation=RemoteFiringOperation(
                _TGD,
                {Variable("x"): Constant("c1")},
                (Tuple("B", [Constant("c1"), LabeledNull("p1f4")]),),
            ),
            origin=_ORIGIN,
        )),
        ("question-opened-positive", QuestionOpened(
            executing_peer="p1",
            decision_id=5,
            request=PositiveFrontierRequest(
                violation=_VIOLATION, frontier_tuples=(_FRONTIER,)
            ),
            origin=_ORIGIN,
            ticket_description="ticket #11 [running]",
        )),
        ("question-opened-negative", QuestionOpened(
            executing_peer="p1",
            decision_id=6,
            request=NegativeFrontierRequest(
                violation=_VIOLATION,
                candidates=(
                    Tuple("A", [Constant("c1"), Constant("k")]),
                    Tuple("A", [Constant("c2"), Constant("k")]),
                ),
            ),
            origin=_ORIGIN,
            ticket_description="ticket #12 [running]",
        )),
        ("question-cancelled", QuestionCancelled(
            executing_peer="p1", decision_id=5, origin=_ORIGIN
        )),
        ("question-answer-index", QuestionAnswer(
            executing_peer="p1", decision_id=5, choice=0, answered_by="p0"
        )),
        ("question-answer-expand", QuestionAnswer(
            executing_peer="p1",
            decision_id=5,
            choice=ExpandOperation(_FRONTIER),
            answered_by="p0",
        )),
        ("question-answer-delete", QuestionAnswer(
            executing_peer="p1",
            decision_id=6,
            choice=DeleteSubsetOperation((Tuple("A", [Constant("c1"), Constant("k")]),)),
            answered_by="p0",
        )),
        ("remote-update-replace-null", RemoteUpdate(
            operation=NullReplacementOperation(LabeledNull("p1s2"), Constant("nyc")),
            origin=RemoteOrigin("p3", 8),
        )),
        # The optional trace field: absent above, pinned here.
        ("question-cancelled-traced", QuestionCancelled(
            executing_peer="p1",
            decision_id=6,
            origin=_ORIGIN,
            trace=SpanContext(trace_id="p0.t3", span_id="p0.s9"),
        )),
        ("bundle", Bundle((
            firing,
            QuestionCancelled(executing_peer="p1", decision_id=5, origin=_ORIGIN),
        ))),
        ("raw-scalar", "transport-smoke"),
    ]


def _load_fixture():
    records = {}
    with open(GOLDEN_PATH) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            records[record["name"]] = record["bytes"]
    return records


def test_fixture_exists_or_regenerate():
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1" or not os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, "w") as handle:
            for name, payload, mappings in golden_cases():
                handle.write(json.dumps({
                    "name": name,
                    "bytes": encode_envelope(payload, mappings).decode("ascii"),
                }) + "\n")
    assert os.path.exists(GOLDEN_PATH)


@pytest.mark.parametrize("name,payload,mappings", golden_cases())
def test_encoding_matches_golden_bytes(name, payload, mappings):
    recorded = _load_fixture()
    assert name in recorded, (
        "no golden record for {!r}; regenerate with REPRO_REGEN_GOLDEN=1".format(name)
    )
    assert encode_envelope(payload, mappings).decode("ascii") == recorded[name], (
        "wire bytes for {!r} changed; a deliberate format change must bump "
        "WIRE_VERSION and regenerate the fixture".format(name)
    )


@pytest.mark.parametrize("name,payload,mappings", golden_cases())
def test_golden_bytes_decode_to_expected_payloads(name, payload, mappings):
    recorded = _load_fixture()
    assert decode_envelope(recorded[name].encode("ascii"), mappings) == payload


def test_by_name_records_carry_no_mapping_body():
    recorded = _load_fixture()
    for name in _MENTIONS_A_MAPPING:
        assert '"tgd":"sigma1"' in recorded[name + "-by-name"]
        assert '"tgd":{' in recorded[name]
