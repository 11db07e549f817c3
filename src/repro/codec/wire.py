"""The structured wire codec: versioned, self-describing, ``pickle``-free.

Everything is encoded into plain JSON-able structures (dicts, lists, strings,
numbers) with a ``"t"`` type tag per node, then serialized deterministically
(sorted keys, compact separators) behind a versioned header::

    {"v": 2, "k": "<payload kind>", "b": <body>}

Decoding rejects unknown versions and unknown tags loudly — a peer speaking a
future dialect fails fast instead of silently misreading bytes.  Round-trip
identity holds for every supported object: ``decode(encode(x)) == x`` under
the value equality the core types define (tgd equality ignores names, which
the codec nevertheless preserves).

Because chase results are unique only up to the renaming of labeled nulls,
the codec also provides :func:`payloads_equivalent` — structural equality of
two payloads after canonicalizing null names in first-occurrence order — for
differential tests that compare independently minted envelopes.

Version 2 sends only what the receiver lacks.  Terms are compact (constants
are bare JSON scalars, labeled nulls ``{"n": name}``, variables
``{"x": name}``) and tuples are ``[relation, value...]`` lists.  A mapping
travels **by name** when the caller passes the federation's *mappings* table
(``name -> Tgd``, the one :class:`~repro.federation.exchange.ExchangeRules`
builds on both ends from the same mapping list) and the tgd is in it;
otherwise — no table, as for config files and checkpoints, or an unlisted
tgd — the inline dict is emitted.  The field is self-describing (a string
is a name, a dict is a body), so decoders accept either; a name missing from
the decoder's table is a :class:`CodecError`.

Layering note: every name the codec uses is a plain module global, bound
once per process; no codec call runs import machinery.  The types of the
layers above ``core``'s leaves are bound late, by :mod:`repro.codec.late`
(see the declarations below), and :func:`dumps` reuses one prebuilt encoder.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Mapping, Optional

from ..core.atoms import Atom
from ..core.schema import DatabaseSchema, RelationSchema
from ..core.terms import Constant, LabeledNull, Variable
from ..core.tgd import Tgd
from ..core.tuples import Tuple
from ..core.writes import Write, WriteKind
from ..obs.trace import SpanContext, prebuilt_encoder

# Bound by :mod:`repro.codec.late`, which the package root imports last.  This
# module is first imported while ``repro.core`` is still initialising (core ->
# storage -> durable log -> this package), and every type below comes from a
# module that imports the storage package or this codec, so none of them can
# be imported here.
FrontierTuple: type
PositiveFrontierRequest: type
NegativeFrontierRequest: type
ExpandOperation: type
UnifyOperation: type
DeleteSubsetOperation: type
InsertOperation: type
DeleteOperation: type
NullReplacementOperation: type
Violation: type
ViolationKind: type
RemoteFiringOperation: type
RemoteRetractionOperation: type
RemoteOrigin: type
RemoteUpdate: type
ExchangeFiring: type
ExchangeRetraction: type
QuestionOpened: type
QuestionCancelled: type
QuestionAnswer: type
Bundle: type

#: The codec dialect this build speaks.  Bump on any incompatible change.
WIRE_VERSION = 2

#: Constant payload types the wire codec can carry losslessly.
_SCALAR_TYPES = (str, int, float, bool, type(None))
_SCALAR_CLASSES = frozenset(_SCALAR_TYPES)


#: A federation's mapping table (``name -> Tgd``); ``None`` encodes inline.
Mappings = Optional[Mapping[str, Tgd]]


class CodecError(ValueError):
    """Raised for unencodable objects, malformed bytes or unknown versions."""


# ----------------------------------------------------------------------
# Terms, tuples, atoms, mappings
# ----------------------------------------------------------------------
def _check_scalar(value: object) -> object:
    if not isinstance(value, _SCALAR_TYPES):
        raise CodecError(
            "constant payload {!r} is not wire-encodable (need one of {})".format(
                value, ", ".join(t.__name__ for t in _SCALAR_TYPES)
            )
        )
    return value


def encode_term(term: object) -> Any:
    """Encode a :class:`Constant` (bare scalar), :class:`LabeledNull` or :class:`Variable`."""
    if isinstance(term, Constant):
        return _check_scalar(term.value)
    if isinstance(term, LabeledNull):
        return {"n": term.name}
    if isinstance(term, Variable):
        return {"x": term.name}
    raise CodecError("not a term: {!r}".format(term))


def decode_term(body: Any) -> object:
    if isinstance(body, _SCALAR_TYPES):
        return Constant(body)
    if isinstance(body, dict) and len(body) == 1:
        if "n" in body:
            return LabeledNull(body["n"])
        if "x" in body:
            return Variable(body["x"])
    raise CodecError("unknown term {!r}".format(body))


def _relation_and_terms(body: Any, what: str) -> List[Any]:
    if not isinstance(body, list) or not body or not isinstance(body[0], str):
        raise CodecError("malformed {} {!r}".format(what, body))
    return body


def encode_tuple(row: Tuple) -> List[Any]:
    """Encode a data tuple as ``[relation, value...]``."""
    body: List[Any] = [row.relation]
    for value in row.values:
        # Exact classes first (base snapshots encode every stored row);
        # anything else, subclasses included, goes through encode_term.
        kind = type(value)
        if kind is Constant and type(value.value) in _SCALAR_CLASSES:
            body.append(value.value)
        elif kind is LabeledNull:
            body.append({"n": value.name})
        else:
            body.append(encode_term(value))
    return body


def decode_tuple(body: List[Any]) -> Tuple:
    body = _relation_and_terms(body, "tuple")
    return Tuple(body[0], [decode_term(value) for value in body[1:]])


def encode_atom(atom: Atom) -> List[Any]:
    return [atom.relation] + [encode_term(term) for term in atom.terms]


def decode_atom(body: List[Any]) -> Atom:
    body = _relation_and_terms(body, "atom")
    return Atom(body[0], [decode_term(term) for term in body[1:]])


def encode_tgd(tgd: Tgd) -> Dict[str, Any]:
    """The inline (self-contained) form of a mapping."""
    return {
        "n": tgd.name,
        "l": [encode_atom(atom) for atom in tgd.lhs],
        "h": [encode_atom(atom) for atom in tgd.rhs],
    }


def decode_tgd(body: Dict[str, Any]) -> Tgd:
    return Tgd(
        [decode_atom(atom) for atom in body["l"]],
        [decode_atom(atom) for atom in body["h"]],
        name=body["n"],
    )


def _encode_tgd_ref(tgd: Tgd, mappings: Mappings) -> Any:
    """*tgd* by name when *mappings* lists it, inline otherwise."""
    if mappings is not None:
        known = mappings.get(tgd.name)
        if known is tgd or known == tgd:
            return tgd.name
    return encode_tgd(tgd)


def _decode_tgd_ref(body: Any, mappings: Mappings) -> Tgd:
    if isinstance(body, str):
        tgd = mappings.get(body) if mappings is not None else None
        if tgd is None:
            raise CodecError(
                "mapping {!r} travels by name but is not in the receiver's "
                "mapping table".format(body)
            )
        return tgd
    return decode_tgd(body)


def _encode_assignment(items) -> List[List[Any]]:
    """A variable assignment as ``[name, value]`` pairs ordered by name."""
    return sorted([variable.name, encode_term(value)] for variable, value in items)


def _decode_assignment_items(body) -> frozenset:
    return frozenset((Variable(name), decode_term(value)) for name, value in body)


# ----------------------------------------------------------------------
# Writes
# ----------------------------------------------------------------------
def encode_write(write: Write) -> Dict[str, Any]:
    body: Dict[str, Any] = {"k": write.kind.value, "row": encode_tuple(write.row)}
    if write.old_row is not None:
        body["old"] = encode_tuple(write.old_row)
    if write.null is not None:
        body["null"] = encode_term(write.null)
    if write.replacement is not None:
        body["rep"] = encode_term(write.replacement)
    return body


def decode_write(body: Dict[str, Any]) -> Write:
    return Write(
        kind=WriteKind(body["k"]),
        row=decode_tuple(body["row"]),
        old_row=decode_tuple(body["old"]) if "old" in body else None,
        null=decode_term(body["null"]) if "null" in body else None,
        replacement=decode_term(body["rep"]) if "rep" in body else None,
    )


# ----------------------------------------------------------------------
# Violations and frontier structures
# ----------------------------------------------------------------------
def encode_violation(violation, mappings: Mappings = None) -> Dict[str, Any]:
    return {
        "tgd": _encode_tgd_ref(violation.tgd, mappings),
        "b": _encode_assignment(violation.bindings),
        "w": [encode_tuple(row) for row in violation.witness],
        "k": violation.kind.value,
    }


def decode_violation(body: Dict[str, Any], mappings: Mappings = None):
    return Violation(
        tgd=_decode_tgd_ref(body["tgd"], mappings),
        bindings=_decode_assignment_items(body["b"]),
        witness=tuple(decode_tuple(row) for row in body["w"]),
        kind=ViolationKind(body["k"]),
    )


def encode_frontier_tuple(
    frontier, mappings: Mappings = None, within=None
) -> Dict[str, Any]:
    """Encode a frontier tuple; its violation is omitted when it is *within*.

    Every frontier tuple of a positive request carries the request's own
    violation, which the request body already holds once.
    """
    body = {
        "row": encode_tuple(frontier.row),
        "cand": [encode_tuple(row) for row in frontier.candidates],
        "fresh": [
            encode_term(null)
            for null in sorted(frontier.fresh_nulls, key=lambda n: n.name)
        ],
    }
    if frontier.violation != within:
        body["vio"] = encode_violation(frontier.violation, mappings)
    return body


def decode_frontier_tuple(body: Dict[str, Any], mappings: Mappings = None, within=None):
    if "vio" in body:
        within = decode_violation(body["vio"], mappings)
    elif within is None:
        raise CodecError("frontier tuple without a violation")
    return FrontierTuple(
        row=decode_tuple(body["row"]),
        violation=within,
        candidates=tuple(decode_tuple(row) for row in body["cand"]),
        fresh_nulls=frozenset(decode_term(null) for null in body["fresh"]),
    )


def encode_frontier_request(request, mappings: Mappings = None) -> Dict[str, Any]:
    if isinstance(request, PositiveFrontierRequest):
        return {
            "t": "pos",
            "vio": encode_violation(request.violation, mappings),
            "fts": [
                encode_frontier_tuple(ft, mappings, within=request.violation)
                for ft in request.frontier_tuples
            ],
        }
    if isinstance(request, NegativeFrontierRequest):
        return {
            "t": "neg",
            "vio": encode_violation(request.violation, mappings),
            "cand": [encode_tuple(row) for row in request.candidates],
        }
    raise CodecError("not a frontier request: {!r}".format(request))


def decode_frontier_request(body: Dict[str, Any], mappings: Mappings = None):
    tag = body.get("t")
    if tag == "pos":
        violation = decode_violation(body["vio"], mappings)
        return PositiveFrontierRequest(
            violation=violation,
            frontier_tuples=tuple(
                decode_frontier_tuple(ft, mappings, within=violation)
                for ft in body["fts"]
            ),
        )
    if tag == "neg":
        return NegativeFrontierRequest(
            violation=decode_violation(body["vio"], mappings),
            candidates=tuple(decode_tuple(row) for row in body["cand"]),
        )
    raise CodecError("unknown frontier request tag {!r}".format(tag))


def encode_frontier_operation(operation, mappings: Mappings = None) -> Dict[str, Any]:
    if isinstance(operation, ExpandOperation):
        return {
            "t": "expand",
            "ft": encode_frontier_tuple(operation.frontier_tuple, mappings),
        }
    if isinstance(operation, UnifyOperation):
        return {
            "t": "unify",
            "ft": encode_frontier_tuple(operation.frontier_tuple, mappings),
            "with": encode_tuple(operation.target),
        }
    if isinstance(operation, DeleteSubsetOperation):
        return {"t": "del", "rows": [encode_tuple(row) for row in operation.rows]}
    raise CodecError("not a frontier operation: {!r}".format(operation))


def decode_frontier_operation(body: Dict[str, Any], mappings: Mappings = None):
    tag = body.get("t")
    if tag == "expand":
        return ExpandOperation(decode_frontier_tuple(body["ft"], mappings))
    if tag == "unify":
        return UnifyOperation(
            decode_frontier_tuple(body["ft"], mappings), decode_tuple(body["with"])
        )
    if tag == "del":
        return DeleteSubsetOperation(
            tuple(decode_tuple(row) for row in body["rows"])
        )
    raise CodecError("unknown frontier operation tag {!r}".format(tag))


# ----------------------------------------------------------------------
# User operations (local and federation-synthesized)
# ----------------------------------------------------------------------
def encode_user_operation(operation, mappings: Mappings = None) -> Dict[str, Any]:
    """Encode any :class:`~repro.core.update.UserOperation` the system produces."""
    if isinstance(operation, InsertOperation):
        return {"t": "ins", "row": encode_tuple(operation.row)}
    if isinstance(operation, DeleteOperation):
        return {"t": "rm", "row": encode_tuple(operation.row)}
    if isinstance(operation, NullReplacementOperation):
        return {
            "t": "repl",
            "null": encode_term(operation.null),
            "val": encode_term(operation.value),
        }
    if isinstance(operation, RemoteFiringOperation):
        return {
            "t": "fire",
            "tgd": _encode_tgd_ref(operation.tgd, mappings),
            "a": _encode_assignment(operation.assignment.items()),
            "rows": [encode_tuple(row) for row in operation.head_rows],
        }
    if isinstance(operation, RemoteRetractionOperation):
        return {
            "t": "retract",
            "tgd": _encode_tgd_ref(operation.tgd, mappings),
            "a": _encode_assignment(operation.assignment.items()),
        }
    raise CodecError("not a wire-encodable user operation: {!r}".format(operation))


def decode_user_operation(body: Dict[str, Any], mappings: Mappings = None):
    tag = body.get("t")
    if tag == "ins":
        return InsertOperation(decode_tuple(body["row"]))
    if tag == "rm":
        return DeleteOperation(decode_tuple(body["row"]))
    if tag == "repl":
        return NullReplacementOperation(
            decode_term(body["null"]), decode_term(body["val"])
        )
    if tag == "fire":
        return RemoteFiringOperation(
            _decode_tgd_ref(body["tgd"], mappings),
            dict(_decode_assignment_items(body["a"])),
            tuple(decode_tuple(row) for row in body["rows"]),
        )
    if tag == "retract":
        return RemoteRetractionOperation(
            _decode_tgd_ref(body["tgd"], mappings),
            dict(_decode_assignment_items(body["a"])),
        )
    raise CodecError("unknown user operation tag {!r}".format(tag))


# ----------------------------------------------------------------------
# Schemas (for snapshots and checkpoints)
# ----------------------------------------------------------------------
def encode_schema(schema: DatabaseSchema) -> List[List[Any]]:
    """Encode a database schema, preserving relation declaration order."""
    return [
        [relation.name, list(relation.attributes)] for relation in schema
    ]


def decode_schema(body: List[List[Any]]) -> DatabaseSchema:
    return DatabaseSchema.from_relations(
        RelationSchema(name, attributes) for name, attributes in body
    )


# ----------------------------------------------------------------------
# Service-side values
# ----------------------------------------------------------------------
def _encode_origin(origin) -> Dict[str, Any]:
    return {"peer": origin.peer, "ticket": origin.ticket_id}


def _decode_origin(body: Dict[str, Any]):
    return RemoteOrigin(peer=body["peer"], ticket_id=body["ticket"])


def _encode_choice(choice, mappings: Mappings = None) -> Dict[str, Any]:
    """An answer: an index into the request's alternatives, or the operation.

    Answerers send the index whenever the chosen operation is one of the
    listed alternatives (``QuestionOpened.by_index``) — the executing peer
    still holds the request parked, so echoing its tuples back is waste.
    """
    if isinstance(choice, int):
        return {"t": "index", "i": choice}
    return {"t": "op", "op": encode_frontier_operation(choice, mappings)}


def _decode_choice(body: Dict[str, Any], mappings: Mappings = None):
    tag = body.get("t")
    if tag == "index":
        return body["i"]
    if tag == "op":
        return decode_frontier_operation(body["op"], mappings)
    raise CodecError("unknown answer-choice tag {!r}".format(tag))


# ----------------------------------------------------------------------
# Federation payloads
# ----------------------------------------------------------------------
def payload_kind(payload: object) -> str:
    """The wire kind string of *payload* (used in the envelope header)."""
    if isinstance(payload, RemoteUpdate):
        return "remote-update"
    if isinstance(payload, ExchangeFiring):
        return "firing"
    if isinstance(payload, ExchangeRetraction):
        return "retraction"
    if isinstance(payload, QuestionOpened):
        return "question-opened"
    if isinstance(payload, QuestionCancelled):
        return "question-cancelled"
    if isinstance(payload, QuestionAnswer):
        return "question-answer"
    if isinstance(payload, Bundle):
        return "bundle"
    if isinstance(payload, _SCALAR_TYPES):
        return "raw"
    raise CodecError("not a wire-encodable payload: {!r}".format(payload))


def encode_payload(payload: object, mappings: Mappings = None) -> Dict[str, Any]:
    """Encode any transport payload into its JSON-able wire body.

    When the payload carries a trace context (tracing enabled at the sender)
    an optional ``"tr"`` field is added — same :data:`WIRE_VERSION`, absent
    whenever tracing is off, so golden bytes are unchanged and pre-tracing
    decoders are never confronted with it unless tracing actually ran.
    """
    body = _encode_payload_body(payload, mappings)
    trace = encode_trace(getattr(payload, "trace", None))
    if trace is not None:
        body["tr"] = trace
    return body


def decode_payload(body: Dict[str, Any], mappings: Mappings = None) -> object:
    """Decode a wire body; a ``"tr"`` field restores the trace context."""
    payload = _decode_payload_body(body, mappings)
    trace = decode_trace(body.get("tr"))
    if trace is not None and hasattr(payload, "trace"):
        payload = dataclasses.replace(payload, trace=trace)
    return payload


def encode_trace(context: Optional[SpanContext]) -> Optional[Dict[str, str]]:
    """A trace context as its ``"tr"`` wire field (``None`` stays ``None``).

    The same shape rides in payload bodies and in the process federation's
    control frames.
    """
    if context is None:
        return None
    return {"si": context.span_id, "ti": context.trace_id}


def decode_trace(body: Optional[Dict[str, str]]) -> Optional[SpanContext]:
    """The inverse of :func:`encode_trace`."""
    if body is None:
        return None
    return SpanContext(trace_id=body["ti"], span_id=body["si"])


def _encode_payload_body(payload: object, mappings: Mappings) -> Dict[str, Any]:
    if isinstance(payload, RemoteUpdate):
        return {
            "t": "remote-update",
            "op": encode_user_operation(payload.operation, mappings),
            "o": _encode_origin(payload.origin),
        }
    if isinstance(payload, ExchangeFiring):
        return {
            "t": "firing",
            "tgd": _encode_tgd_ref(payload.tgd, mappings),
            "a": _encode_assignment(payload.assignment_items),
            "rows": [encode_tuple(row) for row in payload.head_rows],
            "o": _encode_origin(payload.origin),
        }
    if isinstance(payload, ExchangeRetraction):
        return {
            "t": "retraction",
            "tgd": _encode_tgd_ref(payload.tgd, mappings),
            "a": _encode_assignment(payload.assignment_items),
            "row": encode_tuple(payload.removed_row),
            "o": _encode_origin(payload.origin),
        }
    if isinstance(payload, QuestionOpened):
        return {
            "t": "question-opened",
            "peer": payload.executing_peer,
            "id": payload.decision_id,
            "req": encode_frontier_request(payload.request, mappings),
            "o": _encode_origin(payload.origin),
            "desc": payload.ticket_description,
        }
    if isinstance(payload, QuestionCancelled):
        return {
            "t": "question-cancelled",
            "peer": payload.executing_peer,
            "id": payload.decision_id,
            "o": _encode_origin(payload.origin),
        }
    if isinstance(payload, QuestionAnswer):
        return {
            "t": "question-answer",
            "peer": payload.executing_peer,
            "id": payload.decision_id,
            "c": _encode_choice(payload.choice, mappings),
            "by": payload.answered_by,
        }
    if isinstance(payload, Bundle):
        return {
            "t": "bundle",
            "ps": [encode_payload(inner, mappings) for inner in payload.payloads],
        }
    if isinstance(payload, _SCALAR_TYPES):
        # Plain scalars pass through (handy for transport-level tests and
        # diagnostics); everything else must be a declared envelope type.
        return {"t": "raw", "v": payload}
    raise CodecError("not a wire-encodable payload: {!r}".format(payload))


def _decode_payload_body(body: Dict[str, Any], mappings: Mappings) -> object:
    tag = body.get("t")
    if tag == "remote-update":
        return RemoteUpdate(
            operation=decode_user_operation(body["op"], mappings),
            origin=_decode_origin(body["o"]),
        )
    if tag == "firing":
        return ExchangeFiring(
            tgd=_decode_tgd_ref(body["tgd"], mappings),
            assignment_items=_decode_assignment_items(body["a"]),
            head_rows=tuple(decode_tuple(row) for row in body["rows"]),
            origin=_decode_origin(body["o"]),
        )
    if tag == "retraction":
        return ExchangeRetraction(
            tgd=_decode_tgd_ref(body["tgd"], mappings),
            assignment_items=_decode_assignment_items(body["a"]),
            removed_row=decode_tuple(body["row"]),
            origin=_decode_origin(body["o"]),
        )
    if tag == "question-opened":
        return QuestionOpened(
            executing_peer=body["peer"],
            decision_id=body["id"],
            request=decode_frontier_request(body["req"], mappings),
            origin=_decode_origin(body["o"]),
            ticket_description=body["desc"],
        )
    if tag == "question-cancelled":
        return QuestionCancelled(
            executing_peer=body["peer"],
            decision_id=body["id"],
            origin=_decode_origin(body["o"]),
        )
    if tag == "question-answer":
        return QuestionAnswer(
            executing_peer=body["peer"],
            decision_id=body["id"],
            choice=_decode_choice(body["c"], mappings),
            answered_by=body["by"],
        )
    if tag == "bundle":
        return Bundle(
            tuple(decode_payload(inner, mappings) for inner in body["ps"])
        )
    if tag == "raw":
        return body["v"]
    raise CodecError("unknown payload tag {!r}".format(tag))


# ----------------------------------------------------------------------
# The byte layer
# ----------------------------------------------------------------------
#: The codec's dialect, its encoder built once.
_encode = prebuilt_encoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def dumps(structure: object) -> bytes:
    """Serialize a JSON-able structure deterministically (the codec's dialect)."""
    return _encode(structure).encode("utf-8")


def loads(data: bytes) -> object:
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CodecError("malformed wire bytes: {}".format(error)) from None


def encode_envelope(payload: object, mappings: Mappings = None) -> bytes:
    """Encode a transport payload into self-describing, versioned bytes."""
    return dumps({
        "v": WIRE_VERSION,
        "k": payload_kind(payload),
        "b": encode_payload(payload, mappings),
    })


def decode_envelope(data: bytes, mappings: Mappings = None) -> object:
    """Decode wire bytes; unknown versions and kinds are a :class:`CodecError`."""
    structure = loads(data)
    if not isinstance(structure, dict) or "v" not in structure:
        raise CodecError("wire bytes lack the versioned envelope header")
    version = structure["v"]
    if version != WIRE_VERSION:
        raise CodecError(
            "unsupported wire version {!r} (this build speaks {})".format(
                version, WIRE_VERSION
            )
        )
    return decode_payload(structure["b"], mappings)


# ----------------------------------------------------------------------
# Null-renaming-aware equality
# ----------------------------------------------------------------------
def _canonicalize_nulls(node: object, renaming: Dict[str, str]) -> object:
    """Rewrite every encoded labeled null to its first-occurrence-order name.

    Traversal is deterministic: lists in order, dict keys sorted — the same
    order :func:`dumps` serializes, so two payloads that differ only in null
    names canonicalize to identical structures.  An encoded null is the only
    one-key dict keyed ``"n"`` (inline tgds carry ``"l"`` and ``"h"`` too).
    """
    if isinstance(node, dict):
        if len(node) == 1 and "n" in node:
            name = node["n"]
            if name not in renaming:
                renaming[name] = "_{}".format(len(renaming))
            return {"n": renaming[name]}
        return {
            key: _canonicalize_nulls(node[key], renaming)
            for key in sorted(node)
            # Trace contexts are observability metadata, not payload content:
            # two runs of the same workload get different span ids, and
            # equivalence must not depend on whether either run was traced.
            if key != "tr"
        }
    if isinstance(node, list):
        return [_canonicalize_nulls(item, renaming) for item in node]
    return node


def payloads_equivalent(a: object, b: object) -> bool:
    """Structural equality of two payloads up to labeled-null renaming.

    The renaming must be *consistent* (a bijection on null names), which the
    first-occurrence canonicalization gives for free: if the two payloads use
    their nulls in the same positions, the canonical forms coincide; any
    inconsistent reuse makes them differ.
    """
    canonical_a = _canonicalize_nulls(encode_payload(a), {})
    canonical_b = _canonicalize_nulls(encode_payload(b), {})
    return canonical_a == canonical_b
