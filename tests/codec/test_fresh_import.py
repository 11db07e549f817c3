"""The codec's late-bound names resolve whichever module a process imports first.

:mod:`repro.codec.wire` is first imported while ``repro.core`` is still
initialising, so the types of the layers above it are bound into it later,
once (:mod:`repro.codec.late`).  A binding that ran while that import cycle
was half-initialised would surface as an ``ImportError`` or ``NameError`` in
whatever process happened to import a different module first — a peer, a
restored service.  So each entry module gets a fresh interpreter that imports
it before anything else, then round-trips one payload of every wire kind (the
golden set plus the shapes it lacks: unify answers, null replacements,
remote retractions, a traced firing) and a logged write.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ENTRY_MODULES = (
    "repro.codec.wire",
    "repro.storage.durable",
    "repro.federation.proc",
    "repro.service",
)

SCRIPT = textwrap.dedent(
    """
    import {entry}

    import sys
    sys.path.insert(0, {codec_tests!r})

    from repro.codec import wire
    from repro.codec.wire import (
        decode_envelope, decode_write, encode_envelope, encode_write, loads, dumps,
    )
    from repro.core.frontier import UnifyOperation
    from repro.core.terms import Constant, LabeledNull, Variable
    from repro.core.tuples import Tuple
    from repro.core.update import NullReplacementOperation
    from repro.core.writes import insert
    from repro.federation.envelopes import (
        ExchangeFiring, QuestionAnswer, RemoteUpdate, freeze_assignment,
    )
    from repro.federation.operations import RemoteRetractionOperation
    from repro.obs.trace import SpanContext
    from test_golden import _FRONTIER, _ORIGIN, _TGD, golden_cases

    declared = getattr(wire, "__annotations__", {{}})
    unbound = [name for name in declared if not hasattr(wire, name)]
    assert not unbound, unbound

    cases = [(payload, mappings) for _, payload, mappings in golden_cases()]
    cases += [
        (RemoteUpdate(
            operation=NullReplacementOperation(LabeledNull("x1"), Constant(3)),
            origin=_ORIGIN,
        ), None),
        (RemoteUpdate(
            operation=RemoteRetractionOperation(_TGD, {{Variable("x"): Constant("c1")}}),
            origin=_ORIGIN,
        ), {{"sigma1": _TGD}}),
        (QuestionAnswer(
            executing_peer="p1",
            decision_id=5,
            choice=UnifyOperation(_FRONTIER, Tuple("B", [Constant("c1"), Constant("d")])),
            answered_by="p0",
        ), None),
        (ExchangeFiring(
            tgd=_TGD,
            assignment_items=freeze_assignment({{Variable("x"): Constant("c1")}}),
            head_rows=(Tuple("B", [Constant("c1"), LabeledNull("p0f1")]),),
            origin=_ORIGIN,
            trace=SpanContext(trace_id="t1", span_id="s2"),
        ), None),
    ]
    kinds = set()
    for payload, mappings in cases:
        data = encode_envelope(payload, mappings)
        kinds.add(loads(data)["k"])
        decoded = decode_envelope(data, mappings)
        assert decoded == payload, (payload, decoded)
        assert getattr(decoded, "trace", None) == getattr(payload, "trace", None)
    assert kinds == {{
        "remote-update", "firing", "retraction", "question-opened",
        "question-cancelled", "question-answer", "bundle", "raw",
    }}, kinds

    write = insert(Tuple("A", [Constant(1)]))
    assert decode_write(loads(dumps(encode_write(write)))) == write
    print("ok", len(cases))
    """
)


@pytest.mark.parametrize("entry", ENTRY_MODULES)
def test_entry_module_imported_first_round_trips_every_kind(entry):
    script = SCRIPT.format(
        entry=entry, codec_tests=os.path.join(ROOT, "tests", "codec")
    )
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), environment.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok ")
