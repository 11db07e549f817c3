"""The prebuilt JSON encoders write exactly what the stdlib encoder writes.

:func:`repro.codec.wire.dumps` (the wire and durable dialect) and
:data:`repro.obs.trace.encode_record` (the JSONL record dialect) each reuse
one C encoder built at import, without the stdlib's circularity check.  The
bytes must not change: the golden envelopes pin the wire dialect, and these
tests compare both encoders with a fresh ``json.JSONEncoder(...).encode`` on
the golden corpus and on generated values.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.wire import dumps
from repro.obs.trace import encode_record

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_envelopes.jsonl")


def _stdlib_wire(value):
    return json.JSONEncoder(
        sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode(value).encode("utf-8")


def _stdlib_record(value):
    return json.JSONEncoder(sort_keys=True).encode(value)


def _golden_structures():
    with open(GOLDEN_PATH) as handle:
        return [json.loads(json.loads(line)["bytes"]) for line in handle if line.strip()]


def test_the_golden_corpus_encodes_as_the_stdlib_does():
    structures = _golden_structures()
    assert structures
    for structure in structures:
        assert dumps(structure) == _stdlib_wire(structure)
        assert encode_record(structure) == _stdlib_record(structure)


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e308, 5e-324])
    | st.text()
    | st.sampled_from(["é", "☃", "\U0001f600", "\x00\x1f\x7f", "\"\\/\n\t", "\ud800"])
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_generated_values_encode_as_the_stdlib_does(value):
    assert dumps(value) == _stdlib_wire(value)
    assert encode_record(value) == _stdlib_record(value)


@pytest.mark.parametrize("value", [object(), {"k": [1, {2, 3}]}, [b"bytes"]])
def test_an_unencodable_object_still_raises_type_error(value):
    with pytest.raises(TypeError):
        dumps(value)
    with pytest.raises(TypeError):
        encode_record(value)
