"""repro-top table shape tests (the --once machine-readable contract)."""

from __future__ import annotations

import json

from repro.obs import top
from repro.obs.timeline import TelemetryTimeline


def _write_spool(path):
    records = [
        {"rec": "meta", "interval": 0.25, "stalled_after": 1.5,
         "dead_after": 2.0, "peers": ["a", "b"], "wall": 100.0},
        {"rec": "telemetry", "peer": "a", "kind": "telemetry", "wall": 100.1,
         "body": {"t": "telemetry", "seq": 1, "committed": 4, "outbox": 1,
                  "retry": 0, "open_questions": 2,
                  "sent": {"b": 7}, "received": {"b": 5},
                  "links": {"b": {"queued": 1}},
                  "metrics": {"committed": 4}}},
        {"rec": "liveness", "peer": "b", "state": "dead",
         "reason": "eof(exit=-9)", "age": 1.0, "wall": 100.5},
    ]
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def test_render_table_is_tsv_with_the_pinned_columns(tmp_path):
    spool = str(tmp_path / "telemetry.jsonl")
    _write_spool(spool)
    timeline = TelemetryTimeline.from_spool(spool)
    lines = top.render_table(timeline, now=100.2)
    assert lines[0] == "\t".join(top.COLUMNS)
    assert len(lines) == 3  # header + one row per peer
    rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
    assert set(rows) == {"a", "b"}
    for row in rows.values():
        assert len(row) == len(top.COLUMNS)
    a = dict(zip(top.COLUMNS, rows["a"]))
    assert a["state"] == "live"
    assert a["committed"] == "4"
    assert a["parked"] == "2"
    assert a["queue"] == "1"  # outbox + retry
    assert a["sent"] == "7"
    assert a["recv"] == "5"
    b = dict(zip(top.COLUMNS, rows["b"]))
    assert b["state"] == "dead"
    assert b["committed"] == "0"  # never heard from: zeros, not blanks


def test_main_once_prints_the_table(tmp_path, capsys):
    spool = str(tmp_path / "telemetry.jsonl")
    _write_spool(spool)
    assert top.main(["--once", spool]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "\t".join(top.COLUMNS)
    assert len(out) == 3


def test_main_once_accepts_a_workdir(tmp_path, capsys):
    _write_spool(str(tmp_path / "telemetry.jsonl"))
    assert top.main(["--once", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("\t".join(top.COLUMNS))


def test_main_once_missing_spool_fails_cleanly(tmp_path, capsys):
    assert top.main(["--once", str(tmp_path / "nope.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "no telemetry spool" in err
