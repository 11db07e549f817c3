"""Smoke test of the benchmark: every workload at a tiny size, names vs contract.

Collected by the tier-1 command.  Runs the real command line in a temp
directory, so what it checks is what the driver and a person at a shell get:
the workload and metric names are exactly those of ``BENCHMARK.json``, they
stay inside the contract's alphabet and limits, every workload's correctness
checks ran and passed, and the run left the work tree as it found it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _names(section: str):
    return [entry["name"] for entry in SPEC[section]]


def _git_status():
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def _run(*arguments: str) -> str:
    done = subprocess.run(
        [sys.executable, RUN, *arguments], cwd=ROOT, capture_output=True,
        text=True, timeout=120,
        # Already pinned: spares run.py its restart (it pins it otherwise).
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout


def _printed_metrics(output: str):
    """{workload header line: [metric names printed under it]}."""
    printed, current = {}, None
    for line in output.splitlines():
        if line.startswith("== "):
            current = printed.setdefault(line.split()[1], [])
        match = METRIC_LINE.match(line)
        if match and current is not None:
            current.append(match.group(1))
    return printed


def test_contract_limits():
    workloads, end_to_end, per_layer = (
        _names("workloads"), _names("end_to_end"), _names("per_layer")
    )
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16 and "setup_s" in end_to_end
    assert 1 <= len(per_layer) <= 128
    names = workloads + end_to_end + per_layer
    assert len(set(names)) == len(names), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_every_workload_runs_and_prints_the_contract_names(tmp_path):
    status_before = _git_status()
    out = str(tmp_path)

    # All five workloads, untraced, through the suite entry point.
    output = _run("--seed", "0", "--seconds", "0.2", "--out", out)
    printed = _printed_metrics(output)
    assert list(printed) == _names("workloads")
    for workload, metrics in printed.items():
        assert metrics == _names("end_to_end"), workload
    assert "all correctness checks passed" in output
    (result_file,) = [name for name in os.listdir(out) if name.startswith("result-")]
    with open(os.path.join(out, result_file)) as handle:
        result = json.load(handle)
    for key in ("commit", "seed", "nproc", "python", "workloads"):
        assert key in result
    assert result["claim"] is None
    assert list(result["workloads"]) == _names("workloads")
    for workload, entry in result["workloads"].items():
        record = entry["end_to_end"]
        assert entry["sizes"], workload
        assert record["checks"], "no correctness check ran on " + workload
        assert record["correct"] and not record["failed"], workload
        assert list(record["metrics"]) == _names("end_to_end")
        for metric in record["metrics"].values():
            assert metric["value"] > 0

    # The driver's form: one workload, traced, JSON object on the last line.
    output = _run(
        "--workload", "inproc_mixed", "--seed", "1", "--seconds", "0.45",
        "--trace", "1", "--out", out,
    )
    last = json.loads(output.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == _names("per_layer")
    units = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    for name, metric in last["metrics"].items():
        assert metric["unit"] == units[name]
    assert _printed_metrics(output)["inproc_mixed"] == _names("per_layer")
    assert os.path.exists(os.path.join(out, "trace-inproc_mixed.jsonl"))

    # Work directories are gone and the tree is as it was.
    assert not [name for name in os.listdir(out) if name.startswith("work-")]
    if status_before is not None:
        assert _git_status() == status_before
