"""The benchmark's one command.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` is the
driver's contract: one workload, and as the last line of standard output one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``) of
``BENCHMARK.json``.  Without ``--workload`` (``PYTHONPATH=src python -m
bench.run --seed 0``) all five workloads run, every metric is printed by name
with its unit and sample count, and the result file lands in ``bench/out/``.

End-to-end metrics always come from a run with nothing added to the program.
``--trace 1`` is a second, separate run that splits its time over equal
passes — plain, bench/trace.py shims, the program's own tracer (plus, where a
ratio needs it, a pass of the sibling configuration) — so every overhead and
every cross-configuration ratio compares like with like.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_BENCH_DIR)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("bench/run.py: the program under test (src/repro) is not in this checkout")
if not __package__:
    # Run as a script: sys.path[0] is bench/, where trace.py would shadow the
    # standard library's module of that name.
    sys.path[0] = ROOT
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import workloads as wl  # noqa: E402
from bench.loadgen import CLIENTS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
DEFAULT_OUT = os.path.join(_BENCH_DIR, "out")

#: Recorder span name -> per-layer metric (seconds of self time).
_SELF_TIME_METRICS = (
    "core.chase", "query.violation", "concurrency.tracker",
    "concurrency.validate_commit", "concurrency.scheduler", "storage.apply",
    "storage.load_initial", "storage.compact", "storage.segment_append",
    "workload.input", "service.submit",
    "service.pump", "service.answer", "codec.encode", "codec.decode",
    "federation.transport_pump", "federation.network",
    "federation.coord_submit", "federation.coord_poll_wait",
)


def end_to_end_metrics(run: wl.Pass) -> Dict[str, float]:
    return {
        "setup_s": run.setup_s,
        "ops_per_s": run.extra["ops_per_s"],
        "turnaround_p50_ms": run.extra["turnaround_p50_ms"],
        "peak_rss_mb": run.setup_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _paired_speed(run: wl.Pass, base: wl.Pass) -> float:
    """How fast *run* is relative to *base* on the inputs both completed.

    Passes replay the same streams, so the first N completions of each are
    the same work; comparing the time to reach the N both reached keeps a
    heavy operation that only one pass got to out of the ratio.
    """
    shared = min(len(run.loop.finished_at), len(base.loop.finished_at))
    return _ratio(base.loop.seconds_for(shared), run.loop.seconds_for(shared))


def per_layer_metrics(passes: Dict[str, wl.Pass]) -> Dict[str, float]:
    """Every per-layer metric (0.0 where a layer is not on the workload)."""
    plain = passes["plain"]
    loop, counters, extra = plain.loop, plain.counters, plain.extra
    completed = loop.completed
    count = counters.get
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        # Demoted end-to-end metrics: exact, defined on one workload only, or
        # too noisy on this box to gate on (the tail percentiles).
        "failed_share": loop.failed_share(),
        "turnaround_p95_ms": extra["turnaround_p95_ms"],
        "turnaround_p99_ms": extra["turnaround_p99_ms"],
        "aborts_per_op": extra.get("aborts_per_op", _ratio(count("aborts", 0), completed)),
        "recovery_s": extra.get("recovery_s", 0.0),
        "disk_bytes_per_user_byte": extra.get("disk_bytes_per_user_byte", 0.0),
        "core.chase_steps": count("steps", 0),
        "core.violations_end": count("violations_end", 0),
        "core.frontier_questions": float(loop.questions),
        "core.frontier_wait_p95_ms": 1e3 * count("frontier_wait_p95_s", 0),
        "query.sql_evaluations": count("sql_evaluations", 0),
        "query.sql_python_fallbacks": count("sql_python_fallbacks", 0),
        "concurrency.tracker_cost_units": count("tracker_cost_units", 0),
        "concurrency.aborts": count("aborts", 0),
        "concurrency.cascading_aborts": count("cascading_aborts", 0),
        "concurrency.commits_per_execution": _ratio(count("committed", 0), count("executed", 0)),
        "concurrency.group_commit_members_per_commit": _ratio(
            count("group_commit_members", 0), count("group_commits", 0)
        ),
        "concurrency.committed_per_s": count("committed", 0) / loop.wall,
        "storage.compactions": count("compactions", 0),
        "storage.log_entries_end": count("log_entries_end", 0),
        "storage.versions_end": count("versions_end", 0),
        "service.queue_wait_p50_ms": 1e3 * count("queue_wait_p50_s", 0),
        "service.queue_wait_p95_ms": 1e3 * count("queue_wait_p95_s", 0),
        "service.parks": count("parks", 0),
        "service.restarts": count("restarts", 0),
        "service.rate_decay": extra["service.rate_decay"],
        "codec.frames_per_op": _ratio(count("frames", 0), completed),
        "codec.payloads_per_frame": _ratio(count("payloads", 0), count("frames", 0)),
        "codec.wire_bytes_per_op": _ratio(count("wire_bytes", 0), completed),
        "federation.spawn_s": plain.spawn_s,
        "federation.coord_cpu_s": plain.coord_cpu_s,
        "federation.peer_cpu_s": plain.peer_cpu_s,
        "federation.peer_cpu_share": plain.peer_cpu_s
        / (loop.wall * min(CLIENTS, os.cpu_count() or 1)),
        "federation.deliveries_deferred": count("deliveries_deferred", 0),
        "federation.answers_dropped": count("answers_dropped", 0),
        "federation.envelopes_coalesced": count("envelopes_coalesced", 0),
        "federation.drain_s": loop.end - loop.loop_end,
        "federation.drain_rounds": count("drain_rounds", 0),
        "federation.time_to_idle_s": count("time_to_idle_s", 0),
        "workload.gen_s": plain.gen_s,
        "workload.littles_law_error": extra.get("workload.littles_law_error", 0.0),
        "workload.ops": float(completed),
        "workload.peak_rss_run_mb": wl.peak_rss_run_mb(),
    })
    for name in ("storage.checkpoint_s", "storage.checkpoint_bytes", "storage.restore_rows_per_s"):
        metrics[name] = extra.get(name, 0.0)

    shimmed = passes.get("shims", plain)
    recorder = shimmed.recorder
    if recorder is not None:
        for name in _SELF_TIME_METRICS:
            metrics[name + "_s"] = recorder.self_seconds.get(name, 0.0)
        metrics["query.violation_calls"] = float(recorder.calls.get("query.violation", 0))
        metrics["workload.traced_wall_s"] = shimmed.loop.wall
        metrics["workload.traced_ops"] = float(shimmed.loop.completed)
        metrics["workload.unattributed_share"] = (
            recorder.self_seconds.get("workload.loop", 0.0) / shimmed.loop.wall
        )
        if shimmed is not plain:
            metrics["obs.shim_overhead_share"] = 1.0 - _paired_speed(shimmed, plain)

    traced = passes.get("tracer")
    if traced is not None and traced.phases is not None:
        for phase, seconds in traced.phases.items():
            metrics["obs.phase.{}_s".format(phase)] = seconds
        # The whole the phases should add up to: the turnaround of every user
        # operation.  What the program's spans do not cover is the residual.
        metrics["obs.phase.residual_share"] = 1.0 - _ratio(
            sum(traced.phases.values()), sum(traced.loop.latencies)
        )
        metrics["obs.spans_per_op"] = _ratio(traced.spans, traced.loop.completed)
        metrics["obs.trace_overhead_share"] = 1.0 - _paired_speed(traced, plain)
        if not metrics["codec.wire_bytes_per_op"]:
            metrics["codec.wire_bytes_per_op"] = _ratio(
                traced.wire_bytes, traced.loop.completed
            )
    if "memory" in passes:
        metrics["storage.durable_vs_memory"] = _paired_speed(plain, passes["memory"])
    if "inproc" in passes:
        metrics["federation.sock_vs_inproc"] = _paired_speed(plain, passes["inproc"])
    return metrics


def traced_passes(name: str, seed: int, seconds: float, workdir: str) -> Dict[str, wl.Pass]:
    """The passes of one ``--trace 1`` run, each ``seconds / len(plan)`` long."""
    workload = wl.WORKLOADS[name]
    if name.startswith("sock_"):
        # The peers are other processes: the coordinator-side shims (a
        # handful of calls per operation) ride on the plain pass.
        plan = [("plain", workload, "shims"), ("tracer", workload, "tracer")]
    else:
        plan = [
            ("plain", workload, "plain"),
            ("shims", workload, "shims"),
            ("tracer", workload, "tracer"),
        ]
    if name == "sock_mixed":
        plan.append(("inproc", wl.WORKLOADS["inproc_mixed"], "plain"))
    if name == "repo_durable":
        memory = wl.RepoDurable()
        memory.durable = False
        plan.append(("memory", memory, "plain"))
    share = seconds / len(plan)
    return {
        label: target.run_pass(
            seed, share, os.path.join(workdir, label), mode=mode, check=label == "plain",
        )
        for label, target, mode in plan
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, out_dir: str,
    keep_spans: bool = False,
) -> Dict:
    """Run one workload; returns its result record (see bench/README.md)."""
    workdir = os.path.relpath(os.path.join(out_dir, "work-{}".format(os.getpid())))
    os.makedirs(workdir, exist_ok=True)
    workload = wl.WORKLOADS[name]
    try:
        if traced:
            passes = traced_passes(name, seed, seconds, workdir)
            values = per_layer_metrics(passes)
            units = PER_LAYER
            recorder = passes.get("shims", passes["plain"]).recorder
            if keep_spans and recorder is not None:
                recorder.write_jsonl(os.path.join(out_dir, "trace-{}.jsonl".format(name)))
        else:
            passes = {
                # An episode is at least a second long: short (smoke) runs
                # fold into fewer of them.
                "plain": workload.run_pass(
                    seed, seconds, workdir,
                    episodes=max(1, min(workload.episodes, int(seconds))),
                )
            }
            values = end_to_end_metrics(passes["plain"])
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != set(units):
        raise SystemExit(
            "metrics computed and metrics in BENCHMARK.json differ: {}".format(
                sorted(set(values) ^ set(units))
            )
        )
    plain = passes["plain"]
    checks: Dict[str, bool] = {}  # one line per check, however many episodes ran it
    for run in passes.values():
        for label, passed in run.checks:
            checks[label] = checks.get(label, True) and passed
    return {
        "workload": name,
        "traced": traced,
        "sizes": workload.sizes(),
        "correct": all(checks.values()),
        "checks": [{"check": label, "passed": passed} for label, passed in checks.items()],
        "attempted": sum(run.loop.attempted for run in passes.values()),
        "failed": sum(run.loop.failed for run in passes.values()),
        "errors": [run.loop.error for run in passes.values() if run.loop.error],
        "notes": [note for run in passes.values() for note in run.notes],
        "samples": len(plain.loop.latencies),
        "metrics": {
            metric: {"value": values[metric], "unit": units[metric]}
            for metric in units
        },
    }


def print_record(record: Dict) -> None:
    print("== {} ({}) — {} samples, {} attempted, {} failed".format(
        record["workload"], "traced" if record["traced"] else "untraced",
        record["samples"], record["attempted"], record["failed"],
    ))
    for name, metric in record["metrics"].items():
        print("  {:<46} {:>16.6g} {}".format(name, metric["value"], metric["unit"]))
    for check in record["checks"]:
        print("  check: {} — {}".format(check["check"], "ok" if check["passed"] else "FAILED"))
    for error in record["errors"]:
        print("  system error: {}".format(error))
    for note in record["notes"]:
        print("  note: {}".format(note))


def _record_path(out_dir: str, name: str, traced: int) -> str:
    return os.path.join(out_dir, "record-{}-{}.json".format(name, int(traced)))


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="directory for result, trace and work files")
    arguments = parser.parse_args(argv)
    # databases_equivalent recurses once per null-carrying fact.
    sys.setrecursionlimit(1_000_000)
    out_dir = arguments.out or DEFAULT_OUT
    os.makedirs(out_dir, exist_ok=True)

    if arguments.workload:
        record = run_workload(
            arguments.workload, arguments.seed, arguments.seconds,
            bool(arguments.trace), out_dir, keep_spans=arguments.out is not None,
        )
        with open(_record_path(out_dir, arguments.workload, arguments.trace), "w") as handle:
            json.dump(record, handle)
        print_record(record)
        print(json.dumps({
            "correct": record["correct"],
            "attempted": max(record["attempted"], 1),
            "failed": record["failed"],
            "metrics": record["metrics"],
        }))
        return 0 if record["correct"] else 1

    # The suite: every workload in a process of its own, exactly as the driver
    # runs it, so no workload inherits another's heap, caches or peak RSS.
    result = {
        "commit": _commit(),
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "claim": None,
        "workloads": {},
    }
    correct = True
    for name in (workload["name"] for workload in SPEC["workloads"]):
        entry = result["workloads"][name] = {}
        for traced in range(1 + arguments.trace):
            done = subprocess.run([
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
                "--trace", str(traced), "--out", out_dir,
            ], capture_output=True, text=True)
            # Everything but the driver's JSON line is the readable report.
            print("\n".join(done.stdout.splitlines()[:-1]))
            record_path = _record_path(out_dir, name, traced)
            if done.returncode not in (0, 1) or not os.path.exists(record_path):
                print(done.stderr, file=sys.stderr)
                raise SystemExit("{} did not finish".format(name))
            with open(record_path) as handle:
                record = json.load(handle)
            os.remove(record_path)
            correct = correct and record["correct"]
            entry["sizes"] = record.pop("sizes")
            entry["per_layer" if traced else "end_to_end"] = record
    path = os.path.join(out_dir, "result-seed{}-{}.json".format(
        arguments.seed, time.strftime("%Y%m%dT%H%M%S")
    ))
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print("result file: {}".format(os.path.relpath(path)))
    print("all correctness checks passed" if correct else "CORRECTNESS CHECK FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The scheduler iterates sets of strings: with hash randomisation on,
        # abort counts (and so timings) differ from process to process.  Pin
        # it, for this process and the peers it spawns, by starting over.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])
    sys.exit(main())
