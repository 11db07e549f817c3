"""Compare a fresh BENCH_scaling.json against the committed one.

Used by the non-blocking ``benchmarks`` CI job: after regenerating the
measurements it annotates the run with GitHub ``::warning`` lines when a
tracked throughput metric fell below ``THRESHOLD`` times its committed
value.  Purely advisory — benches on shared runners are noisy, so a warning
is a prompt to look, not a failure.

Usage: ``python compare_bench.py <recorded.json> <fresh.json>``
"""

from __future__ import annotations

import json
import sys

#: A fresh value below ``THRESHOLD * recorded`` is flagged.
THRESHOLD = 0.8

#: ``(label, path)`` pairs compared between the two files; a path is a key
#: sequence into the JSON document.  Higher is better for all of them.
TRACKED = (
    ("tracker_speedup", ("tracker_speedup",)),
    ("federation.committed_per_second", ("federation", "committed_per_second")),
    (
        "federation_open_loop.committed_per_second",
        ("federation_open_loop", "committed_per_second"),
    ),
    (
        "federation_sockets.committed_per_second",
        ("federation_sockets", "committed_per_second"),
    ),
    (
        "federation_sockets.payloads_per_frame",
        ("federation_sockets", "payloads_per_frame"),
    ),
    ("telemetry_overhead.on_vs_off", ("telemetry_overhead", "on_vs_off")),
)


def _lookup(document, path):
    value = document
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value if isinstance(value, (int, float)) else None


def main(argv):
    if len(argv) != 3:
        print("usage: compare_bench.py <recorded.json> <fresh.json>")
        return 2
    try:
        with open(argv[1]) as handle:
            recorded = json.load(handle)
        with open(argv[2]) as handle:
            fresh = json.load(handle)
    except (OSError, ValueError) as error:
        print("::warning::benchmark comparison skipped: {}".format(error))
        return 0
    regressions = 0
    for label, path in TRACKED:
        old = _lookup(recorded, path)
        new = _lookup(fresh, path)
        if old is None or new is None or old <= 0:
            print("{}: no comparable recording (old={}, new={})".format(label, old, new))
            continue
        ratio = new / old
        line = "{}: recorded {:.2f} -> fresh {:.2f} ({:.2f}x)".format(
            label, old, new, ratio
        )
        if ratio < THRESHOLD:
            regressions += 1
            print(
                "::warning title=Benchmark regression::{} — below the "
                "{:.0%} threshold".format(line, THRESHOLD)
            )
        else:
            print(line)
    print(
        "{} tracked metric(s) regressed below {:.0%}".format(regressions, THRESHOLD)
        if regressions
        else "no tracked benchmark metric regressed below {:.0%}".format(THRESHOLD)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
