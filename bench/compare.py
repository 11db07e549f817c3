"""Compare benchmark result files, metric by metric, against the bounds.

``python -m bench.compare A.json B.json``
    A is the base, B the candidate: one row per workload x end-to-end metric
    with both values, the ratio B/A, the bound from ``BENCHMARK.json`` and a
    verdict — ``worse`` when B is worse than A by more than the bound, else
    ``ok``.  Exits non-zero on any ``worse``.

``python -m bench.compare A1.json A2.json ... -- B1.json B2.json ...``
    The same on the medians of two sets of runs; a metric whose run-to-run
    spread (on either side) is wider than its bound is ``unresolved``, not
    ``ok``: the runs cannot tell a regression of that size from noise.

``python -m bench.compare A.json B.json C.json [more...]``  (no ``--``)
    Calibration: min / median / max and relative spread per metric over runs
    of the same code — the table the bounds were set from.

Spread is the distance between the first and third quartile over the median
(``statistics.quantiles(values, n=4)``) from four values up, and (max - min)
over the median below that.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: (workload, metric) -> values, one per result file.
Table = Dict[Tuple[str, str], List[float]]


def load_spec() -> Dict[str, Dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def load_table(paths: Sequence[str]) -> Table:
    table: Table = {}
    for path in paths:
        with open(path) as handle:
            result = json.load(handle)
        for workload, entry in result["workloads"].items():
            for metric, body in entry["end_to_end"]["metrics"].items():
                table.setdefault((workload, metric), []).append(body["value"])
    return table


def spread(values: Sequence[float]) -> Optional[float]:
    """Relative spread of *values* (``None`` for fewer than two)."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def verdict(
    base: Sequence[float], candidate: Sequence[float], metric: Dict
) -> Tuple[str, float]:
    """``(verdict, ratio)`` of the candidate's median against the base's."""
    before, after = statistics.median(base), statistics.median(candidate)
    ratio = after / before if before else float("inf")
    worsening = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    spreads = [value for value in (spread(base), spread(candidate)) if value is not None]
    if spreads and max(spreads) > metric["bound"]:
        return "unresolved", ratio
    return ("worse" if worsening > metric["bound"] else "ok"), ratio


def _format(value: Optional[float]) -> str:
    return "n/a" if value is None else "{:.3f}".format(value)


def print_comparison(base: Table, candidate: Table, spec: Dict[str, Dict]) -> int:
    print("{:<14}{:<20}{:>12}{:>12}{:>9}{:>7}{:>9}{:>9}  {}".format(
        "workload", "metric", "base", "candidate", "ratio", "bound",
        "spread A", "spread B", "verdict",
    ))
    worse = 0
    for key in sorted(base):
        if key not in candidate or key[1] not in spec:
            continue
        metric = spec[key[1]]
        outcome, ratio = verdict(base[key], candidate[key], metric)
        worse += outcome == "worse"
        print("{:<14}{:<20}{:>12.4f}{:>12.4f}{:>8.3f}x{:>7.2f}{:>9}{:>9}  {}".format(
            key[0], key[1], statistics.median(base[key]),
            statistics.median(candidate[key]), ratio, metric["bound"],
            _format(spread(base[key])), _format(spread(candidate[key])), outcome,
        ))
    print("ratio = candidate / base; '{}' rows: {}".format("worse", worse))
    return 1 if worse else 0


def print_calibration(table: Table, spec: Dict[str, Dict]) -> int:
    print("{:<14}{:<20}{:>5}{:>12}{:>12}{:>12}{:>9}{:>7}".format(
        "workload", "metric", "runs", "min", "median", "max", "spread", "bound",
    ))
    for key in sorted(table):
        values = table[key]
        print("{:<14}{:<20}{:>5}{:>12.4f}{:>12.4f}{:>12.4f}{:>9}{:>7}".format(
            key[0], key[1], len(values), min(values), statistics.median(values),
            max(values), _format(spread(values)),
            "{:.2f}".format(spec[key[1]]["bound"]) if key[1] in spec else "",
        ))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    spec = load_spec()
    if "--" in arguments:
        cut = arguments.index("--")
        base, candidate = arguments[:cut], arguments[cut + 1:]
    elif len(arguments) == 2:
        base, candidate = arguments[:1], arguments[1:]
    elif len(arguments) >= 3:
        return print_calibration(load_table(arguments), spec)
    else:
        base = candidate = []
    if not base or not candidate:
        print(__doc__)
        return 2
    return print_comparison(load_table(base), load_table(candidate), spec)


if __name__ == "__main__":
    sys.exit(main())
