"""Shared machinery for the benchmark suite.

Each figure of the paper's evaluation is regenerated by one benchmark module.
Building the synthetic environment and running every (mapping count ×
algorithm) cell is the expensive part, so it is done once per workload in a
session-scoped fixture; the individual panel benchmarks then extract and print
their series from the cached result.

The benchmark scale is controlled by the ``REPRO_BENCH_SCALE`` environment
variable: ``tiny`` (CI smoke), ``small`` (default, a few minutes per figure)
or ``paper`` (the full configuration of Section 6 — very slow in pure Python).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.workload import (
    ExperimentConfig,
    INSERT_WORKLOAD,
    MIXED_WORKLOAD,
    build_environment,
    run_workload_experiment,
)
from repro.workload.metrics import mean


def bench_config() -> ExperimentConfig:
    """The experiment configuration used by the benchmark suite."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale == "paper":
        return ExperimentConfig.paper_scale()
    if scale == "tiny":
        return ExperimentConfig.tiny_scale()
    # Three runs per cell keep the default benchmark suite to a few minutes
    # while smoothing single-run noise; EXPERIMENTS.md records the outputs.
    return ExperimentConfig.small_scale().scaled(runs_per_cell=3)


@pytest.fixture(scope="session")
def experiment_config():
    return bench_config()


@pytest.fixture(scope="session")
def environment(experiment_config):
    return build_environment(experiment_config)


@pytest.fixture(scope="session")
def figure3_result(experiment_config, environment):
    """All cells of Figure 3 (the all-insert workload)."""
    return run_workload_experiment(INSERT_WORKLOAD, experiment_config, environment)


@pytest.fixture(scope="session")
def figure4_result(experiment_config, environment):
    """All cells of Figure 4 (the mixed 80/20 workload)."""
    return run_workload_experiment(MIXED_WORKLOAD, experiment_config, environment)


#: The recorded measurements (``.github/compare_bench.py`` reads them).
RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_scaling.json",
)


def record_entries(entries) -> None:
    """Merge *entries* into ``BENCH_scaling.json`` when asked to record.

    Only with ``REPRO_BENCH_RECORD=1``: the tier-1 command collects these
    benches too and must leave the tree as it found it.  Keys recorded by
    other benches survive the merge.
    """
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    recorded = {}
    if os.path.exists(RESULT_PATH):
        try:
            with open(RESULT_PATH) as handle:
                recorded = json.load(handle)
        except ValueError:
            recorded = {}
    recorded.update(entries)
    with open(RESULT_PATH, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")


def print_series(title, series):
    """Render one panel as the series of (mappings, value) points."""
    print("")
    print(title)
    for algorithm, points in sorted(series.items()):
        rendered = ", ".join("({}, {:.1f})".format(count, value) for count, value in points)
        print("  {:<8} {}".format(algorithm, rendered))


def retimed_slowdown(workload_kind, config, environment, repeats=5):
    """PRECISE / COARSE per-update wall time at the densest setting, re-timed.

    The quantity the last point of ``precise_slowdown_series()`` estimates
    from one pass — same density, same seeds, same normalisation — but with
    each run repeated *repeats* times, the two algorithms alternating, and
    the fastest repetition kept (as ``timeit`` does).  A cell lasts a few
    hundredths of a second and the true ratio is 1.2-1.3x since the indexed
    trackers, so a single pass lands under 1 about one time in eight;
    the decisions and counts of a run are a function of its seed, so only
    the clock differs between repetitions.
    """
    count = config.mapping_counts[-1]
    densest = config.scaled(
        mapping_counts=(count,), algorithms=("COARSE", "PRECISE")
    )
    passes = [
        run_workload_experiment(workload_kind, densest, environment)
        for _ in range(repeats)
    ]

    def per_update_seconds(algorithm):
        runs_by_pass = [result.cell(count, algorithm).runs for result in passes]
        return mean([
            min(run.per_update_seconds for run in same_seed)
            for same_seed in zip(*runs_by_pass)
        ])

    return per_update_seconds("PRECISE") / per_update_seconds("COARSE")


def print_slowdown(title, points):
    print("")
    print(title)
    for count, factor in points:
        print("  {:>3} mappings: {:.2f}x".format(count, factor))
