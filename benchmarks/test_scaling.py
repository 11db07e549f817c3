"""Scaling benchmark: PRECISE tracker overhead at multiples of the small scale.

The PRECISE dependency tracker is the paper's expensive-but-accurate end of
the cascading-abort spectrum (Figures 3c/4c).  Before the indexed write log,
the seeded delta tests and store compaction, every tracked read scanned (and
copied) the full global write log and re-evaluated full violation queries
twice per candidate write — tracker cost grew superlinearly with run length.

This benchmark runs the 25-mapping, all-insert PRECISE workload at a multiple
of the default experiment scale twice:

* once with ``LegacyPreciseTracker`` (``tests/oracles/precise_scan.py``), a
  faithful replica of the pre-index implementation (full log scan, full
  double evaluation per delta test), and
* once with the current :class:`~repro.concurrency.dependencies.PreciseTracker`,

and asserts that (a) the two runs are *semantically identical* — same
``cost_units``, same aborts, same cascading-abort requests, so the Figure 3/4
panels are unchanged — and (b) the indexed tracker's wall-clock overhead is at
least ``MIN_SPEEDUP`` times smaller.  The measurements land in
``BENCH_scaling.json`` at the repository root so future PRs have a recorded
perf trajectory (CI uploads it as an artifact).
"""

from __future__ import annotations

import os
import pathlib
import sys
import time

from repro.concurrency.dependencies import PreciseTracker
from repro.concurrency.optimistic import OptimisticScheduler
from repro.concurrency.policies import make_policy
from repro.core.oracle import RandomOracle
from repro.core.terms import NullFactory
from repro.storage.versioned import VersionedDatabase
from repro.workload.experiment import (
    ExperimentConfig,
    INSERT_WORKLOAD,
    build_environment,
    build_workload,
)
from repro.workload.mapping_gen import mapping_prefix

from conftest import record_entries

# The replica lives with the other oracles; ``tests/`` is on the path already
# under the tier-1 command, not when this file is run on its own.
sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from oracles.precise_scan import LegacyPreciseTracker  # noqa: E402

#: Mapping density of the measured workload (the densest Figure 3 cell).
MAPPING_COUNT = 25

#: Scale multiplier over ``ExperimentConfig.small_scale`` per bench scale.
SCALE_FACTORS = {"tiny": 1, "small": 3, "paper": 4}

#: Required tracker-overhead reduction.  The acceptance bar is 3x at the
#: default scale; the tiny CI smoke run keeps a soft bar because sub-100ms
#: timings are noisy.
MIN_SPEEDUP = {"tiny": 1.5, "small": 3.0, "paper": 3.0}


def _timed(tracker_class):
    """Subclass *tracker_class* with wall-clock accounting per tracked read."""

    class Timed(tracker_class):
        def __init__(self):
            super().__init__()
            self.tracker_seconds = 0.0

        def dependencies(self, *args, **kwargs):
            started = time.perf_counter()
            try:
                return super().dependencies(*args, **kwargs)
            finally:
                self.tracker_seconds += time.perf_counter() - started

    return Timed()


def _run_workload(environment, config, tracker):
    mappings = mapping_prefix(environment.mappings, MAPPING_COUNT)
    operations = build_workload(environment, INSERT_WORKLOAD, config.seed)
    store = VersionedDatabase(environment.schema)
    store.load_initial(environment.initial)
    scheduler = OptimisticScheduler(
        store=store,
        mappings=mappings,
        tracker=tracker,
        oracle=RandomOracle(seed=config.seed),
        policy=make_policy(config.policy),
        null_factory=NullFactory.avoiding_view(environment.initial, prefix="g"),
        max_total_steps=config.max_total_steps,
    )
    scheduler.submit_all(operations)
    started = time.perf_counter()
    statistics = scheduler.run()
    wall = time.perf_counter() - started
    return {
        "tracker_seconds": tracker.tracker_seconds,
        "wall_seconds": wall,
        "cost_units": tracker.cost_units,
        "reads": tracker.reads_processed,
        "aborts": statistics.aborts,
        "cascading_abort_requests": statistics.cascading_abort_requests,
        "cascading_aborts": statistics.cascading_aborts,
        "final_log_entries": store.log_size(),
        "final_versions": store.version_count(),
    }


def test_precise_tracker_scaling():
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    factor = SCALE_FACTORS.get(scale, SCALE_FACTORS["small"])
    base = ExperimentConfig.small_scale()
    config = base.scaled(
        num_updates=base.num_updates * factor,
        num_initial_tuples=base.num_initial_tuples * (2 if factor > 1 else 1),
    )
    environment = build_environment(config)

    legacy = _run_workload(environment, config, _timed(LegacyPreciseTracker))
    indexed = _run_workload(environment, config, _timed(PreciseTracker))

    # The optimization must not alter tracker decisions, only their cost: the
    # Figure 3/4 panel inputs must be identical run to run.
    assert indexed["cost_units"] == legacy["cost_units"]
    assert indexed["reads"] == legacy["reads"]
    assert indexed["aborts"] == legacy["aborts"]
    assert indexed["cascading_abort_requests"] == legacy["cascading_abort_requests"]
    assert indexed["cascading_aborts"] == legacy["cascading_aborts"]

    tracker_speedup = legacy["tracker_seconds"] / max(indexed["tracker_seconds"], 1e-9)
    wall_speedup = legacy["wall_seconds"] / max(indexed["wall_seconds"], 1e-9)
    report = {
        "workload": INSERT_WORKLOAD,
        "mapping_count": MAPPING_COUNT,
        "scale": scale,
        "scale_factor_vs_small": factor,
        "num_updates": config.num_updates,
        "num_initial_tuples": config.num_initial_tuples,
        "legacy": legacy,
        "indexed": indexed,
        "tracker_speedup": tracker_speedup,
        "wall_speedup": wall_speedup,
        "semantics_match": True,
    }
    record_entries(report)
    print(
        "\nPRECISE tracker overhead at {}x scale, {} mappings: "
        "legacy {:.2f}s vs indexed {:.2f}s ({:.1f}x); "
        "run wall {:.2f}s vs {:.2f}s ({:.1f}x)".format(
            factor,
            MAPPING_COUNT,
            legacy["tracker_seconds"],
            indexed["tracker_seconds"],
            tracker_speedup,
            legacy["wall_seconds"],
            indexed["wall_seconds"],
            wall_speedup,
        )
    )

    assert tracker_speedup >= MIN_SPEEDUP.get(scale, 3.0), (
        "indexed PRECISE tracker must be at least {}x faster than the "
        "pre-index scan (measured {:.1f}x)".format(
            MIN_SPEEDUP.get(scale, 3.0), tracker_speedup
        )
    )
