"""``repo_batch``'s fixed catalogue, pinned count for count.

ROADMAP's gate for any change to the tracker, the conflict check or the logs
they read — "aborts / steps / ``tracker_cost_units`` over catalogue rounds
0–39 stay 134 / 3199 / 1 013 595" — existed only in prose.  This runs the
rounds the way ``bench/workloads.py::BatchRound`` does (the Section 6
defaults: 25 mappings, PRECISE, ``round-robin-step``, mixed 80/20, forty
batches of 20 updates submitted at once, seeds 0–39) and compares every
decision count and every Figure 3/4 cost unit with the recorded one.
``test_pinned_cost_units.py`` pins three of those rounds; this is all forty,
so an index that skips a read it should have shown a write — or charges a
skipped one differently — moves a number here even when those three agree.

A subprocess with ``PYTHONHASHSEED=0``, as ``bench/run.py`` does: the
scheduler iterates sets of strings, so the counts are a function of the hash
seed.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_CATALOGUE = """
import json
from repro.workload import (
    ExperimentConfig, MIXED_WORKLOAD, build_environment, run_cell_once,
)

config = ExperimentConfig().scaled(num_updates=20)
assert config.policy == "round-robin-step"
environment = build_environment(config)
totals = dict.fromkeys({keys!r}, 0)
for seed in range(40):
    statistics = run_cell_once(
        environment, config.max_mappings, "PRECISE", MIXED_WORKLOAD, seed
    )
    for key in totals:
        totals[key] += getattr(statistics, key)
print(json.dumps(totals))
"""

#: Recorded on the commit before the seed-aware read-log and write-log indexes.
PINNED = {
    "aborts": 134,
    "steps": 3199,
    "read_queries": 17302,
    "tracker_cost_units": 1013595,
    "conflict_cost_units": 179028,
    "chase_cost_units": 26862,
}


def test_catalogue_rounds_0_to_39_count_what_they_counted():
    environment = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(_SRC))
    done = subprocess.run(
        [sys.executable, "-c", _CATALOGUE.format(keys=tuple(PINNED))],
        capture_output=True, text=True, timeout=600, env=environment,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == PINNED
