"""The Fig. 3/4 cost units of one small Section 6 cell, pinned.

``bench/test_smoke.py`` pins ``repo_batch``'s warm-up aborts and steps through
the real command line; it does not pin the *cost units* the Figure 3/4 panels
plot.  Those hang off the exact sequence of read queries each chase step
logs and of candidates the tracker and the conflict check examine, so a
storage or join change that returns the same answers in another order — or
hits another of two equal-valued identities — moves them.  This runs one
cell (25 mappings, PRECISE, ``round-robin-step``, mixed 80/20, three batches
of 20 updates) and compares every unit with the recorded one.

A subprocess with ``PYTHONHASHSEED=0``, as ``bench/run.py`` does: the
scheduler iterates sets of strings, so the counts are a function of the hash
seed (11 aborts under seed 1, 14 under seed 0).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_CELL = """
import json
from repro.workload import (
    ExperimentConfig, MIXED_WORKLOAD, build_environment, run_cell_once,
)

config = ExperimentConfig().scaled(num_updates=20)
assert config.policy == "round-robin-step"
environment = build_environment(config)
totals = dict.fromkeys({keys!r}, 0)
for seed in range(3):
    statistics = run_cell_once(
        environment, config.max_mappings, "PRECISE", MIXED_WORKLOAD, seed
    )
    for key in totals:
        totals[key] += getattr(statistics, key)
print(json.dumps(totals))
"""

#: Recorded on the commit before the store's exact-content index went in.
PINNED = {
    "aborts": 14,
    "cascading_aborts": 3,
    "steps": 243,
    "read_queries": 1110,
    "tracker_cost_units": 67118,
    "conflict_cost_units": 14704,
    "chase_cost_units": 1717,
}


def test_section_6_cell_cost_units_are_the_recorded_ones():
    environment = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(_SRC))
    done = subprocess.run(
        [sys.executable, "-c", _CELL.format(keys=tuple(PINNED))],
        capture_output=True, text=True, timeout=300, env=environment,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == PINNED
