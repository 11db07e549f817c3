"""``repo_batch``'s fixed catalogue on the SQL chase path, pinned count for count.

The same forty rounds as ``test_pinned_catalogue_counts.py`` with violation
queries evaluated set-based in SQLite (``REPRO_SQL_CHASE=1``, set here, so
this runs the same whether or not the suite itself is on the SQL path).  The
SQL evaluator returns the same violations in another order, and the forty
rounds take two chase steps fewer (ROADMAP item 1's side finding), so its
decision counts and cost units are its own — and are as much a function of
which reads a write is shown to as the Python evaluator's are.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from test_pinned_catalogue_counts import _CATALOGUE, _SRC

#: Recorded on the commit before the seed-aware read-log and write-log indexes.
PINNED_SQL = {
    "aborts": 134,
    "steps": 3197,
    "read_queries": 17301,
    "tracker_cost_units": 1011122,
    "conflict_cost_units": 178799,
    "chase_cost_units": 26859,
}


def test_catalogue_rounds_0_to_39_count_what_they_counted_on_the_sql_path():
    environment = dict(
        os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(_SRC), REPRO_SQL_CHASE="1"
    )
    done = subprocess.run(
        [sys.executable, "-c", _CATALOGUE.format(keys=tuple(PINNED_SQL))],
        capture_output=True, text=True, timeout=600, env=environment,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == PINNED_SQL
