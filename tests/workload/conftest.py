"""Which evaluator the pinned catalogue counts are checked against."""

from __future__ import annotations

import pytest

from repro.query.sql_chase import resolve_sql_chase


def pytest_collection_modifyitems(items):
    """Skip the Python evaluator's pin when the suite runs on the SQL path.

    ``test_pinned_catalogue_counts.py`` hands its subprocess the suite's own
    environment, so under ``REPRO_SQL_CHASE`` it would compare the SQL
    evaluator's forty rounds (two chase steps fewer — ROADMAP item 1's side
    finding) with the Python evaluator's numbers.  Those are pinned by the
    run without the variable; the SQL path's own numbers are pinned, in
    every run, by ``test_pinned_catalogue_counts_sql.py``.
    """
    if not resolve_sql_chase():
        return
    skip = pytest.mark.skip(
        reason="pins the Python evaluator's counts; REPRO_SQL_CHASE is set "
        "(the SQL path's are in test_pinned_catalogue_counts_sql.py)"
    )
    for item in items:
        if item.path.name == "test_pinned_catalogue_counts.py":
            item.add_marker(skip)
