"""Pins for the shared stats helpers (``repro.obs.stats``).

``percentile`` must use the explicit ceil nearest-rank rule: the old
``int(round(...))`` implementation used banker's rounding, which on small
windows picked the wrong element (e.g. p50 of four samples rounded
``0.5 * 4 = 2.0`` to rank 2 only by accident of tie-to-even — p50 of
``[1..8]`` rounded ``4.0`` "correctly" but p95 of twenty samples rounded
``19.0`` down where nearest-rank demands ceil).  These tests pin the exact
small-window behaviour so the bug cannot regress.
"""

from __future__ import annotations

import pytest

from repro.obs.stats import mean, percentile
from repro.service import metrics as service_metrics
from repro.workload import metrics as workload_metrics


def test_reexports_are_the_shared_implementations():
    # One implementation: the workload layer's cell means use the shared
    # helper, and the service layer keeps no copy of either.
    assert workload_metrics.mean is mean
    assert not hasattr(service_metrics, "mean")
    assert not hasattr(service_metrics, "percentile")


def test_mean_empty_is_zero():
    assert mean([]) == 0.0


def test_mean_pins():
    assert mean([4.0]) == 4.0
    assert mean([1.0, 2.0, 3.0, 4.0]) == 2.5


def test_percentile_empty_is_zero():
    assert percentile([], 0.5) == 0.0


def test_percentile_singleton():
    assert percentile([7.5], 0.5) == 7.5
    assert percentile([7.5], 0.95) == 7.5


def test_percentile_bounds():
    values = [5.0, 1.0, 3.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, -1.0) == 1.0
    assert percentile(values, 1.0) == 5.0
    assert percentile(values, 2.0) == 5.0


def test_percentile_small_window_nearest_rank():
    # ceil(0.5 * 4) = 2 → second smallest.
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
    # ceil(0.5 * 8) = 4 → fourth smallest.
    assert percentile([float(v) for v in range(1, 9)], 0.5) == 4.0
    # ceil(0.95 * 20) = 19 → nineteenth smallest.  ``int(round(19.0))`` also
    # gives 19, but ``int(round(0.95 * 10)) = int(round(9.5)) = 10`` (banker's
    # tie-to-even saved it) while ``int(round(0.5 * 5)) = 2`` disagreed with
    # ceil's 3 — the ceil rule is pinned across all of these.
    assert percentile([float(v) for v in range(1, 21)], 0.95) == 19.0
    # ceil(0.5 * 5) = 3: the case banker's rounding got wrong (round(2.5) = 2).
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    # ceil(0.25 * 2) = 1: round(0.5) = 0 would have crashed or clamped.
    assert percentile([10.0, 20.0], 0.25) == 10.0


def test_percentile_does_not_mutate_input():
    values = [3.0, 1.0, 2.0]
    percentile(values, 0.5)
    assert values == [3.0, 1.0, 2.0]


@pytest.mark.parametrize("window", range(1, 12))
def test_percentile_rank_always_in_range(window):
    values = [float(v) for v in range(window)]
    for numerator in range(0, 21):
        result = percentile(values, numerator / 20.0)
        assert result in values
