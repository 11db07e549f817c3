"""Figure 4: the mixed 80% insert / 20% delete workload.

Same three panels as Figure 3, on the workload that also exercises the
backward chase (deletions cascade and produce negative frontiers).
"""

from conftest import print_series, print_slowdown, retimed_slowdown

from repro.workload import MIXED_WORKLOAD


def _densest(series):
    return {algorithm: points[-1][1] for algorithm, points in series.items() if points}


def test_fig4_aborts(benchmark, figure4_result):
    """Panel (a): total aborts vs. number of mappings (mixed workload)."""
    series = benchmark.pedantic(
        figure4_result.abort_series, rounds=1, iterations=1
    )
    print_series("Figure 4(a) — aborts vs mappings (mixed 80/20)", series)
    top = _densest(series)
    assert top["NAIVE"] >= top["COARSE"]
    assert top["NAIVE"] >= top["PRECISE"]
    assert top["PRECISE"] <= top["COARSE"] * 1.5 + 5
    for points in series.values():
        assert points[0][1] <= points[-1][1]
    if top["NAIVE"] == 0:
        print("  (no conflicts at this benchmark scale; shape assertions are vacuous)")


def test_fig4_cascading_requests(benchmark, figure4_result):
    """Panel (b): cascading abort requests vs. number of mappings (mixed)."""
    series = benchmark.pedantic(
        figure4_result.cascading_request_series, rounds=1, iterations=1
    )
    print_series("Figure 4(b) — cascading abort requests (mixed 80/20)", series)
    top = _densest(series)
    assert top["COARSE"] >= top["PRECISE"]
    assert top["NAIVE"] >= top["PRECISE"]


def test_fig4_precise_slowdown(
    benchmark, figure4_result, experiment_config, environment
):
    """Panel (c): per-update slowdown of PRECISE relative to COARSE (mixed)."""
    wall = benchmark.pedantic(
        figure4_result.precise_slowdown_series, rounds=1, iterations=1
    )
    cost = figure4_result.precise_slowdown_series(use_cost_model=True)
    print_slowdown("Figure 4(c) — slowdown of PRECISE vs COARSE (wall clock)", wall)
    print_slowdown("Figure 4(c) — slowdown of PRECISE vs COARSE (cost model)", cost)
    assert wall
    densest = figure4_result.cell(wall[-1][0], "COARSE")
    if densest.aborts > 0 or densest.cascading_abort_requests > 0:
        # On the clock, from more runs of the same cell than the one pass
        # printed above: see ``retimed_slowdown``.
        retimed = retimed_slowdown(MIXED_WORKLOAD, experiment_config, environment)
        print("  {:>3} mappings, re-timed: {:.2f}x".format(wall[-1][0], retimed))
        assert retimed > 1.0
        assert cost[-1][1] > 1.0
