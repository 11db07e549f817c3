"""Figure 3: the all-insert workload (aborts, cascading requests, PRECISE slowdown).

Each benchmark regenerates one panel of Figure 3 from the shared experiment
run and asserts the paper's qualitative shape:

* panel (a): NAIVE suffers far more aborts than COARSE, which suffers at least
  as many as PRECISE, and abort counts grow with mapping density;
* panel (b): COARSE issues many cascading abort requests while PRECISE issues
  almost none at low density;
* panel (c): PRECISE pays a per-update execution-time penalty over COARSE
  (between roughly 1.4x and 4.5x in the paper).
"""

from conftest import print_series, print_slowdown, retimed_slowdown

from repro.workload import INSERT_WORKLOAD


def _densest(series):
    """The value at the highest mapping density of a per-algorithm series."""
    return {algorithm: points[-1][1] for algorithm, points in series.items() if points}


def test_fig3_aborts(benchmark, figure3_result):
    """Panel (a): total aborts vs. number of mappings."""
    series = benchmark.pedantic(
        figure3_result.abort_series, rounds=1, iterations=1
    )
    print_series("Figure 3(a) — aborts vs mappings (all-insert)", series)
    top = _densest(series)
    # NAIVE is the strawman: it never does better than the dependency-tracking
    # algorithms.  COARSE and PRECISE can be close at reduced scale, so the
    # COARSE >= PRECISE comparison carries a small-sample tolerance.
    assert top["NAIVE"] >= top["COARSE"]
    assert top["NAIVE"] >= top["PRECISE"]
    assert top["PRECISE"] <= top["COARSE"] * 1.5 + 5
    # Aborts grow with density for every algorithm (weakly).
    for points in series.values():
        assert points[0][1] <= points[-1][1]
    if top["NAIVE"] == 0:
        print("  (no conflicts at this benchmark scale; shape assertions are vacuous)")


def test_fig3_cascading_requests(benchmark, figure3_result):
    """Panel (b): cascading abort requests vs. number of mappings."""
    series = benchmark.pedantic(
        figure3_result.cascading_request_series, rounds=1, iterations=1
    )
    print_series("Figure 3(b) — cascading abort requests (all-insert)", series)
    top = _densest(series)
    assert top["COARSE"] >= top["PRECISE"]
    assert top["NAIVE"] >= top["PRECISE"]
    # PRECISE requests no (or almost no) cascading aborts at the sparsest setting.
    precise_points = dict(series["PRECISE"])
    sparsest = min(precise_points)
    assert precise_points[sparsest] <= 1


def test_fig3_precise_slowdown(
    benchmark, figure3_result, experiment_config, environment
):
    """Panel (c): per-update slowdown of PRECISE relative to COARSE."""
    wall = benchmark.pedantic(
        figure3_result.precise_slowdown_series, rounds=1, iterations=1
    )
    cost = figure3_result.precise_slowdown_series(use_cost_model=True)
    print_slowdown("Figure 3(c) — slowdown of PRECISE vs COARSE (wall clock)", wall)
    print_slowdown("Figure 3(c) — slowdown of PRECISE vs COARSE (cost model)", cost)
    assert wall, "need at least one density with both COARSE and PRECISE"
    # At the densest setting PRECISE is slower per update than COARSE, provided
    # the scale produced any concurrency-control work at all.
    densest = figure3_result.cell(wall[-1][0], "COARSE")
    if densest.aborts > 0 or densest.cascading_abort_requests > 0:
        # On the clock, from more runs of the same cell than the one pass
        # printed above: see ``retimed_slowdown``.
        retimed = retimed_slowdown(INSERT_WORKLOAD, experiment_config, environment)
        print("  {:>3} mappings, re-timed: {:.2f}x".format(wall[-1][0], retimed))
        assert retimed > 1.0
        assert cost[-1][1] > 1.0
