"""Tracing overhead microbench: the disabled hot path must stay under 5%.

Every instrumentation site the observability layer added to the hot path is
behind an ``if tracer.enabled:`` guard (plus the occasional
``span is not None`` check), so with tracing off the only added work is the
guard evaluations themselves.  That is directly measurable:

* a closed-loop service run with the default (noop) tracer gives the
  baseline wall time and, re-run with a live tracer, the span count — an
  upper-bound proxy for how many guard sites actually fire per run;
* a tight-loop microbench prices one guard evaluation on the noop tracer;
* ``guard_cost x guard_evaluations / baseline_wall`` bounds the disabled
  path's overhead fraction.  A generous 4x multiplier on the span count
  covers guards that are evaluated but do not open spans (conflict-free
  steps, unparked tickets).

The measured fraction lands in the ``trace_overhead`` entry of
``BENCH_scaling.json``; the benchmarks job prints a GitHub ``::warning``
when it exceeds the 5% budget and ``REPRO_BENCH_STRICT=1`` turns the budget
into an assertion.  The enabled-path slowdown is recorded too (as a factor),
for the curious — it has no budget; tracing on is allowed to cost.
"""

from __future__ import annotations

import os
import time
import timeit

from repro.obs.trace import NOOP_TRACER, Tracer

from conftest import record_entries
from test_service_throughput import _build_driver, _service_scale

#: The disabled-path budget from the observability tentpole.
DISABLED_OVERHEAD_BUDGET = 0.05

#: Timed repeats; the recorded walls are the best of them.
RUNS = 5

#: Safety multiplier from "spans recorded" to "guards evaluated".
GUARDS_PER_SPAN = 4


def _run_closed_loop(tracer=None):
    service, driver = _build_driver()
    if tracer is not None:
        # The driver was built untraced; swap the tracer in before any work
        # runs so the run records the full span set.
        service._tracer = tracer
        service.scheduler._tracer = tracer
    started = time.perf_counter()
    report = driver.run(max_ticks=50_000)
    wall = time.perf_counter() - started
    assert report.all_done
    return wall, service


def _guard_cost_seconds():
    """Price one ``if tracer.enabled:`` evaluation on the noop tracer."""
    iterations = 1_000_000
    tracer = NOOP_TRACER

    def guarded():
        if tracer.enabled:
            raise AssertionError("noop tracer must be disabled")

    def bare():
        pass

    guarded_total = min(timeit.repeat(guarded, number=iterations, repeat=3))
    bare_total = min(timeit.repeat(bare, number=iterations, repeat=3))
    return max(0.0, (guarded_total - bare_total) / iterations)


def test_disabled_tracing_overhead_budget():
    assert os.environ.get("REPRO_TRACE") != "1", (
        "the overhead bench needs the default (disabled) tracer as baseline; "
        "unset REPRO_TRACE"
    )

    # Warm plan caches before timing anything.
    _run_closed_loop()

    disabled_wall = min(_run_closed_loop()[0] for _ in range(RUNS))
    traced_best = None
    spans = 0
    for _ in range(RUNS):
        tracer = Tracer()
        wall, _ = _run_closed_loop(tracer=tracer)
        spans = max(spans, len(tracer.spans))
        if traced_best is None or wall < traced_best:
            traced_best = wall

    guard_cost = _guard_cost_seconds()
    guard_evaluations = spans * GUARDS_PER_SPAN
    disabled_overhead = guard_cost * guard_evaluations / max(disabled_wall, 1e-9)

    clients, updates_each = _service_scale()
    entry = {
        "clients": clients,
        "updates_per_client": updates_each,
        "runs": RUNS,
        "disabled_wall_seconds_best": disabled_wall,
        "traced_wall_seconds_best": traced_best,
        "enabled_overhead_factor": traced_best / max(disabled_wall, 1e-9),
        "spans_per_run": spans,
        "guard_evaluations_estimate": guard_evaluations,
        "guard_cost_nanoseconds": guard_cost * 1e9,
        "disabled_overhead_fraction": disabled_overhead,
        "disabled_overhead_budget": DISABLED_OVERHEAD_BUDGET,
    }
    record_entries({"trace_overhead": entry})

    print(
        "\ntrace overhead bench: disabled {:.4f}s, traced {:.4f}s "
        "({:.2f}x); {} spans -> ~{} guards at {:.1f}ns each -> "
        "disabled-path overhead {:.4%} (budget {:.0%})".format(
            disabled_wall,
            traced_best,
            entry["enabled_overhead_factor"],
            spans,
            guard_evaluations,
            entry["guard_cost_nanoseconds"],
            disabled_overhead,
            DISABLED_OVERHEAD_BUDGET,
        )
    )

    if disabled_overhead > DISABLED_OVERHEAD_BUDGET:
        # Surfaces as an annotation on the (non-blocking) benchmarks job.
        print(
            "::warning ::disabled-tracing overhead {:.2%} exceeds the "
            "{:.0%} budget".format(disabled_overhead, DISABLED_OVERHEAD_BUDGET)
        )
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert disabled_overhead < DISABLED_OVERHEAD_BUDGET, (
            "disabled-path tracing overhead {:.2%} over budget".format(
                disabled_overhead
            )
        )
