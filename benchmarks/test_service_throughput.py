"""Service panel: committed-update throughput and frontier-wait latency.

Not a figure of the paper — the paper runs pre-assembled batches — but the
serving-layer analogue of its experiments: a closed-loop population of
think-time clients drives the :class:`~repro.service.RepositoryService`, with
frontier questions answered a configurable number of ticks late.  The panel
reports committed updates per second and the p50/p95 frontier wait, the two
quantities a capacity planner for a collaborative Youtopia deployment would
watch.
"""

import os


from repro.service import AdmissionConfig, RepositoryService
from repro.workload import ClientSpec, ClosedLoopDriver, build_environment, build_workload
from repro.workload.experiment import ExperimentConfig, INSERT_WORKLOAD


def _service_scale():
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale == "paper":
        return 16, 8  # clients, updates per client
    if scale == "tiny":
        return 4, 2
    return 8, 4


def _build_driver():
    clients, updates_each = _service_scale()
    config = ExperimentConfig.tiny_scale()
    environment = build_environment(config)
    operations = build_workload(
        environment, INSERT_WORKLOAD, seed=config.seed + 7
    )
    needed = clients * updates_each
    while len(operations) < needed:
        operations.extend(
            build_workload(environment, INSERT_WORKLOAD, seed=config.seed + len(operations))
        )
    service = RepositoryService(
        environment.initial,
        environment.mappings,
        tracker="PRECISE",
        admission=AdmissionConfig(max_in_flight=clients, batch_size=clients),
        max_total_steps=2_000_000,
    )
    specs = [
        ClientSpec(
            name="client-{:02d}".format(index),
            operations=list(
                operations[index * updates_each : (index + 1) * updates_each]
            ),
            think_time=1,
        )
        for index in range(clients)
    ]
    return service, ClosedLoopDriver(service, specs, answer_delay=2)


def test_service_throughput_panel(benchmark):
    """Committed updates/sec and frontier-wait percentiles for the service."""

    def run_closed_loop():
        service, driver = _build_driver()
        report = driver.run(max_ticks=50_000)
        return service, report

    service, report = benchmark.pedantic(run_closed_loop, rounds=1, iterations=1)
    metrics = service.metrics_snapshot()

    clients, updates_each = _service_scale()
    print("")
    print(
        "Service throughput panel ({} clients x {} updates, answer delay 2 ticks)".format(
            clients, updates_each
        )
    )
    print("  ticks                    {:>10}".format(report.ticks))
    print("  committed updates        {:>10.0f}".format(metrics["committed"]))
    print("  committed updates/sec    {:>10.1f}".format(metrics["throughput_per_second"]))
    print("  abort rate               {:>10.3f}".format(metrics["abort_rate"]))
    print("  frontier parks           {:>10.0f}".format(metrics["parks"]))
    print("  p50 frontier wait (s)    {:>10.4f}".format(metrics["frontier_wait_p50_seconds"]))
    print("  p95 frontier wait (s)    {:>10.4f}".format(metrics["frontier_wait_p95_seconds"]))
    print("  p50 turnaround (s)       {:>10.4f}".format(metrics["turnaround_p50_seconds"]))

    assert report.all_done, "closed loop did not drain within the tick budget"
    assert metrics["committed"] == clients * updates_each
    assert metrics["throughput_per_second"] > 0
    # Parks are resumed or cancelled by aborts — never leaked.
    assert metrics["resumes"] <= metrics["parks"]
    if metrics["resumes"] > 0:
        assert metrics["frontier_wait_p50_seconds"] > 0
