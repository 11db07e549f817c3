"""Service-level metrics: throughput, abort rate, frontier-wait percentiles.

The scheduler's :class:`~repro.concurrency.aborts.RunStatistics` counts chase
work; this module layers the serving view on top: committed updates per
second, queue and frontier wait distributions, and per-session attribution.
``snapshot()`` merges both so one dictionary feeds dashboards, benchmarks and
the CLI.

Since the observability layer landed, :class:`ServiceMetrics` is backed by a
:class:`~repro.obs.metrics.MetricsRegistry` — counters, wait histograms and
derived gauges are registry instruments, and ``snapshot()`` is just
``registry.collect()`` plus the scheduler/store producers.  Every key the
pre-registry snapshot exposed is preserved bit-compatibly, and the counter
attributes (``metrics.parks`` etc.) remain readable as plain ints.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..concurrency.aborts import RunStatistics
from ..obs.metrics import MetricsRegistry

#: Number of most-recent latency samples kept per distribution.  Bounding the
#: windows keeps a long-running service's memory flat and each snapshot's
#: percentile sort O(window log window) instead of O(lifetime).
WAIT_SAMPLE_WINDOW = 4096


class ServiceMetrics:
    """Live aggregator of everything the service observes.

    A thin facade over a :class:`~repro.obs.metrics.MetricsRegistry`: the
    seven lifecycle counters, three bounded wait histograms and the derived
    gauges (elapsed, throughput, abort rate) are registry instruments
    registered in snapshot-key order, so ``registry.collect()`` reproduces
    the historical snapshot layout exactly.
    """

    def __init__(self, started_at: float, registry: Optional[MetricsRegistry] = None):
        self.started_at = started_at
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._submitted = reg.counter("submitted")
        self._admitted = reg.counter("admitted")
        self._committed = reg.counter("committed")
        self._failed = reg.counter("failed")
        self._parks = reg.counter("parks")
        self._resumes = reg.counter("resumes")
        self._restarts = reg.counter("restarts")
        self._elapsed = reg.gauge("elapsed_seconds")
        self._throughput = reg.gauge("throughput_per_second")
        self._abort_rate = reg.gauge("abort_rate")
        self.frontier_waits = reg.histogram("frontier_wait", window=WAIT_SAMPLE_WINDOW)
        self.queue_waits = reg.histogram("queue_wait", window=WAIT_SAMPLE_WINDOW)
        self.turnarounds = reg.histogram("turnaround", window=WAIT_SAMPLE_WINDOW)

    # ------------------------------------------------------------------
    # Compatibility attributes (tests and callers read these as ints)
    # ------------------------------------------------------------------
    @property
    def submitted(self) -> int:
        return self._submitted.value

    @property
    def admitted(self) -> int:
        return self._admitted.value

    @property
    def committed(self) -> int:
        return self._committed.value

    @property
    def failed(self) -> int:
        return self._failed.value

    @property
    def parks(self) -> int:
        return self._parks.value

    @property
    def resumes(self) -> int:
        return self._resumes.value

    @property
    def restarts(self) -> int:
        return self._restarts.value

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_submit(self) -> None:
        self._submitted.inc()

    def record_admit(self, queue_wait: float) -> None:
        self._admitted.inc()
        self.queue_waits.observe(queue_wait)

    def record_park(self) -> None:
        self._parks.inc()

    def record_resume(self, wait_seconds: float) -> None:
        self._resumes.inc()
        self.frontier_waits.observe(wait_seconds)

    def record_restart(self) -> None:
        self._restarts.inc()

    def record_commit(self, turnaround: float) -> None:
        self._committed.inc()
        self.turnarounds.observe(turnaround)

    def record_failure(self) -> None:
        self._failed.inc()

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def throughput(self, now: float) -> float:
        """Committed updates per wall-clock second since the service started."""
        elapsed = now - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.committed / elapsed

    def abort_rate(self, statistics: RunStatistics) -> float:
        """Aborts per update execution (restarts included in the denominator)."""
        executed = max(1, statistics.updates_executed)
        return statistics.aborts / executed

    def snapshot(
        self, statistics: RunStatistics, now: float, store: Optional[object] = None
    ) -> Dict[str, float]:
        """One flat dictionary merging service and scheduler counters.

        When *store* (a :class:`~repro.storage.versioned.VersionedDatabase`)
        is supplied, its live size gauges are included — the write-log length
        and version count bound the per-step work of rollback, conflict
        checking and compaction, so operators watching a long-running service
        want them on the same dashboard as throughput and abort rate.

        The registry may already hold store/scheduler producers (registered
        by :class:`~repro.service.repository.RepositoryService`); the guards
        below keep the direct arguments from double-producing those keys.
        """
        self._elapsed.set(now - self.started_at)
        self._throughput.set(self.throughput(now))
        self._abort_rate.set(self.abort_rate(statistics))
        data = self.registry.collect()
        if store is not None and "store_log_entries" not in data:
            data.update(store_metrics(store))
        if "scheduler_algorithm" not in data:
            for key, value in statistics.as_dict().items():
                data["scheduler_" + key] = value
        return data


def store_metrics(store: object) -> Dict[str, float]:
    """The versioned store's size gauges, snapshot-key named."""
    return {
        "store_log_entries": store.log_size(),
        "store_versions": store.version_count(),
        "store_tuples": store.tuple_count(),
        "store_index_entries": store.index_entry_count(),
        "store_compactions": store.compactions,
    }
