"""``SweepRunner``-shaped facade over a running sweep service.

:class:`ServiceSweepRunner` accepts the same (workload spec, configuration)
grids as :class:`~repro.experiments.runner.SweepRunner` and returns the
same ordered ``RunRecord`` lists, but routes every pair through a
:class:`~repro.service.server.SweepService` — so experiments transparently
gain admission validation, single-flight dedup (in-grid duplicates cost
one simulation), the shared content-addressed store, and service metrics.

By default the adapter owns a private :class:`ServiceThread` for its
lifetime; pass a started thread to share one service across runners.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.results import RunRecord
from repro.gpu.config import GpuConfig
from repro.service.job import JobRequest
from repro.service.server import ServiceConfig, ServiceThread
from repro.trace.metrics import MetricsRegistry
from repro.workloads.spec import WorkloadSpec


class ServiceSweepRunner:
    """Runs sweep grids through a sweep service instead of a process pool."""

    def __init__(
        self,
        thread: ServiceThread | None = None,
        config: ServiceConfig | None = None,
        client: str = "adapter",
        timeout_s: float = 600.0,
    ) -> None:
        self._owns_thread = thread is None
        self.thread = thread or ServiceThread(config or ServiceConfig()).start()
        self.client = client
        self.timeout_s = timeout_s
        self.cache_hits = 0
        self.cache_misses = 0
        #: Pairs served by another submission's in-flight simulation.
        self.dedup_skips = 0
        #: Merged component metrics across every record returned (same
        #: aggregation contract as ``SweepRunner.metrics``).
        self.metrics = MetricsRegistry()

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        if self._owns_thread:
            self.thread.stop()

    def __enter__(self) -> "ServiceSweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------- runs

    def run(
        self, pairs: list[tuple[WorkloadSpec, GpuConfig]]
    ) -> list[RunRecord]:
        """Run every pair through the service; results in input order.

        All pairs are submitted concurrently — the service's priority
        queue orders execution and its single-flight index collapses
        in-grid duplicates onto one simulation.
        """
        futures = [
            self.thread.submit_async(
                JobRequest(spec=spec, config=config), client=self.client
            )
            for spec, config in pairs
        ]
        records: list[RunRecord] = []
        for (spec, config), future in zip(pairs, futures):
            outcome = future.result(timeout=self.timeout_s)
            if outcome.cache == "hit":
                self.cache_hits += 1
            elif outcome.cache == "coalesced":
                self.dedup_skips += 1
            else:
                self.cache_misses += 1
            # Re-stamp presentation fields exactly like SweepRunner does
            # for cached records: the content key guarantees identity, the
            # label is derived data.
            records.append(
                replace(
                    RunRecord.from_json(outcome.record),
                    workload=spec.abbr,
                    config_label=config.label(),
                )
            )
        for record in records:
            if record.metrics:
                self.metrics.merge(MetricsRegistry.from_json(record.metrics))
        return records

    def run_grid(
        self,
        specs: list[WorkloadSpec],
        configs: list[GpuConfig],
        operating_points=None,
        curve=None,
    ) -> dict[str, dict[str, RunRecord]]:
        """Cartesian sweep; same shape as ``SweepRunner.run_grid``."""
        from repro.experiments.runner import expand_operating_points

        configs = expand_operating_points(configs, operating_points, curve)
        pairs = [(spec, config) for config in configs for spec in specs]
        records = self.run(pairs)
        grid: dict[str, dict[str, RunRecord]] = {}
        for record in records:
            grid.setdefault(record.config_label, {})[record.workload] = record
        return grid
