"""Simulator facade: one call from (workload, config) to counters and time.

This is the integration point the rest of the package uses: GPUJoule consumes
the returned :class:`~repro.gpu.counters.CounterSet` and execution time, the
EDPSE analysis consumes the derived speedups, and the experiment drivers never
touch engine internals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.dvfs.governor import Governor
from repro.dvfs.idle import governor_for
from repro.dvfs.operating_point import K40_VF_CURVE
from repro.dvfs.residency import DvfsResidency
from repro.gpu.config import GpuConfig
from repro.gpu.counters import CounterSet
from repro.gpu.cta_scheduler import CtaPartitioning
from repro.gpu.multigpu import KernelStats, MultiGpu
from repro.isa.kernel import Workload
from repro.trace.metrics import MetricsRegistry
from repro.trace.tracer import Tracer
from repro.units import cycles_to_seconds


@dataclass
class RunResult:
    """Everything one simulation run produces."""

    workload_name: str
    config_label: str
    counters: CounterSet
    kernel_stats: list[KernelStats] = field(default_factory=list)
    clock_hz: float = 0.0
    metrics: MetricsRegistry | None = None
    #: Engine callbacks dispatched during the run (throughput accounting).
    events_processed: int = 0
    #: Host wall-clock seconds the simulation took (not simulated time).
    wall_time_s: float = 0.0
    #: Per-domain time-at-operating-point record (energy pricing input).
    residency: DvfsResidency | None = None
    #: The governor that steered the run, when one did (decision trace).
    governor: Governor | None = None

    @property
    def events_per_sec(self) -> float:
        """Host-side simulator throughput for this run."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.events_processed / self.wall_time_s

    @property
    def cycles(self) -> float:
        return self.counters.elapsed_cycles

    @property
    def seconds(self) -> float:
        return cycles_to_seconds(self.counters.elapsed_cycles, self.clock_hz)

    @property
    def sm_utilization(self) -> float:
        """Mean SM issue-stage utilization over the run."""
        busy = self.counters.sm_busy_cycles
        total = busy + self.counters.sm_idle_cycles
        return 0.0 if total == 0 else busy / total

    def energy_breakdown(self, params: "EnergyParams") -> "EnergyBreakdown":
        """Price this run under ``params`` (per-GPM attribution included).

        Convenience over building an :class:`~repro.core.EnergyModel` by
        hand; when the params carry per-GPM core pricing and the counters
        carry shards, the returned breakdown's ``per_gpm`` entries attribute
        each module's core-domain energy at its own scale.
        """
        from repro.core.energy_model import EnergyModel

        return EnergyModel(params).evaluate(self.counters, self.seconds)

    def __repr__(self) -> str:
        return (
            f"RunResult({self.workload_name!r} on {self.config_label!r},"
            f" {self.cycles:.0f} cycles, util={self.sm_utilization:.2f})"
        )


class GpuSimulator:
    """Reusable entry point binding a configuration to workload runs."""

    def __init__(
        self,
        config: GpuConfig,
        partitioning: CtaPartitioning = CtaPartitioning.CONTIGUOUS,
    ):
        self.config = config
        self.partitioning = partitioning

    def run(
        self,
        workload: Workload,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        governor: Governor | None = None,
    ) -> RunResult:
        """Simulate ``workload`` on a fresh GPU instance.

        Every run builds a new :class:`MultiGpu`, so results are independent
        and deterministic: identical (workload, config) pairs produce
        identical counters.  Pass a :class:`~repro.trace.ChromeTracer` to
        capture the run's event timeline and/or a
        :class:`~repro.trace.MetricsRegistry` to collect component metrics;
        both default to the no-op fast path.  A
        :class:`~repro.dvfs.governor.Governor` re-points each GPM's core
        V/f domain at kernel boundaries; explicitly-passed governors are
        runtime behaviour and must not go through the sweep cache.

        A configuration with ``power_cap_watts`` or ``idle`` set (and no
        explicit governor) automatically attaches the governor those knobs
        imply — a :class:`~repro.dvfs.governor.PowerCapGovernor` for the
        budget, or the :mod:`repro.dvfs.idle` governor kind the idle config
        selects — making the run a deterministic function of the
        configuration, which is what lets it share the sweep cache (both
        knobs join the cache fingerprint).
        """
        if governor is None and (
            self.config.power_cap_watts is not None
            or self.config.idle is not None
        ):
            curve = (
                self.config.dvfs.curve
                if self.config.dvfs is not None
                else K40_VF_CURVE
            )
            governor = governor_for(
                self.config.idle, self.config.power_cap_watts, curve
            )
        gpu = MultiGpu(
            self.config,
            partitioning=self.partitioning,
            tracer=tracer,
            metrics=metrics,
            governor=governor,
        )
        start = time.perf_counter()
        counters = gpu.run(workload)
        wall_time_s = time.perf_counter() - start
        return RunResult(
            workload_name=workload.name,
            config_label=self.config.label(),
            counters=counters,
            kernel_stats=list(gpu.kernel_stats),
            clock_hz=self.config.gpm.clock_hz,
            metrics=gpu.engine.metrics,
            events_processed=gpu.engine.events_processed,
            wall_time_s=wall_time_s,
            residency=gpu.residency(),
            governor=governor,
        )


def simulate(
    workload: Workload,
    config: GpuConfig,
    partitioning: CtaPartitioning = CtaPartitioning.CONTIGUOUS,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    governor: Governor | None = None,
) -> RunResult:
    """Convenience wrapper: simulate one workload on one configuration."""
    return GpuSimulator(config, partitioning=partitioning).run(
        workload,
        tracer=tracer,
        metrics=metrics,
        governor=governor,
    )
