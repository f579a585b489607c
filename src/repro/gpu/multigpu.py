"""The assembled multi-module GPU and its workload driver.

``MultiGpu`` owns the shared simulation engine, the GPMs, the inter-GPM
network, the global page table, and the software-coherence protocol.  Running
a workload executes its kernels back-to-back: each kernel is partitioned
across GPMs (distributed CTA scheduling), every GPM drains its share, a
global barrier closes the kernel, and the coherence protocol flash-invalidates
remote-homed L2 lines before the next launch.

DVFS enters in two ways.  A static :class:`~repro.dvfs.config.DvfsConfig`
on the configuration rescales each GPM's core domain and the global DRAM and
interconnect domains for the whole run (cacheable — part of the config
fingerprint).  A runtime :class:`~repro.dvfs.governor.Governor` additionally
re-points each GPM's core domain at every kernel boundary from its
issue-stage utilization over the interval just closed; governed runs are a
runtime behaviour, not part of the cacheable configuration.

Idle states (:class:`~repro.dvfs.idle.IdleConfig` on the configuration) add
a third mechanism at the same kernel-boundary granularity: a GPM whose share
drained before the barrier — or that had no share at all — sat idle for a
measurable *gap*, and the driver retroactively enters the deepest sleep
state whose break-even cost fits inside it.  Entry latencies stay awake
(the drain/flush), the rest of the gap lands in the histogram's sleep
buckets, and the exit latency stalls that GPM's next kernel share.  A GPM
with no work in consecutive kernels stays gated across them.  Every idle
code path is gated on ``config.idle is not None``, keeping idle-off runs
bit-identical to the pre-idle driver.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.dvfs.config import DomainScales, IDENTITY_SCALES
from repro.dvfs.governor import Governor, GpmObservation
from repro.dvfs.idle import SleepState
from repro.dvfs.operating_point import K40_OPERATING_POINT, OperatingPoint
from repro.dvfs.residency import DvfsResidency, ResidencyHistogram
from repro.errors import ConfigError
from repro.gpu.config import GpuConfig, TopologyKind
from repro.gpu.counters import CounterSet
from repro.gpu.cta_scheduler import CtaPartitioning, partition_ctas
from repro.gpu.gpm import Gpm
from repro.interconnect.compression import CompressedTopology
from repro.interconnect.mesh import MeshTopology
from repro.interconnect.ring import RingTopology
from repro.interconnect.switch import SwitchTopology
from repro.interconnect.topology import Topology
from repro.isa.kernel import Workload
from repro.memory.cache import MAX_HOME_GPMS
from repro.memory.coherence import SoftwareCoherence
from repro.memory.pages import PagePlacement
from repro.sim.engine import AllOf, Engine, Timeout


@dataclass
class KernelStats:
    """Per-kernel timing recorded by the driver."""

    name: str
    start_cycle: float
    end_cycle: float

    @property
    def cycles(self) -> float:
        return self.end_cycle - self.start_cycle


class MultiGpu:
    """A 1..32-module GPU instance bound to one simulation engine."""

    def __init__(
        self,
        config: GpuConfig,
        partitioning: CtaPartitioning = CtaPartitioning.CONTIGUOUS,
        tracer=None,
        metrics=None,
        governor: Governor | None = None,
    ):
        if config.num_gpms > MAX_HOME_GPMS:
            raise ConfigError(
                f"{config.num_gpms} GPMs exceed the {MAX_HOME_GPMS} homes"
                " a cache line can record"
            )
        self.config = config
        self.partitioning = partitioning
        self.engine = Engine(tracer=tracer, metrics=metrics)
        # Each GPM accumulates into its own shard; the chip-global totals on
        # the parent CounterSet are derived from the shards at end of run.
        self.counters = CounterSet(
            per_gpm=tuple(CounterSet() for _ in range(config.num_gpms))
        )
        self.placement = PagePlacement(
            num_gpms=config.num_gpms, policy=config.placement_policy
        )
        self.scales = [
            self._gpm_scales(gpm_id) for gpm_id in range(config.num_gpms)
        ]
        self.gpms = [
            Gpm(
                self.engine, gpm_id, config.gpm, self.placement,
                self.counters.per_gpm[gpm_id],
                scales=self.scales[gpm_id],
            )
            for gpm_id in range(config.num_gpms)
        ]
        self.topology = self._build_topology()
        peers = [gpm.memory for gpm in self.gpms]
        for gpm in self.gpms:
            gpm.memory.connect(self.topology, peers)
        self.coherence = SoftwareCoherence()
        if config.num_gpms > 1:
            for gpm in self.gpms:
                self.coherence.register_l2(gpm.gpm_id, gpm.memory.l2)
        self.kernel_stats: list[KernelStats] = []
        self.governor = governor
        #: Per-GPM anchor cycles spent at each core point (governed runs).
        self._core_residency: list[dict[OperatingPoint, float]] = [
            {} for _ in self.gpms
        ]
        #: The point each GPM last accumulated residency at; the final bucket
        #: is renormalized so every histogram exactly partitions the run.
        self._last_core_point: list[OperatingPoint | None] = [
            None for _ in self.gpms
        ]
        if governor is not None:
            self._core_points = governor.initial_points(config.num_gpms)
            for gpm, point in zip(self.gpms, self._core_points):
                gpm.apply_core_point(point, governor.curve)
            self._interval_utilization = self.engine.metrics.accumulator(
                "dvfs.interval_utilization"
            )
            self._core_mhz = self.engine.metrics.accumulator("dvfs.core_mhz")
        self.idle = config.idle
        if self.idle is not None:
            #: Per-GPM gated anchor cycles, by sleep state.
            self._sleep_residency: list[dict[SleepState, float]] = [
                {} for _ in self.gpms
            ]
            #: The state each GPM is currently gated in; sticky across
            #: kernels while the GPM has no work.
            self._asleep: list[SleepState | None] = [None for _ in self.gpms]
            #: Gated cycles inside the kernel window just closed (the
            #: governed residency subtracts them from the active bucket).
            self._window_sleep = [0.0 for _ in self.gpms]
            #: When each GPM's share of the current kernel drained.
            self._drain_cycle = [0.0 for _ in self.gpms]
            self._had_share = [False for _ in self.gpms]

    @property
    def dvfs_residency(self) -> dict[int, dict[str, float]]:
        """Governed core residency as ``{gpm_id: {point label: cycles}}``."""
        return {
            gpm_id: {point.label(): cycles for point, cycles in hist.items()}
            for gpm_id, hist in enumerate(self._core_residency)
            if hist
        }

    def _gpm_scales(self, gpm_id: int) -> DomainScales:
        if self.config.dvfs is None:
            return IDENTITY_SCALES
        return self.config.dvfs.scales_for_gpm(gpm_id)

    def _build_topology(self) -> Topology | None:
        config = self.config
        if config.num_gpms == 1:
            return None
        interconnect = config.interconnect
        if interconnect is None:  # pragma: no cover - GpuConfig already guards
            raise ConfigError("multi-GPM config lost its interconnect")
        # The interconnect domain is chip-global: scale link serialization
        # rate up and propagation down with its frequency ratio (exact no-ops
        # at the anchor point).
        ic_scale = self.scales[0].interconnect_freq
        bandwidth = interconnect.per_gpm_bandwidth_gbps * ic_scale
        latency = interconnect.link_latency_cycles / ic_scale
        clock_hz = config.gpm.clock_hz
        if interconnect.kind is TopologyKind.MESH:
            topology: Topology = MeshTopology(
                self.engine,
                config.num_gpms,
                per_gpm_bandwidth_gbps=bandwidth,
                link_latency_cycles=latency,
                energy_pj_per_bit=interconnect.energy_pj_per_bit,
                clock_hz=clock_hz,
            )
        elif interconnect.kind is TopologyKind.RING:
            topology = RingTopology(
                self.engine,
                config.num_gpms,
                per_gpm_bandwidth_gbps=bandwidth,
                link_latency_cycles=latency,
                energy_pj_per_bit=interconnect.energy_pj_per_bit,
                clock_hz=clock_hz,
            )
        else:
            topology = SwitchTopology(
                self.engine,
                config.num_gpms,
                per_gpm_bandwidth_gbps=bandwidth,
                link_latency_cycles=latency,
                energy_pj_per_bit=interconnect.energy_pj_per_bit,
                clock_hz=clock_hz,
            )
        if config.compression is not None:
            topology = CompressedTopology(topology, config.compression)
        return topology

    # ------------------------------------------------------------------ driver

    def _govern_interval(self, start: float) -> None:
        """One governor consultation covering the kernel just finished.

        All GPMs are observed first and the governor decides *jointly* over
        the chip (:meth:`~repro.dvfs.governor.Governor.on_chip_interval`) —
        a power-capping policy must see every module's utilization before it
        can redistribute the budget.  Per-GPM governors behave identically to
        the old one-module-at-a-time consultation.
        """
        governor = self.governor
        if governor is None:
            return
        now = self.engine.now
        window = now - start
        num_sms = self.config.gpm.num_sms
        tracer = self.engine.tracer
        observations = []
        for gpm in self.gpms:
            current = self._core_points[gpm.gpm_id]
            busy_delta = gpm.busy_cycles() - self._busy_snapshot[gpm.gpm_id]
            self._busy_snapshot[gpm.gpm_id] = gpm.busy_cycles()
            utilization = (
                0.0 if window <= 0
                else min(1.0, busy_delta / (window * num_sms))
            )
            if window > 0:
                awake = window
                if self.idle is not None:
                    awake -= self._window_sleep[gpm.gpm_id]
                hist = self._core_residency[gpm.gpm_id]
                if awake > 0:
                    hist[current] = hist.get(current, 0.0) + awake
                self._last_core_point[gpm.gpm_id] = current
            observations.append(
                GpmObservation(
                    gpm_id=gpm.gpm_id, utilization=utilization, current=current
                )
            )
        chosen_points = governor.on_chip_interval(observations, now, window)
        for gpm, observed, chosen in zip(self.gpms, observations, chosen_points):
            self._interval_utilization.add(observed.utilization)
            self._core_mhz.add(chosen.frequency_hz / 1e6)
            if chosen != observed.current:
                self._core_points[gpm.gpm_id] = chosen
                gpm.apply_core_point(chosen, governor.curve)
                if tracer.enabled:
                    tracer.instant(
                        "gpu",
                        f"dvfs.g{gpm.gpm_id}->{chosen.label()}",
                        now,
                        args={"utilization": round(observed.utilization, 3)},
                    )

    def _gated_kernel(self, gpm: Gpm, kernel, cta_ids: list[int]) -> Generator:
        """One GPM's kernel share, behind the wake stall its sleep state owes.

        Also records when the share drained: the span from there to the
        barrier is the gap :meth:`_account_idle_window` classifies.
        """
        gpm_id = gpm.gpm_id
        state = self._asleep[gpm_id]
        if state is not None:
            self._asleep[gpm_id] = None
            if state.exit_latency_cycles > 0.0:
                yield Timeout(state.exit_latency_cycles)
        yield from gpm.run_kernel(kernel, cta_ids)
        self._drain_cycle[gpm_id] = self.engine.now

    def _account_idle_window(self, start: float) -> None:
        """Classify each GPM's gap behind the kernel barrier just closed.

        A GPM that drained early (or had no share) sat idle until the
        barrier; if the gap clears a sleep state's break-even cost, the GPM
        entered that state: the entry latency stays awake (the drain and
        flush), the remainder of the gap is gated.  A GPM that was already
        gated and got no work stays gated across the whole window, paying
        no new entry cost.
        """
        idle = self.idle
        now = self.engine.now
        tracer = self.engine.tracer
        for gpm in self.gpms:
            gpm_id = gpm.gpm_id
            self._window_sleep[gpm_id] = 0.0
            state = self._asleep[gpm_id]
            if state is not None:
                slept = now - start
                if slept > 0.0:
                    sleeps = self._sleep_residency[gpm_id]
                    sleeps[state] = sleeps.get(state, 0.0) + slept
                    self._window_sleep[gpm_id] = slept
                continue
            drained = (
                self._drain_cycle[gpm_id] if self._had_share[gpm_id] else start
            )
            gap = now - drained
            state = idle.state_for_gap(gap)
            if state is None:
                continue
            slept = gap - state.entry_latency_cycles
            sleeps = self._sleep_residency[gpm_id]
            sleeps[state] = sleeps.get(state, 0.0) + slept
            self._window_sleep[gpm_id] = slept
            self._asleep[gpm_id] = state
            if tracer.enabled:
                tracer.instant(
                    "gpu",
                    f"idle.g{gpm_id}->{state.name}",
                    now,
                    args={"gap_cycles": round(gap, 1)},
                )

    def _workload_body(self, workload: Workload) -> Generator:
        tracer = self.engine.tracer
        if self.governor is not None:
            self.governor.on_run_begin(len(workload.kernels))
            self._busy_snapshot = [gpm.busy_cycles() for gpm in self.gpms]
        for kernel in workload.kernels:
            start = self.engine.now
            partitions = partition_ctas(
                kernel.num_ctas, self.config.num_gpms, self.partitioning
            )
            if tracer.enabled:
                tracer.begin(
                    "gpu",
                    kernel.name,
                    start,
                    args={
                        "ctas": kernel.num_ctas,
                        "warps_per_cta": kernel.warps_per_cta,
                    },
                )
            if self.idle is None:
                processes = [
                    self.engine.process(
                        gpm.run_kernel(kernel, cta_ids),
                        name=f"gpm{gpm.gpm_id}.{kernel.name}",
                    )
                    for gpm, cta_ids in zip(self.gpms, partitions)
                    if cta_ids
                ]
            else:
                processes = []
                for gpm, cta_ids in zip(self.gpms, partitions):
                    self._had_share[gpm.gpm_id] = bool(cta_ids)
                    if not cta_ids:
                        continue
                    processes.append(
                        self.engine.process(
                            self._gated_kernel(gpm, kernel, cta_ids),
                            name=f"gpm{gpm.gpm_id}.{kernel.name}",
                        )
                    )
            yield AllOf([process.done for process in processes])
            if tracer.enabled:
                tracer.end("gpu", self.engine.now)
            self.kernel_stats.append(
                KernelStats(kernel.name, start_cycle=start, end_cycle=self.engine.now)
            )
            if self.idle is not None:
                self._account_idle_window(start)
            self._govern_interval(start)
            if self.config.num_gpms > 1:
                self.coherence.kernel_boundary()
                if tracer.enabled:
                    tracer.instant("gpu", "coherence.flush", self.engine.now)

    def run(self, workload: Workload) -> CounterSet:
        """Execute ``workload`` to completion and return the filled counters."""
        self.placement.set_interleaved_from(workload.interleaved_base)
        driver = self.engine.process(self._workload_body(workload), name="driver")
        self.engine.run()
        if not driver.done.triggered:
            raise ConfigError(
                f"workload {workload.name!r} deadlocked: driver never finished"
            )
        elapsed = self.engine.now
        counters = self.counters
        for gpm, shard in zip(self.gpms, counters.per_gpm):
            gpm.compute_tally.fold_into(shard)
            shard.elapsed_cycles = elapsed
            shard.sm_busy_cycles = gpm.busy_cycles()
            shard.sm_idle_cycles = gpm.idle_cycles(elapsed)
        # Chip-global totals derive from the shards: integer sums are exact,
        # and the float sums accumulate in GPM order — the same association
        # order as summing the GPMs directly.
        for shard in counters.per_gpm:
            counters.merge(shard)
        counters.elapsed_cycles = elapsed
        if self.topology is not None:
            traffic = self.topology.traffic
            counters.inter_gpm_bytes = traffic.bytes_injected
            counters.inter_gpm_byte_hops = traffic.byte_hops
            counters.switch_byte_traversals = traffic.switch_byte_traversals
            if isinstance(self.topology, CompressedTopology):
                counters.compression_codec_bytes = self.topology.codec_bytes
        return counters

    def _normalized_core_histogram(
        self, gpm_id: int, elapsed: float
    ) -> ResidencyHistogram:
        """One GPM's governed core histogram, made to partition the run.

        Interval windows are float differences, so their sum drifts from the
        true elapsed time by accumulated dust — and trailing fire-and-forget
        drains extend the run past the last governor interval entirely.  Both
        gaps belong to the point the GPM last sat at, so the final bucket is
        set to exactly ``elapsed`` minus the other buckets — sleep buckets
        included — making ``total_cycles == elapsed`` hold in exact float64.
        """
        recorded = self._core_residency[gpm_id]
        sleep = (
            dict(self._sleep_residency[gpm_id])
            if self.idle is not None
            else {}
        )
        last = self._last_core_point[gpm_id]
        if last is None:
            return ResidencyHistogram(dict(recorded), sleep)
        cycles = {
            point: window
            for point, window in recorded.items()
            if point != last
        }
        residual = elapsed - sum(cycles.values()) - sum(sleep.values())
        cycles[last] = residual if residual > 0.0 else recorded.get(last, 0.0)
        return ResidencyHistogram(cycles, sleep)

    def residency(self) -> DvfsResidency:
        """Per-domain time-at-operating-point record of the finished run.

        Governed runs report the accumulated per-GPM core histograms (DRAM
        and interconnect stay at their configured static points); ungoverned
        runs degenerate to single-bucket histograms spanning the whole run.
        """
        dvfs = self.config.dvfs
        dram_point = dvfs.dram if dvfs is not None else K40_OPERATING_POINT
        ic_point = (
            dvfs.interconnect if dvfs is not None else K40_OPERATING_POINT
        )
        elapsed = self.engine.now
        if self.governor is not None:
            return DvfsResidency(
                core=tuple(
                    self._normalized_core_histogram(gpm_id, elapsed)
                    for gpm_id in range(len(self.gpms))
                ),
                dram=ResidencyHistogram.single(dram_point, elapsed),
                interconnect=ResidencyHistogram.single(ic_point, elapsed),
            )
        core_points = [
            dvfs.core_point_for(gpm.gpm_id) if dvfs is not None
            else K40_OPERATING_POINT
            for gpm in self.gpms
        ]
        if self.idle is None:
            return DvfsResidency.static_run(
                elapsed, core_points, dram_point, ic_point
            )
        # Ungoverned idle run: one awake bucket per GPM (its static point)
        # plus whatever it slept; awake = elapsed - slept by construction,
        # so every histogram partitions the run exactly.
        core = []
        for gpm_id, point in enumerate(core_points):
            sleep = dict(self._sleep_residency[gpm_id])
            awake = elapsed - sum(sleep.values())
            core.append(ResidencyHistogram({point: awake}, sleep))
        return DvfsResidency(
            core=tuple(core),
            dram=ResidencyHistogram.single(dram_point, elapsed),
            interconnect=ResidencyHistogram.single(ic_point, elapsed),
        )
