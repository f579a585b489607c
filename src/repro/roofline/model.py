"""The closed-form roofline predictor.

The predictor mirrors the simulator's *accounting* exactly where the spec
makes it exact (instruction counts via the generator's largest-remainder
apportionment) and in *expectation* where the simulator's behaviour is
statistical (cache hits, NUMA routing, interconnect hops).  It builds a
predicted :class:`~repro.gpu.counters.CounterSet`, derives delay as a
roofline — the slowest of the issue-throughput, DRAM-bandwidth,
link-bandwidth, and latency-chain bounds — and prices energy through the
real :class:`~repro.core.energy_model.EnergyModel` at the configuration's
operating point, so the V² / f·V² DVFS scaling across candidate points is
exact even though the counters are approximate.

Power-capped configurations are predicted by a closed-form stand-in for the
:class:`~repro.dvfs.governor.PowerCapGovernor`: walk the V/f ladder from the
top and settle on the highest core point whose *predicted* chip power fits
the budget.

Counter semantics mirrored from :mod:`repro.memory.hierarchy`:

* every global line access counts one ``l1_rf_txns``; shared-memory accesses
  count ``shared_rf_txns`` instead;
* an L1 load miss moves :data:`~repro.units.SECTORS_PER_LINE` sectors from
  L2 (``l2_l1_txns``); an L2 miss moves them from DRAM (``dram_l2_txns``);
* a remote load sends a 32 B request header to the home GPM, probes the home
  L2 (hit: home ``l2_l1_txns``; miss: home ``dram_l2_txns``), and returns a
  128 B payload — all bytes counted per link hop;
* stores bypass L1 tags: local stores write-allocate in L2 (dirty evictions
  become DRAM writebacks), remote stores ship the 128 B payload to the home
  GPM's DRAM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.energy_model import EnergyBreakdown, EnergyModel, EnergyParams
from repro.dvfs.config import DvfsConfig
from repro.errors import ExperimentError
from repro.gpu.config import GpuConfig, TopologyKind
from repro.gpu.counters import CounterSet
from repro.roofline.calibration_params import (
    DEFAULT_CALIBRATION,
    RooflineCalibration,
)
from repro.units import (
    CACHE_LINE_BYTES,
    SECTOR_BYTES,
    SECTORS_PER_LINE,
    cycles_to_seconds,
    gbps_to_bytes_per_cycle,
)
from repro.workloads.generator import _apportion_mix
from repro.workloads.spec import WorkloadSpec

#: Request-header bytes of a remote access (mirrors repro.memory.hierarchy).
REQUEST_HEADER_BYTES: int = 32


def ring_mean_hops(num_gpms: int) -> float:
    """Exact mean shortest-path hop count of a bidirectional ring."""
    if num_gpms <= 1:
        return 0.0
    total = sum(min(d, num_gpms - d) for d in range(1, num_gpms))
    return total / (num_gpms - 1)


def mesh_mean_hops(num_gpms: int) -> float:
    """Exact mean torus hop count over the near-square mesh layout."""
    if num_gpms <= 1:
        return 0.0
    from repro.interconnect.mesh import grid_shape

    columns, rows = grid_shape(num_gpms)

    def axis_mean(extent: int) -> float:
        if extent <= 1:
            return 0.0
        return sum(min(d, extent - d) for d in range(extent)) / extent

    # Mean over uniformly random (src != dst): the per-axis means include the
    # dst == src cell, so rescale by n/(n-1) after summing the axes.
    mean_incl_self = axis_mean(columns) + axis_mean(rows)
    return mean_incl_self * num_gpms / (num_gpms - 1)


def _mean_hops(config: GpuConfig, neighbor: bool) -> float:
    """Mean link hops of one remote transfer.

    ``neighbor=True`` models halo traffic (the adjacent CTA's GPM — one hop
    on ring and mesh); ``False`` models uniformly scattered shared-region
    traffic.  A switch route is always two links (GPM -> switch -> GPM).
    """
    if config.interconnect is None or config.num_gpms <= 1:
        return 0.0
    kind = config.interconnect.kind
    if kind is TopologyKind.SWITCH:
        return 2.0
    if neighbor:
        return 1.0
    if kind is TopologyKind.MESH:
        return mesh_mean_hops(config.num_gpms)
    return ring_mean_hops(config.num_gpms)


def _switch_traversals(config: GpuConfig) -> float:
    if (
        config.interconnect is not None
        and config.interconnect.kind is TopologyKind.SWITCH
    ):
        return 1.0
    return 0.0


@dataclass(frozen=True)
class RooflinePrediction:
    """One analytical stand-in for a simulation result."""

    workload: str
    config_label: str
    num_gpms: int
    #: Predicted chip counters (float-valued expectations, no rounding).
    counters: CounterSet
    delay_s: float
    energy: EnergyBreakdown
    #: The roofline bound that set the delay ("issue", "dram", "link",
    #: "latency") — which wall the workload hit.
    bound: str
    #: Core operating point the prediction was priced at (the configured
    #: point, or the ladder point a predicted power cap settled on).
    effective_core_hz: float

    @property
    def energy_j(self) -> float:
        return self.energy.total

    @property
    def edp(self) -> float:
        return self.energy_j * self.delay_s

    @property
    def ed2p(self) -> float:
        return self.energy_j * self.delay_s**2

    @property
    def mean_power_w(self) -> float:
        return 0.0 if self.delay_s == 0.0 else self.energy_j / self.delay_s

    def score(self, metric: str) -> float:
        if metric == "edp":
            return self.edp
        if metric == "ed2p":
            return self.ed2p
        raise ExperimentError(f"unknown roofline metric {metric!r}")


@dataclass(frozen=True)
class _ClassTraffic:
    """Expected per-access-class behaviour feeding counters and latency."""

    loads: float
    stores: float
    remote_fraction: float
    l1_hit: float        # local-load L1 hit probability
    l2_hit: float        # L2 hit probability after an L1 miss (and at home)
    neighbor: bool       # remote traffic goes one hop, not uniform


class RooflinePredictor:
    """Closed-form (spec, config) -> (counters, delay, energy) predictor."""

    def __init__(self, calibration: RooflineCalibration | None = None):
        self.calibration = calibration or DEFAULT_CALIBRATION

    # ----------------------------------------------------------------- traffic

    def _shared_l2_hit(self, spec: WorkloadSpec, config: GpuConfig) -> float:
        """Capacity-aware L2 hit probability for shared-region traffic.

        The shared region scatters across every module's L2 under page
        interleaving; the hit probability falls off as the region outgrows
        the chip's aggregate L2.
        """
        cal = self.calibration
        if spec.shared_footprint_bytes <= 0:
            return cal.l2_hit_cap
        coverage = config.total_l2_bytes / spec.shared_footprint_bytes
        return min(cal.l2_hit_cap, cal.l2_shared_coverage * coverage)

    def _classes(
        self, spec: WorkloadSpec, config: GpuConfig
    ) -> dict[str, _ClassTraffic]:
        cal = self.calibration
        n = config.num_gpms
        accesses = float(spec.total_accesses)
        lds = accesses * spec.shared_mem_fraction
        global_accesses = accesses - lds
        loads = global_accesses * (1.0 - spec.store_fraction)
        stores = global_accesses * spec.store_fraction

        if n > 1:
            ctas_per_gpm = max(1.0, spec.total_ctas / n)
            halo_remote = min(1.0, 2.0 / ctas_per_gpm)
        else:
            halo_remote = 0.0
        shared_remote = spec.expected_shared_remote_fraction(n)
        shared_l2 = self._shared_l2_hit(spec, config)

        def cls(
            frac: float, remote: float, l1: float, l2: float, neighbor: bool
        ) -> _ClassTraffic:
            return _ClassTraffic(
                loads=loads * frac,
                stores=stores * frac,
                remote_fraction=remote,
                l1_hit=l1,
                l2_hit=l2,
                neighbor=neighbor,
            )

        return {
            "stream": cls(
                spec.frac_stream, 0.0, 0.0, cal.l2_hit_stream, False
            ),
            "reuse": cls(
                spec.frac_reuse, 0.0, cal.l1_hit_reuse, cal.l2_hit_cap, False
            ),
            "halo": cls(
                spec.frac_halo, halo_remote, 0.0, cal.l2_hit_halo, True
            ),
            "shared": cls(
                spec.frac_shared, shared_remote, 0.0, shared_l2, False
            ),
        }

    # ---------------------------------------------------------------- counters

    def predict_counters(
        self, spec: WorkloadSpec, config: GpuConfig
    ) -> CounterSet:
        """Expected chip counters (no delay-dependent fields filled in)."""
        cal = self.calibration
        counters = CounterSet()

        # Instruction counts are exact: the generator apportions the compute
        # mix per segment with largest remainders, identically per segment.
        total_segments = (
            spec.total_ctas
            * spec.warps_per_cta
            * spec.kernels
            * spec.segments_per_warp
        )
        for opcode, per_segment in _apportion_mix(
            spec.compute_mix, spec.compute_per_segment
        ).items():
            counters.count_instruction(opcode, per_segment * total_segments)

        accesses = float(spec.total_accesses)
        lds = accesses * spec.shared_mem_fraction
        counters.shared_rf_txns = lds
        counters.l1_rf_txns = accesses - lds

        classes = self._classes(spec, config)
        l2_l1 = 0.0
        dram_l2 = 0.0
        local_accesses = lds
        remote_accesses = 0.0
        inter_bytes = 0.0
        byte_hops = 0.0
        switch_bytes = 0.0
        switch_factor = _switch_traversals(config)
        for traffic in classes.values():
            remote = traffic.remote_fraction
            local_loads = traffic.loads * (1.0 - remote)
            remote_loads = traffic.loads * remote
            local_stores = traffic.stores * (1.0 - remote)
            remote_stores = traffic.stores * remote
            local_accesses += local_loads + local_stores
            remote_accesses += remote_loads + remote_stores

            # Local loads: L1 miss -> L2 sectors; L2 miss -> DRAM sectors.
            l1_misses = local_loads * (1.0 - traffic.l1_hit)
            l2_l1 += SECTORS_PER_LINE * l1_misses
            dram_l2 += SECTORS_PER_LINE * l1_misses * (1.0 - traffic.l2_hit)

            # Remote loads: home-L2 probe, payload both ways on the links.
            l2_l1 += SECTORS_PER_LINE * remote_loads * traffic.l2_hit
            dram_l2 += (
                SECTORS_PER_LINE * remote_loads * (1.0 - traffic.l2_hit)
            )
            load_bytes = remote_loads * (
                REQUEST_HEADER_BYTES + CACHE_LINE_BYTES
            )

            # Stores bypass L1: local write-allocate in L2 (dirty evictions
            # write back to DRAM), remote payloads land in the home DRAM.
            l2_l1 += SECTORS_PER_LINE * local_stores
            dram_l2 += (
                SECTORS_PER_LINE * local_stores * cal.writeback_fraction
            )
            dram_l2 += SECTORS_PER_LINE * remote_stores
            store_bytes = remote_stores * CACHE_LINE_BYTES

            hops = _mean_hops(config, traffic.neighbor)
            inter_bytes += load_bytes + store_bytes
            byte_hops += (load_bytes + store_bytes) * hops
            switch_bytes += (load_bytes + store_bytes) * switch_factor

        counters.l2_l1_txns = l2_l1
        counters.dram_l2_txns = dram_l2
        counters.inter_gpm_bytes = inter_bytes
        counters.inter_gpm_byte_hops = byte_hops
        counters.switch_byte_traversals = switch_bytes
        counters.local_accesses = local_accesses
        counters.remote_accesses = remote_accesses
        return counters

    # ------------------------------------------------------------------- delay

    def _domain_ratios(
        self, config: GpuConfig, dvfs: DvfsConfig | None
    ) -> tuple[float, float, float]:
        """(core_f, dram_f, interconnect_f) frequency ratios vs. the anchor.

        With per-GPM core clocks the chip finishes when its *slowest* module
        does, but remote traffic still progresses at the home modules' pace —
        so the effective core ratio is a harmonic blend of the mean and the
        straggler, weighted by the calibrated ``straggler_weight``.
        """
        if dvfs is None:
            return 1.0, 1.0, 1.0
        core_f, _core_v = dvfs.mean_core_ratios(config.num_gpms)
        if dvfs.core_per_gpm:
            w = self.calibration.straggler_weight
            min_f = min(
                dvfs.curve.frequency_ratio(point)
                for point in dvfs.core_per_gpm
            )
            core_f = 1.0 / ((1.0 - w) / core_f + w / min_f)
        return (
            core_f,
            dvfs.curve.frequency_ratio(dvfs.dram),
            dvfs.curve.frequency_ratio(dvfs.interconnect),
        )

    def _mean_access_latency(
        self,
        spec: WorkloadSpec,
        config: GpuConfig,
        classes: dict[str, _ClassTraffic],
        ratios: tuple[float, float, float],
    ) -> float:
        """Expected anchor-cycle latency of one warp memory access."""
        cal = self.calibration
        core_f, dram_f, ic_f = ratios
        lat = config.gpm.latencies
        dram_lat = config.gpm.dram.latency_cycles / dram_f
        link = config.interconnect
        link_lat = 0.0 if link is None else link.link_latency_cycles / ic_f
        link_rate = (
            0.0
            if link is None
            else gbps_to_bytes_per_cycle(
                link.per_gpm_bandwidth_gbps, config.gpm.clock_hz
            )
            * ic_f
        )

        accesses = float(spec.total_accesses)
        if accesses == 0.0:
            return 0.0
        lds = accesses * spec.shared_mem_fraction
        weighted = lds * (lat.shared / core_f)
        for traffic in classes.values():
            remote = traffic.remote_fraction
            l1_lat = lat.l1 / core_f
            l2_lat = (lat.l1 + lat.l2) / core_f
            dram_path = l2_lat + dram_lat
            local_load_lat = (
                traffic.l1_hit * l1_lat
                + (1.0 - traffic.l1_hit)
                * (traffic.l2_hit * l2_lat + (1.0 - traffic.l2_hit) * dram_path)
            )
            hops = _mean_hops(config, traffic.neighbor)
            # Round trip: header out, home probe, payload back.
            serialization = (
                0.0
                if link_rate == 0.0
                else (REQUEST_HEADER_BYTES + CACHE_LINE_BYTES) / link_rate
            )
            remote_load_lat = (
                l1_lat
                + 2.0 * hops * link_lat
                + serialization
                + traffic.l2_hit * l2_lat
                + (1.0 - traffic.l2_hit) * dram_path
            )
            load_lat = (
                (1.0 - remote) * local_load_lat + remote * remote_load_lat
            )
            # Stores are fire-and-forget past the L2 front; the warp only
            # pays the on-module pipeline.
            store_lat = cal.store_latency_weight * l2_lat
            weighted += traffic.loads * load_lat + traffic.stores * store_lat
        return weighted / accesses

    def predict_delay_cycles(
        self,
        spec: WorkloadSpec,
        config: GpuConfig,
        dvfs: DvfsConfig | None = None,
        counters: CounterSet | None = None,
    ) -> tuple[float, str]:
        """(anchor cycles, binding bound) for one pair at one DVFS setting."""
        cal = self.calibration
        dvfs = dvfs if dvfs is not None else config.dvfs
        ratios = self._domain_ratios(config, dvfs)
        core_f, dram_f, ic_f = ratios
        if counters is None:
            counters = self.predict_counters(spec, config)
        gpm = config.gpm

        # Issue-throughput roof: every SM issuing flat out.
        t_issue = spec.total_warp_instructions / (
            config.total_sms * gpm.issue_rate * core_f
        )

        # DRAM-bandwidth roof: sector traffic over the per-GPM stacks.
        dram_rate = gbps_to_bytes_per_cycle(
            gpm.dram.bandwidth_gbps, gpm.clock_hz
        )
        t_dram = (counters.dram_l2_txns * SECTOR_BYTES) / (
            config.num_gpms * dram_rate * dram_f
        )

        # Link-bandwidth roof: byte-hops over the aggregate link capacity
        # (each GPM's I/O budget is split across its links, so the network
        # serializes ~num_gpms x per-GPM bandwidth of byte-hops per cycle).
        t_link = 0.0
        if config.interconnect is not None and counters.inter_gpm_byte_hops:
            link_rate = gbps_to_bytes_per_cycle(
                config.interconnect.per_gpm_bandwidth_gbps, gpm.clock_hz
            )
            t_link = counters.inter_gpm_byte_hops / (
                config.num_gpms * link_rate * ic_f
            )

        # Latency roof: CTA waves through the slot grid, each warp walking
        # its segment chain with the software-pipelined overlap the engine
        # actually achieves (depth 2).
        slots = config.num_gpms * gpm.num_sms * gpm.slots_per_sm
        waves = math.ceil(spec.total_ctas / slots)
        mean_lat = self._mean_access_latency(spec, config, self._classes(spec, config), ratios)
        t_warp = spec.segments_per_warp * (
            spec.compute_per_segment / core_f
            + spec.accesses_per_segment * mean_lat / cal.pipeline_overlap
        )
        t_latency = cal.latency_scale * spec.kernels * waves * t_warp

        bounds = {
            "issue": t_issue,
            "dram": t_dram,
            "link": t_link,
            "latency": t_latency,
        }
        bound = max(bounds, key=lambda name: bounds[name])
        return bounds[bound], bound

    # ------------------------------------------------------------------ energy

    def _finish(
        self,
        spec: WorkloadSpec,
        config: GpuConfig,
        dvfs: DvfsConfig | None,
        effective_core_hz: float,
    ) -> RooflinePrediction:
        counters = self.predict_counters(spec, config)
        cycles, bound = self.predict_delay_cycles(
            spec, config, dvfs=dvfs, counters=counters
        )
        core_f, _dram_f, _ic_f = self._domain_ratios(config, dvfs)
        busy = spec.total_warp_instructions / (config.gpm.issue_rate * core_f)
        counters.sm_busy_cycles = min(busy, cycles * config.total_sms)
        counters.sm_idle_cycles = max(
            0.0, cycles * config.total_sms - counters.sm_busy_cycles
        )
        counters.elapsed_cycles = cycles
        delay_s = cycles_to_seconds(cycles, config.gpm.clock_hz)
        params = EnergyParams.for_operating_point(config, dvfs=dvfs)
        energy = EnergyModel(params).evaluate(counters, delay_s)
        return RooflinePrediction(
            workload=spec.abbr,
            config_label=config.label(),
            num_gpms=config.num_gpms,
            counters=counters,
            delay_s=delay_s,
            energy=energy,
            bound=bound,
            effective_core_hz=effective_core_hz,
        )

    def predict(
        self, spec: WorkloadSpec, config: GpuConfig
    ) -> RooflinePrediction:
        """Predict counters, delay, and energy for one (spec, config) pair.

        A ``power_cap_watts`` configuration is predicted at the capping
        governor's *own* waterfill allocation (uniform priorities, the
        steady state it oscillates around): the governor budgets with its
        worst-case :class:`~repro.dvfs.governor.GpmPowerModel`, so reusing
        that arithmetic — not the predicted mean power — is what lands on
        the rungs the simulated run actually dwells at.
        """
        if spec.phases is not None:
            raise ExperimentError(
                f"{spec.abbr}: the roofline model does not cover"
                " phase-scheduled workloads (per-kernel mixes break the"
                " expectation counters); run the simulator instead"
            )
        dvfs = config.dvfs
        core_hz = (
            dvfs.core.frequency_hz
            if dvfs is not None and not dvfs.core_per_gpm
            else config.gpm.clock_hz
        )
        if config.power_cap_watts is None:
            return self._finish(spec, config, dvfs, core_hz)

        from repro.dvfs.governor import PowerCapGovernor
        from repro.dvfs.operating_point import K40_VF_CURVE

        curve = dvfs.curve if dvfs is not None else K40_VF_CURVE
        allocation = PowerCapGovernor(
            curve=curve, cap_watts=config.power_cap_watts
        ).initial_points(config.num_gpms)
        base = dvfs if dvfs is not None else DvfsConfig(curve=curve)
        capped = replace(base, core_per_gpm=tuple(allocation))
        mean_hz = sum(point.frequency_hz for point in allocation) / len(
            allocation
        )
        return self._finish(spec, config, capped, mean_hz)
