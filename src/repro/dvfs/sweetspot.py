"""Offline energy-sweet-spot search over the V/f grid.

For each (workload, GPU configuration) the search simulates every operating
point on a V/f curve — through the regular :class:`SweepRunner`, so results
land in the sweep cache and re-searches are free — prices each run with the
point-scaled :class:`~repro.core.energy_model.EnergyParams`, and reports the
point minimizing EDP (energy x delay) or ED²P (energy x delay²).

The physics that makes an *interior* optimum exist: below the sweet spot,
delay grows (even memory-bound workloads have compute phases) and the
platform's constant power integrates over that longer runtime; above it,
dynamic energy grows with V² while delay barely improves once the workload
is memory-bound.  Compute-bound workloads therefore peak near the top of the
curve, memory-bound ones well below it — the per-workload separation the
DVFS literature calls sweet-spot chasing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.energy_model import EnergyParams
from repro.dvfs.config import ClockDomain, DvfsConfig
from repro.dvfs.operating_point import K40_VF_CURVE, OperatingPoint
from repro.dvfs.selection import best_candidate
from repro.errors import ExperimentError
from repro.experiments.runner import SweepRunner
from repro.gpu.config import GpuConfig
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # deferred: repro.roofline is an optional fast path
    from repro.roofline.screen import ScreenDisposition

#: Supported optimization metrics.
METRICS = ("edp", "ed2p")


@dataclass(frozen=True)
class FrequencySample:
    """One simulated point of a sweet-spot curve."""

    point: OperatingPoint
    delay_s: float
    energy_j: float

    @property
    def edp(self) -> float:
        return self.energy_j * self.delay_s

    @property
    def ed2p(self) -> float:
        return self.energy_j * self.delay_s**2

    def score(self, metric: str) -> float:
        if metric == "edp":
            return self.edp
        if metric == "ed2p":
            return self.ed2p
        raise ExperimentError(f"unknown sweet-spot metric {metric!r}")


@dataclass(frozen=True)
class SweetSpot:
    """The optimum of one (workload, configuration) frequency sweep."""

    workload: str
    config_label: str
    num_gpms: int
    metric: str
    samples: tuple[FrequencySample, ...]
    #: Which clock domain the sweep walked ("core", "dram", "interconnect").
    domain: str = "core"
    #: Roofline screening record when this sweep was screened (None for an
    #: exhaustive sweep): which points were predicted vs. simulated.
    disposition: "ScreenDisposition | None" = None

    @property
    def best(self) -> FrequencySample:
        return best_candidate(
            self.samples,
            score=lambda sample: sample.score(self.metric),
            tie_key=lambda sample: (
                sample.point.frequency_hz,
                sample.point.label(),
            ),
        )

    @property
    def point(self) -> OperatingPoint:
        return self.best.point

    @property
    def below_max_clock(self) -> bool:
        """True when the optimum sits strictly below the curve's top point."""
        top = max(sample.point.frequency_hz for sample in self.samples)
        return self.point.frequency_hz < top

    def sample_at(self, frequency_hz: float) -> FrequencySample:
        for sample in self.samples:
            if sample.point.frequency_hz == frequency_hz:
                return sample
        raise ExperimentError(
            f"no sample at {frequency_hz / 1e6:g} MHz for {self.workload}"
        )


def with_operating_point(
    config: GpuConfig,
    point: OperatingPoint,
    domain: ClockDomain = ClockDomain.CORE,
) -> GpuConfig:
    """A copy of ``config`` with one clock domain moved to ``point``.

    ``domain`` selects which :class:`~repro.dvfs.config.ClockDomain` the
    point applies to; the other domains stay at the anchor (or wherever the
    existing ``config.dvfs`` already put them).  A configuration without
    DVFS gets the K40 ladder.
    """
    base = config.dvfs if config.dvfs is not None else DvfsConfig()
    if domain is ClockDomain.CORE:
        dvfs = base.with_core(point)
    elif domain is ClockDomain.DRAM:
        dvfs = replace(base, dram=point)
    else:
        dvfs = replace(base, interconnect=point)
    return replace(config, dvfs=dvfs)


class SweetSpotSearch:
    """Sweeps a V/f curve per workload x configuration and picks the optimum.

    The curve is the K40 ladder.  This is the one place an operating-point
    grid is expanded into pointed configurations, screened, and simulated.
    """

    def __init__(
        self,
        runner: SweepRunner,
        metric: str = "edp",
        points: tuple[OperatingPoint, ...] | None = None,
        domain: ClockDomain = ClockDomain.CORE,
        screen: str | None = None,
        top_k: int = 3,
        guard: int = 1,
    ):
        if metric not in METRICS:
            raise ExperimentError(
                f"metric must be one of {METRICS}, got {metric!r}"
            )
        self.runner = runner
        self.metric = metric
        self.domain = domain
        self.points = (
            tuple(points) if points is not None else K40_VF_CURVE.points
        )
        if not self.points:
            raise ExperimentError("sweet-spot search needs at least one point")
        for point in self.points:
            if not K40_VF_CURVE.contains(point):
                raise ExperimentError(
                    f"sweep point {point!r} lies outside the search curve"
                )
        if screen is not None:
            from repro.roofline.screen import validate_screen

            validate_screen(screen, top_k, guard)
        self.screen = screen
        self.top_k = top_k
        self.guard = guard

    def _select_points(
        self, specs: list[WorkloadSpec], configs: list[GpuConfig]
    ) -> dict[tuple[str, str], tuple]:
        """Per (config label, workload): (points to simulate, disposition).

        Exact mode selects every point with no disposition; roofline mode
        ranks the grid analytically and keeps the top ``top_k + guard``.
        """
        if self.screen is None:
            return {
                (config.label(), spec.abbr): (self.points, None)
                for config in configs
                for spec in specs
            }
        from repro.roofline.model import RooflinePredictor
        from repro.roofline.screen import screen_operating_points

        predictor = RooflinePredictor()
        return {
            (config.label(), spec.abbr): screen_operating_points(
                predictor,
                spec,
                config,
                self.points,
                domain=self.domain,
                metric=self.metric,
                top_k=self.top_k,
                guard=self.guard,
            )
            for config in configs
            for spec in specs
        }

    def search(
        self, specs: list[WorkloadSpec], configs: list[GpuConfig]
    ) -> list[SweetSpot]:
        """Sweep every (workload, config) over the point grid.

        Results come back ordered by (config, workload) input order.  All
        simulations go through one :meth:`SweepRunner.run` call, so they
        parallelize and cache like any other sweep.

        With ``screen="roofline"`` only the analytically ranked top
        ``top_k + guard`` points per (workload, config) are simulated; the
        simulated points go through the *same* pointed configurations (hence
        the same cache keys) an exhaustive sweep would use, and each returned
        :class:`SweetSpot` carries the screening disposition.
        """
        pointed = {
            (config.label(), point.frequency_hz): with_operating_point(
                config, point, domain=self.domain
            )
            for config in configs
            for point in self.points
        }
        selected = self._select_points(specs, configs)
        pairs = [
            (spec, pointed[(config.label(), point.frequency_hz)])
            for config in configs
            for spec in specs
            for point in selected[(config.label(), spec.abbr)][0]
        ]
        records = {
            (record.workload, record.config_label): record
            for record in self.runner.run(pairs)
        }

        spots: list[SweetSpot] = []
        for config in configs:
            for spec in specs:
                points, disposition = selected[(config.label(), spec.abbr)]
                samples = []
                for point in points:
                    cfg = pointed[(config.label(), point.frequency_hz)]
                    record = records[(spec.abbr, cfg.label())]
                    params = EnergyParams.for_operating_point(cfg)
                    samples.append(
                        FrequencySample(
                            point=point,
                            delay_s=record.seconds,
                            energy_j=record.energy(params).total,
                        )
                    )
                spots.append(
                    SweetSpot(
                        workload=spec.abbr,
                        config_label=config.label(),
                        num_gpms=config.num_gpms,
                        metric=self.metric,
                        samples=tuple(samples),
                        domain=self.domain.value,
                        disposition=disposition,
                    )
                )
        return spots

    def search_one(self, spec: WorkloadSpec, config: GpuConfig) -> SweetSpot:
        """Convenience wrapper for a single (workload, config) sweep."""
        return self.search([spec], [config])[0]
