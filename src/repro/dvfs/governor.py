"""DVFS governors: policies that pick core operating points at runtime.

A governor steers each GPM's *core* domain while a workload runs.  The
driver (:class:`~repro.gpu.multigpu.MultiGpu`) consults it at every kernel
boundary — the natural synchronization point of the bulk-synchronous
workloads — handing it the GPM's issue-stage utilization over the interval
just finished (the same busy/idle counters the ``MetricsRegistry`` profile
view reports).  The governor answers with the point to run the next interval
at and keeps a decision trace for analysis.

Three policies ship here:

* :class:`StaticGovernor` pins every GPM to one point (the building block of
  offline sweeps — :mod:`repro.dvfs.sweetspot` prefers static *configs* so
  the sweep cache applies, but the governor form exists for runtime use).
* :class:`UtilizationGovernor` is the classic interval-based ondemand rule:
  step up the V/f ladder when the SMs are issue-bound, step down when they
  mostly idle on memory — the behaviour that turns memory-bound phases into
  energy savings at near-zero delay cost.
* :class:`PowerCapGovernor` enforces a chip-level watt budget across all
  GPMs, waterfilling operating points by utilization each interval.  Unlike
  the per-GPM policies it decides for the whole chip at once, through the
  batch :meth:`Governor.on_chip_interval` entry point.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

from repro.dvfs.operating_point import K40_VF_CURVE, OperatingPoint, VfCurve
from repro.errors import ConfigError


@dataclass(frozen=True)
class GovernorDecision:
    """One governor consultation: what was observed and what was chosen."""

    at_cycle: float
    gpm_id: int
    window_cycles: float
    utilization: float
    point: OperatingPoint
    #: Chip-level worst-case power estimate for the chosen allocation (W);
    #: 0.0 for governors without a power model.
    estimated_chip_watts: float = 0.0


@dataclass(frozen=True)
class GpmObservation:
    """What the driver observed about one GPM over the interval just closed."""

    gpm_id: int
    utilization: float
    current: OperatingPoint


@dataclass
class Governor(abc.ABC):
    """Base class for per-GPM core-domain DVFS policies."""

    curve: VfCurve = field(default_factory=lambda: K40_VF_CURVE)
    trace: list[GovernorDecision] = field(default_factory=list, repr=False)

    @abc.abstractmethod
    def initial_point(self, gpm_id: int) -> OperatingPoint:
        """The point a GPM starts the workload at."""

    @abc.abstractmethod
    def decide(
        self, gpm_id: int, utilization: float, current: OperatingPoint
    ) -> OperatingPoint:
        """Pick the next interval's point from the last interval's load."""

    def on_run_begin(self, total_kernels: int) -> None:
        """Called once before the workload launches (kernel count known).

        Pacing policies need the run's shape up front; interval policies
        ignore it, so the default is a no-op.
        """

    # ------------------------------------------------------------- chip level

    def initial_points(self, num_gpms: int) -> list[OperatingPoint]:
        """The points every GPM starts the workload at (chip-wide view).

        Per-GPM policies delegate to :meth:`initial_point`; chip-level
        policies (the power-capping governor) override this to allocate a
        feasible starting distribution.
        """
        return [self.initial_point(gpm_id) for gpm_id in range(num_gpms)]

    def decide_chip(
        self, observations: list[GpmObservation]
    ) -> list[OperatingPoint]:
        """Pick every GPM's next point jointly (default: independent)."""
        return [
            self.decide(obs.gpm_id, obs.utilization, obs.current)
            for obs in observations
        ]

    def chip_watts_estimate(self, points: list[OperatingPoint]) -> float:
        """Worst-case chip power of an allocation (0.0 without a model)."""
        return 0.0

    def on_chip_interval(
        self,
        observations: list[GpmObservation],
        now: float,
        window_cycles: float,
    ) -> list[OperatingPoint]:
        """Driver entry point: decide for the chip, record, return points."""
        points = self.decide_chip(observations)
        estimated = self.chip_watts_estimate(points)
        for obs, point in zip(observations, points):
            self.trace.append(
                GovernorDecision(
                    at_cycle=now,
                    gpm_id=obs.gpm_id,
                    window_cycles=window_cycles,
                    utilization=obs.utilization,
                    point=point,
                    estimated_chip_watts=estimated,
                )
            )
        return points

    def decisions_for(self, gpm_id: int) -> list[GovernorDecision]:
        """This GPM's slice of the decision trace, in time order."""
        return [d for d in self.trace if d.gpm_id == gpm_id]


@dataclass
class StaticGovernor(Governor):
    """Pin every GPM to one fixed operating point for the whole run."""

    point: OperatingPoint = field(default_factory=lambda: K40_VF_CURVE.anchor)

    def __post_init__(self) -> None:
        if not self.curve.contains(self.point):
            raise ConfigError(
                f"static point {self.point!r} lies outside the governor curve"
            )

    def initial_point(self, gpm_id: int) -> OperatingPoint:
        return self.point

    def decide(
        self, gpm_id: int, utilization: float, current: OperatingPoint
    ) -> OperatingPoint:
        return self.point


@dataclass
class UtilizationGovernor(Governor):
    """Interval-based ondemand policy over the issue-stage utilization.

    When a GPM's SMs were issue-busy at least ``high_watermark`` of the last
    interval, the core steps one rung up the curve (it is compute-bound:
    frequency buys delay).  When they were busy at most ``low_watermark``,
    it steps one rung down (it is memory/stall-bound: frequency buys nothing
    but V² energy).  In between, the point holds.
    """

    high_watermark: float = 0.75
    low_watermark: float = 0.35
    start: OperatingPoint | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_watermark < self.high_watermark <= 1.0:
            raise ConfigError(
                "watermarks must satisfy 0 <= low < high <= 1; got"
                f" low={self.low_watermark!r} high={self.high_watermark!r}"
            )
        if self.start is not None and not self.curve.contains(self.start):
            raise ConfigError(
                f"start point {self.start!r} lies outside the governor curve"
            )

    def initial_point(self, gpm_id: int) -> OperatingPoint:
        return self.start if self.start is not None else self.curve.anchor

    def decide(
        self, gpm_id: int, utilization: float, current: OperatingPoint
    ) -> OperatingPoint:
        if utilization >= self.high_watermark:
            return self.curve.step_up(current)
        if utilization <= self.low_watermark:
            return self.curve.step_down(current)
        return current


#: Default worst-case per-GPM power at the anchor point: a 250 W board
#: budget split over the four-module building block the paper scales from.
DEFAULT_GPM_ANCHOR_WATTS: float = 62.5


@dataclass(frozen=True)
class GpmPowerModel:
    """Worst-case per-GPM power as a function of its core operating point.

    The shape mirrors the energy model's constant-power split: an idle share
    (leakage ∝ V plus idle clocking ∝ f·V²) and a dynamic share (switching
    ∝ f·V²).  ``point_watts`` evaluates the *full-utilization* draw — the
    power-capping governor budgets against the worst case so a utilization
    spike inside an interval can never blow the cap.
    """

    anchor_watts: float = DEFAULT_GPM_ANCHOR_WATTS
    idle_fraction: float = 0.4
    leakage_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.anchor_watts <= 0:
            raise ConfigError(
                f"anchor_watts must be positive, got {self.anchor_watts!r}"
            )
        for name in ("idle_fraction", "leakage_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"{name} is a share in [0, 1]; got {value!r}"
                )

    def point_watts(self, curve: VfCurve, point: OperatingPoint) -> float:
        """Worst-case (full-utilization) watts of one GPM at ``point``.

        Strictly increasing along a validated V/f ladder — both the static
        and the dynamic share grow with frequency and voltage — which is
        what makes the waterfilling allocation's budget check sufficient.
        """
        freq = curve.frequency_ratio(point)
        volt = curve.voltage_ratio(point)
        static = (
            self.leakage_fraction * volt
            + (1.0 - self.leakage_fraction) * freq * (volt * volt)
        )
        dynamic = freq * (volt * volt)
        return self.anchor_watts * (
            self.idle_fraction * static + (1.0 - self.idle_fraction) * dynamic
        )

    def chip_watts(
        self, curve: VfCurve, points: list[OperatingPoint]
    ) -> float:
        """Worst-case chip power of one allocation (summed in GPM order)."""
        total = 0.0
        for point in points:
            total += self.point_watts(curve, point)
        return total


@dataclass
class PowerCapGovernor(Governor):
    """Chip-level power capping: waterfill points by utilization under a cap.

    Every interval the governor recomputes a *target* allocation: starting
    from the floor point, it raises GPMs one rung at a time — most-utilized
    first, ties broken by GPM id — as long as the chip's worst-case power
    stays within ``cap_watts``, never above ``ceiling`` (the anchor point by
    default, so an infinite cap reproduces the ungoverned run bit-for-bit).

    Two hysteresis mechanisms damp oscillation: utilization is smoothed with
    an exponential moving average (``smoothing``), and a GPM climbs at most
    one rung per interval toward its target.  Downward moves apply
    immediately — the cap is a hard constraint, so every chosen allocation
    satisfies ``chip_watts(chosen) <= cap_watts`` at every interval.
    """

    cap_watts: float = math.inf
    power_model: GpmPowerModel = field(default_factory=GpmPowerModel)
    floor: OperatingPoint | None = None
    ceiling: OperatingPoint | None = None
    smoothing: float = 0.5
    _smoothed: dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.cap_watts > 0:
            raise ConfigError(
                f"cap_watts must be positive, got {self.cap_watts!r}"
            )
        if not 0.0 < self.smoothing <= 1.0:
            raise ConfigError(
                f"smoothing must lie in (0, 1], got {self.smoothing!r}"
            )
        for name in ("floor", "ceiling"):
            point = getattr(self, name)
            if point is not None and not self.curve.contains(point):
                raise ConfigError(
                    f"{name} point {point!r} lies outside the governor curve"
                )
        if self.floor_point.frequency_hz > self.ceiling_point.frequency_hz:
            raise ConfigError(
                f"floor {self.floor_point!r} sits above ceiling"
                f" {self.ceiling_point!r}"
            )

    @property
    def floor_point(self) -> OperatingPoint:
        return self.floor if self.floor is not None else self.curve.points[0]

    @property
    def ceiling_point(self) -> OperatingPoint:
        return self.ceiling if self.ceiling is not None else self.curve.anchor

    # -------------------------------------------------------------- allocation

    def chip_watts_estimate(self, points: list[OperatingPoint]) -> float:
        return self.power_model.chip_watts(self.curve, points)

    def _waterfill(self, priorities: list[float]) -> list[OperatingPoint]:
        """Budget-feasible allocation: raise rungs by priority under the cap.

        Round-based waterfilling: each pass offers every GPM one rung, in
        descending priority order (ties by GPM id), accepting a raise only
        when the whole chip still fits the budget.  The returned allocation
        therefore always satisfies ``chip_watts(points) <= cap_watts`` —
        including at the all-floor start, which :meth:`initial_points`
        validates against the cap.
        """
        curve = self.curve
        ceiling_hz = self.ceiling_point.frequency_hz
        points = [self.floor_point] * len(priorities)
        order = sorted(
            range(len(priorities)), key=lambda idx: (-priorities[idx], idx)
        )
        raised = True
        while raised:
            raised = False
            for idx in order:
                current = points[idx]
                if current.frequency_hz >= ceiling_hz:
                    continue
                upper = curve.step_up(current)
                if upper.frequency_hz > ceiling_hz:
                    continue
                points[idx] = upper
                if self.power_model.chip_watts(curve, points) <= self.cap_watts:
                    raised = True
                else:
                    points[idx] = current
        return points

    def initial_points(self, num_gpms: int) -> list[OperatingPoint]:
        floor_watts = self.power_model.chip_watts(
            self.curve, [self.floor_point] * num_gpms
        )
        if floor_watts > self.cap_watts:
            raise ConfigError(
                f"cap {self.cap_watts:g} W is infeasible: {num_gpms} GPMs draw"
                f" {floor_watts:g} W even at the floor point"
                f" {self.floor_point.label()}"
            )
        # Uniform priorities: with no load history, waterfill round-robin.
        return self._waterfill([1.0] * num_gpms)

    def initial_point(self, gpm_id: int) -> OperatingPoint:
        """Single-GPM fallback (chip-level callers use initial_points)."""
        return self.initial_points(1)[0]

    # --------------------------------------------------------------- decisions

    def decide_chip(
        self, observations: list[GpmObservation]
    ) -> list[OperatingPoint]:
        priorities = []
        for obs in observations:
            previous = self._smoothed.get(obs.gpm_id, obs.utilization)
            smoothed = (
                self.smoothing * obs.utilization
                + (1.0 - self.smoothing) * previous
            )
            self._smoothed[obs.gpm_id] = smoothed
            priorities.append(smoothed)
        targets = self._waterfill(priorities)
        chosen: list[OperatingPoint] = []
        for obs, target in zip(observations, targets):
            current = obs.current
            if target.frequency_hz < current.frequency_hz:
                # Over-budget GPMs drop to target immediately: the cap is hard.
                chosen.append(target)
            elif target.frequency_hz > current.frequency_hz:
                # Climb one rung per interval (hysteresis against thrash);
                # step_up never overshoots target, so the budget still holds.
                chosen.append(self.curve.step_up(current))
            else:
                chosen.append(current)
        return chosen

    def decide(
        self, gpm_id: int, utilization: float, current: OperatingPoint
    ) -> OperatingPoint:
        """Per-GPM view of the chip decision (single-observation chip)."""
        return self.decide_chip(
            [GpmObservation(gpm_id, utilization, current)]
        )[0]
