"""Per-domain operating-point residency: time-at-point histograms.

A governed run no longer has *one* operating point per domain — each GPM's
core domain walks the V/f ladder as the governor redistributes the chip
power budget.  Pricing such a run at any single point misstates its energy;
the faithful quantity is the *residency*: how many anchor cycles each clock
domain spent at each operating point.

With idle states configured (:mod:`repro.dvfs.idle`) a core domain can also
spend cycles *gated*: those land in sleep buckets keyed by
:class:`~repro.dvfs.idle.SleepState` alongside the operating-point buckets,
and active + gated buckets together partition the run.

:class:`ResidencyHistogram` is one domain's histogram; :class:`DvfsResidency`
bundles every domain of a run (per-GPM core plus the chip-global DRAM and
interconnect domains).  The energy model folds a residency into its pricing
via :meth:`repro.core.energy_model.EnergyParams.for_operating_point` — each
per-event cost becomes the time-weighted mean of its point-scaled values,
which is exact for the constant-rate approximation the global counters force
(see ``docs/POWER.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.dvfs.idle import SleepState
from repro.dvfs.operating_point import OperatingPoint, VfCurve
from repro.errors import ConfigError


@dataclass
class ResidencyHistogram:
    """Anchor cycles spent at each operating point of one clock domain.

    ``cycles`` holds the awake buckets (one per operating point);
    ``sleep_cycles`` holds the gated buckets (one per sleep state).  The two
    together account every anchor cycle of the domain's window.
    """

    cycles: dict[OperatingPoint, float] = field(default_factory=dict)
    sleep_cycles: dict[SleepState, float] = field(default_factory=dict)

    def add(self, point: OperatingPoint, cycles: float) -> None:
        """Accumulate ``cycles`` anchor cycles of residency at ``point``."""
        if cycles < 0:
            raise ConfigError(f"residency cycles must be non-negative: {cycles!r}")
        if cycles == 0:
            return
        self.cycles[point] = self.cycles.get(point, 0.0) + cycles

    def add_sleep(self, state: SleepState, cycles: float) -> None:
        """Accumulate ``cycles`` anchor cycles spent gated in ``state``."""
        if cycles < 0:
            raise ConfigError(f"residency cycles must be non-negative: {cycles!r}")
        if cycles == 0:
            return
        self.sleep_cycles[state] = self.sleep_cycles.get(state, 0.0) + cycles

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles.values()) + sum(self.sleep_cycles.values())

    @property
    def total_sleep_cycles(self) -> float:
        return sum(self.sleep_cycles.values())

    @staticmethod
    def _complement_shares(buckets: dict) -> dict:
        """Shares that exactly partition the bucket total.

        A single-bucket histogram yields exactly ``{bucket: 1.0}`` (a float
        divided by itself), so static residencies price bit-identically to
        the direct per-point scaling.

        Multi-bucket shares must exactly partition the run: each division
        rounds, so the naive shares can sum to 1.0 ± a few ulp.  The largest
        bucket is therefore priced as the complement of the others and placed
        *last* in the returned dict — summing the values in iteration order
        then computes ``s + fl(1.0 - s)``, which rounds to exactly 1.0
        (Sterbenz for s >= 0.5; within a quarter ulp of 1.0 otherwise).
        One complement over *all* buckets — active and sleep alike — keeps
        the invariant with any number of bucket kinds.
        """
        total = sum(buckets.values())
        if total <= 0:
            return {}
        if len(buckets) == 1:
            ((bucket, cycles),) = buckets.items()
            return {bucket: cycles / total}
        largest = max(buckets, key=lambda bucket: buckets[bucket])
        shares = {
            bucket: cycles / total
            for bucket, cycles in buckets.items()
            if bucket is not largest
        }
        shares[largest] = 1.0 - sum(shares.values())
        return shares

    def fractions(self) -> dict:
        """Time share per bucket (operating points *and* sleep states).

        Empty histograms have no fractions.  The shares partition the window
        exactly — see :meth:`_complement_shares`.
        """
        return self._complement_shares({**self.cycles, **self.sleep_cycles})

    def active_fractions(self) -> dict[OperatingPoint, float]:
        """Awake-time share per operating point, renormalized over awake time.

        Per-event costs (instructions, transfers) only accrue while the
        domain is awake, so their residency weighting ignores the gated
        buckets.  Without sleep buckets this is exactly :meth:`fractions`.
        """
        return self._complement_shares(dict(self.cycles))

    def weighted_mean(self, fn: Callable[[float, float], float], curve: VfCurve) -> float:
        """Awake-time-weighted mean of ``fn(freq_ratio, volt_ratio)``.

        An empty histogram means the domain never ran; return the anchor
        value ``fn(1.0, 1.0)`` so zero-length runs price like anchor runs.
        """
        fractions = self.active_fractions()
        if not fractions:
            return fn(1.0, 1.0)
        total = 0.0
        for point, weight in fractions.items():
            total += weight * fn(
                curve.frequency_ratio(point), curve.voltage_ratio(point)
            )
        return total

    def weighted_mean_with_sleep(
        self,
        fn: Callable[[float, float], float],
        curve: VfCurve,
        sleep_value: Callable[[SleepState], float],
    ) -> float:
        """Full-time-weighted mean: awake buckets via ``fn``, gated via
        ``sleep_value``.

        Per-*cycle* costs (stall power, constant power) accrue around the
        clock, so their weighting spans every bucket; a gated bucket
        contributes whatever residual the sleep state still burns.  Without
        sleep buckets this reduces bit-identically to :meth:`weighted_mean`.
        """
        fractions = self.fractions()
        if not fractions:
            return fn(1.0, 1.0)
        total = 0.0
        for bucket, weight in fractions.items():
            if isinstance(bucket, OperatingPoint):
                total += weight * fn(
                    curve.frequency_ratio(bucket), curve.voltage_ratio(bucket)
                )
            else:
                total += weight * sleep_value(bucket)
        return total

    @classmethod
    def single(cls, point: OperatingPoint, cycles: float) -> "ResidencyHistogram":
        """A one-bucket histogram: the whole window at one point."""
        histogram = cls()
        histogram.add(point, cycles)
        return histogram

    # ----------------------------------------------------------- serialization

    def to_json(self) -> list[dict]:
        """Stable JSON form: points sorted by frequency, then sleep states
        sorted by name.  Sleep-free histograms serialize byte-identically to
        the pre-idle format."""
        entries: list[dict] = [
            {
                "point": point.label(),
                "frequency_hz": point.frequency_hz,
                "voltage_v": point.voltage_v,
                "cycles": cycles,
            }
            for point, cycles in sorted(
                self.cycles.items(), key=lambda item: item[0].frequency_hz
            )
        ]
        entries.extend(
            {
                "sleep": state.name,
                "entry_latency_cycles": state.entry_latency_cycles,
                "exit_latency_cycles": state.exit_latency_cycles,
                "residual_fraction": state.residual_fraction,
                "cycles": cycles,
            }
            for state, cycles in sorted(
                self.sleep_cycles.items(), key=lambda item: item[0].name
            )
        )
        return entries

    @classmethod
    def from_json(cls, data: list[dict]) -> "ResidencyHistogram":
        histogram = cls()
        for entry in data:
            if "sleep" in entry:
                histogram.add_sleep(
                    SleepState(
                        name=entry["sleep"],
                        entry_latency_cycles=entry["entry_latency_cycles"],
                        exit_latency_cycles=entry["exit_latency_cycles"],
                        residual_fraction=entry["residual_fraction"],
                    ),
                    entry["cycles"],
                )
                continue
            histogram.add(
                OperatingPoint(
                    frequency_hz=entry["frequency_hz"],
                    voltage_v=entry["voltage_v"],
                    name=entry.get("point", ""),
                ),
                entry["cycles"],
            )
        return histogram


@dataclass
class DvfsResidency:
    """Every clock domain's residency for one run.

    ``core`` holds one histogram per GPM (core domains are per-module); the
    DRAM and interconnect domains are chip-global and hold one each.  For an
    ungoverned run every histogram has a single bucket spanning the whole
    run — see :meth:`static_run`.  Only core domains ever carry sleep
    buckets: DRAM and the interconnect stay powered for the chip.
    """

    core: tuple[ResidencyHistogram, ...]
    dram: ResidencyHistogram
    interconnect: ResidencyHistogram

    def __post_init__(self) -> None:
        if not self.core:
            raise ConfigError("a residency needs at least one core domain")

    @classmethod
    def static_run(
        cls,
        elapsed_cycles: float,
        core_points: list[OperatingPoint],
        dram_point: OperatingPoint,
        interconnect_point: OperatingPoint,
    ) -> "DvfsResidency":
        """The degenerate residency of a run that never changed points."""
        return cls(
            core=tuple(
                ResidencyHistogram.single(point, elapsed_cycles)
                for point in core_points
            ),
            dram=ResidencyHistogram.single(dram_point, elapsed_cycles),
            interconnect=ResidencyHistogram.single(
                interconnect_point, elapsed_cycles
            ),
        )

    @property
    def num_gpms(self) -> int:
        return len(self.core)

    @property
    def total_sleep_cycles(self) -> float:
        """Gated cycles summed over every core domain (0.0 without idle)."""
        return sum(hist.total_sleep_cycles for hist in self.core)

    def domain_fractions(self) -> dict[str, list[dict[str, float]]]:
        """Per-domain time shares keyed by bucket label (invariant checks)."""
        return {
            "core": [
                {bucket.label(): share for bucket, share in hist.fractions().items()}
                for hist in self.core
            ],
            "dram": [
                {point.label(): share
                 for point, share in self.dram.fractions().items()}
            ],
            "interconnect": [
                {point.label(): share
                 for point, share in self.interconnect.fractions().items()}
            ],
        }

    # ----------------------------------------------------------- serialization

    def to_json(self) -> dict:
        return {
            "core": [hist.to_json() for hist in self.core],
            "dram": self.dram.to_json(),
            "interconnect": self.interconnect.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DvfsResidency":
        return cls(
            core=tuple(
                ResidencyHistogram.from_json(hist) for hist in data["core"]
            ),
            dram=ResidencyHistogram.from_json(data["dram"]),
            interconnect=ResidencyHistogram.from_json(data["interconnect"]),
        )
