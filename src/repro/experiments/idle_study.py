"""Idle study: race-to-idle vs. pacing when GPMs can actually sleep.

The power-gating study (:mod:`repro.experiments.powergate_study`) prices
gating as a free re-weighting — zero wake latency, zero residual draw.  This
study runs the real mechanism: per-GPM sleep states
(:mod:`repro.dvfs.idle`) with entry/exit latencies and residual power,
driven by governors with opposite philosophies:

* **race-to-idle** sprints every GPM at the top of the V/f curve so the
  queue drains early and the module can gate through the exposed gap;
* **deadline-paced** runs each GPM at the slowest point that still meets a
  per-run deadline, trading sleep time for lower V² the whole way;
* **utilization** (the PR-3 feedback governor, no sleep states) downclocks
  starved GPMs instead of gating them — the incumbent to beat;
* **gate-only** keeps the anchor clock and lets the sleep ladder do all the
  work, isolating the states' contribution from any DVFS policy.

Every variant is summarized as EDPSE (Eq. 2) against the paper's fixed
1-GPM static baseline.  The interesting outcome is *workload-shaped*: on
straggler grids (a CTA count that leaves one GPM an extra wave while seven
sit idle) racing buys real gated cycles and wins; on balanced grids there
is nothing to gate and the sprint's V² premium loses to plain downclocking.
The integration tests pin both directions.  :class:`GovernorStudy` runs the
comparison; the LLM-serving study reuses it with its own workload table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.dvfs.idle import IdleConfig
from repro.dvfs.residency import DvfsResidency
from repro.errors import ExperimentError
from repro.experiments.capping_study import priced_params
from repro.experiments.render import render_table
from repro.experiments.results import RunRecord
from repro.experiments.runner import SweepRunner
from repro.gpu.config import (
    GpmConfig,
    GpuConfig,
    InterconnectConfig,
    TopologyKind,
)
from repro.units import mean
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import shrunken_spec

#: GPM count the study runs at (straggler shapes below are tuned for it).
STUDY_GPM_COUNT = 8

#: Deadline slack over the race-to-idle runtime: the paced governor must
#: finish within 25% of the fastest observed time, which is feasible by
#: construction (the race run itself proves it) yet tight enough that the
#: governor cannot simply camp on the curve floor.
DEADLINE_SLACK = 1.25

#: Governor variants in render order.  ``static`` is the ungoverned anchor
#: run; ``deadline-paced`` is resolved in a second batch because its
#: deadline derives from the race-to-idle runtime (see
#: :meth:`GovernorStudy.run`).
STUDY_GOVERNORS: tuple[str, ...] = (
    "static",
    "utilization",
    "gate-only",
    "race-to-idle",
    "deadline-paced",
)

#: Governors the quick tier leaves out: the second (paced) batch and the
#: states-only variant.
QUICK_DROPPED: tuple[str, ...] = ("gate-only", "deadline-paced")

#: Workloads by burstiness.  33 CTAs over 8 GPMs splits [5,4,4,4,4,4,4,4]:
#: with 4 CTA slots per GPM the straggler needs a second wave, so seven
#: modules idle for roughly half of every kernel — the bursty shape.  64
#: CTAs splits evenly into two full waves everywhere — the steady shape.
BURSTY_WORKLOADS: tuple[tuple[str, int, int], ...] = (
    ("BPROP", 33, 6),
    ("MiniAMR", 33, 6),
)
STEADY_WORKLOADS: tuple[tuple[str, int, int], ...] = (("Stream", 64, 6),)


#: The golden-test GPM (2 SMs x 2 CTA slots): small enough to sweep, big
#: enough that wave imbalance is visible.
STUDY_GPM = GpmConfig(num_sms=2, slots_per_sm=2)

#: The golden-test ring (256 Gb/s per GPM, 15-cycle links).
STUDY_INTERCONNECT = InterconnectConfig(
    kind=TopologyKind.RING,
    per_gpm_bandwidth_gbps=256.0,
    link_latency_cycles=15.0,
    energy_pj_per_bit=0.54,
)


def baseline_config() -> GpuConfig:
    """The EDPSE baseline: 1 GPM, anchor clock, no governor, no sleep."""
    return GpuConfig(num_gpms=1, gpm=STUDY_GPM)


def governed_config(
    governor: str, deadline_cycles: float | None = None
) -> GpuConfig:
    """The 8-GPM study configuration under one governor variant."""
    base = GpuConfig(
        num_gpms=STUDY_GPM_COUNT,
        gpm=STUDY_GPM,
        interconnect=STUDY_INTERCONNECT,
    )
    if governor == "static":
        return base
    if governor == "utilization":
        # No sleep states: the incumbent policy exactly as PR 3 shipped it.
        return replace(base, idle=IdleConfig.governor_only("utilization"))
    if governor == "gate-only":
        return replace(base, idle=IdleConfig())
    if governor == "race-to-idle":
        return replace(base, idle=IdleConfig(governor="race-to-idle"))
    if governor == "deadline-paced":
        if deadline_cycles is None:
            raise ExperimentError(
                "the deadline-paced variant needs deadline_cycles (derived"
                " from the race-to-idle runtime; see idle_study.run)"
            )
        return replace(
            base,
            idle=IdleConfig(
                governor="deadline-paced", deadline_cycles=deadline_cycles
            ),
        )
    raise ExperimentError(
        f"unknown idle-study governor {governor!r};"
        f" known: {list(STUDY_GOVERNORS)}"
    )


def sleep_fraction(record: RunRecord) -> float:
    """Fraction of total core-domain cycles the run spent gated."""
    if record.residency is None:
        return 0.0
    residency = DvfsResidency.from_json(record.residency)
    total = sum(hist.total_cycles for hist in residency.core)
    if total <= 0.0:
        return 0.0
    return residency.total_sleep_cycles / total


@dataclass(frozen=True)
class GovernorStudy:
    """One governor comparison: the governors it runs over which workloads.

    The idle and LLM studies differ only in these fields; the batches, the
    EDPSE loop and the rendered tables below are shared.
    """

    #: Table-title prefix, e.g. ``"Idle study"``.
    title: str
    #: Study name in error messages, e.g. ``"idle-study"``.
    name: str
    #: Governor variants in render order.
    governors: tuple[str, ...]
    #: ``f(quick) -> (specs, shape)``: the study workloads keyed by column,
    #: and the burstiness label shown next to each labelled column.
    workloads: Callable[
        [bool], tuple[dict[str, WorkloadSpec], dict[str, str]]
    ]
    #: Footnote under the EDPSE table.
    note: str
    #: Append a per-governor mean column to the EDPSE table.
    mean_column: bool = False

    def run(
        self,
        runner: SweepRunner | None = None,
        governors: tuple[str, ...] | None = None,
        quick: bool = False,
    ) -> GovernorStudyResult:
        """Execute (or fetch from cache) the study.

        ``quick`` runs the workload table's quick tier without the
        :data:`QUICK_DROPPED` governors — the CI smoke shape.

        The deadline-paced variant runs in a second batch: its per-workload
        deadline is the race-to-idle runtime times :data:`DEADLINE_SLACK`,
        which keeps the derived configuration a deterministic function of
        cached results (same inputs, same deadline, same cache key).
        """
        governors = self.governors if governors is None else governors
        unknown = [g for g in governors if g not in self.governors]
        if unknown:
            raise ExperimentError(
                f"unknown {self.name} governors {unknown};"
                f" known: {list(self.governors)}"
            )
        if quick:
            governors = tuple(g for g in governors if g not in QUICK_DROPPED)
        if "deadline-paced" in governors and "race-to-idle" not in governors:
            raise ExperimentError(
                "the deadline-paced variant derives its deadline from the"
                " race-to-idle runtime; run both or neither"
            )
        runner = runner or SweepRunner()
        specs, shape = self.workloads(quick)

        configs = {"baseline": dict.fromkeys(specs, baseline_config())}
        for governor in governors:
            if governor != "deadline-paced":
                configs[governor] = dict.fromkeys(
                    specs, governed_config(governor)
                )
        records = _run_batch(runner, specs, configs)
        deadlines: dict[str, float] = {}
        if "deadline-paced" in governors:
            race = records["race-to-idle"]
            deadlines = {
                key: race[key].counters.elapsed_cycles * DEADLINE_SLACK
                for key in specs
            }
            paced = {
                key: governed_config("deadline-paced", deadline_cycles=cycles)
                for key, cycles in deadlines.items()
            }
            configs["deadline-paced"] = paced
            records |= _run_batch(runner, specs, {"deadline-paced": paced})

        result = GovernorStudyResult(
            study=self,
            baseline=records.pop("baseline"),
            records=records,
            shape=shape,
            deadlines=deadlines,
        )
        baseline_edp = {}
        for key, record in result.baseline.items():
            energy = record.energy(
                priced_params(configs["baseline"][key], record)
            )
            baseline_edp[key] = energy.total * record.seconds
        for governor, by_key in records.items():
            for key, record in by_key.items():
                energy = record.energy(
                    priced_params(configs[governor][key], record)
                )
                edp = energy.total * record.seconds
                result.edpse.setdefault(governor, {})[key] = (
                    baseline_edp[key] * 100.0 / (STUDY_GPM_COUNT * edp)
                )
                result.energy_j.setdefault(governor, {})[key] = energy.total
                result.seconds.setdefault(governor, {})[key] = record.seconds
                result.slept.setdefault(governor, {})[key] = sleep_fraction(
                    record
                )
        return result


def _run_batch(
    runner: SweepRunner,
    specs: dict[str, WorkloadSpec],
    configs: dict[str, dict[str, GpuConfig]],
) -> dict[str, dict[str, RunRecord]]:
    """Run every ``configs[variant][key]`` on ``specs[key]`` in one sweep.

    Records come back keyed like ``configs``.
    """
    pairs = [
        (specs[key], config)
        for by_key in configs.values()
        for key, config in by_key.items()
    ]
    by_label = {
        (record.workload, record.config_label): record
        for record in runner.run(pairs)
    }
    return {
        variant: {
            key: by_label[(specs[key].abbr, config.label())]
            for key, config in by_key.items()
        }
        for variant, by_key in configs.items()
    }


@dataclass
class GovernorStudyResult:
    """EDPSE, energy, delay, and sleep fraction per (governor, workload)."""

    #: The study that produced these results (titles, names, columns).
    study: GovernorStudy
    #: Records keyed ``records[governor][workload]``.
    records: dict[str, dict[str, RunRecord]]
    #: Baseline (1-GPM static) records keyed by workload.
    baseline: dict[str, RunRecord]
    #: Burstiness labels keyed by workload (empty when the study has none).
    shape: dict[str, str]
    #: EDPSE (%) keyed ``edpse[governor][workload]``; higher is better.
    edpse: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Modeled energy (J), same keying.
    energy_j: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Runtime (s), same keying.
    seconds: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Core-domain sleep fraction, same keying.
    slept: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Derived per-workload deadline (cycles) for the paced governor.
    deadlines: dict[str, float] = field(default_factory=dict)

    def record(self, governor: str, workload: str) -> RunRecord:
        try:
            return self.records[governor][workload]
        except KeyError as exc:
            raise ExperimentError(
                f"no {self.study.name} record for {workload!r}"
                f" under the {governor!r} governor"
            ) from exc

    def mean_edpse(self, governor: str, shape: str | None = None) -> float:
        """Mean EDPSE over the study's workloads (optionally one shape)."""
        values = [
            value
            for workload, value in self.edpse.get(governor, {}).items()
            if shape is None or self.shape.get(workload) == shape
        ]
        if not values:
            raise ExperimentError(
                f"no {self.study.name} EDPSE for governor {governor!r}"
                + (f" on {shape} workloads" if shape else "")
            )
        return mean(values)

    def render(self) -> str:
        """The per-workload EDPSE surface plus energy/sleep diagnostics."""
        study = self.study
        governors = [g for g in study.governors if g in self.edpse]
        workloads = list(self.baseline)
        header = ["governor"] + [
            f"{w} ({self.shape[w]})" if w in self.shape else w
            for w in workloads
        ]
        mean_header = ["mean"] if study.mean_column else []
        edpse_rows = [
            [governor]
            + [self.edpse[governor][w] for w in workloads]
            + ([self.mean_edpse(governor)] if study.mean_column else [])
            for governor in governors
        ]
        tables = [
            render_table(
                f"{study.title}: EDPSE (%) at {STUDY_GPM_COUNT} GPMs",
                header + mean_header,
                edpse_rows,
                note=study.note,
            )
        ]
        sleep_rows = [
            [governor]
            + [
                f"{self.slept[governor][w]:.1%}"
                + f" / {self.energy_j[governor][w]:.3e} J"
                for w in workloads
            ]
            for governor in governors
        ]
        tables.append(
            render_table(
                "Core-domain sleep fraction / modeled energy",
                header,
                sleep_rows,
                note=(
                    "Sleep fraction counts clock- and power-gated cycles"
                    " across all GPMs; static and utilization rows gate"
                    " nothing by construction."
                ),
            )
        )
        if self.deadlines:
            lines = [
                f"Deadline-paced budget: race-to-idle runtime x"
                f" {DEADLINE_SLACK:g}"
            ]
            for workload, deadline in self.deadlines.items():
                lines.append(f"  {workload}: {deadline:.0f} cycles")
            tables.append("\n".join(lines))
        return "\n\n".join(tables)


def _workload_table(
    quick: bool,
) -> tuple[dict[str, WorkloadSpec], dict[str, str]]:
    """Study specs and their burstiness labels, keyed by abbreviation.

    ``quick`` keeps one bursty and one steady workload.
    """
    bursty = BURSTY_WORKLOADS[:1] if quick else BURSTY_WORKLOADS
    steady = STEADY_WORKLOADS[:1] if quick else STEADY_WORKLOADS
    specs: dict[str, WorkloadSpec] = {}
    shape: dict[str, str] = {}
    for label, table in (("bursty", bursty), ("steady", steady)):
        for abbr, total_ctas, kernels in table:
            specs[abbr] = shrunken_spec(abbr, total_ctas, kernels)
            shape[abbr] = label
    return specs, shape


IDLE_STUDY = GovernorStudy(
    title="Idle study",
    name="idle-study",
    governors=STUDY_GOVERNORS,
    workloads=_workload_table,
    note=(
        "EDPSE baseline: 1 GPM, anchor clock, no gating."
        " bursty = straggler wave (33 CTAs on 8 GPMs);"
        " steady = balanced waves.  Race-to-idle beats the"
        " utilization governor on bursty shapes (the gated"
        " straggler gap pays for the sprint) and loses on"
        " steady ones (nothing to gate, V^2 premium only)."
    ),
)

#: ``run(runner, governors, quick)``: see :meth:`GovernorStudy.run`.
run = IDLE_STUDY.run
