"""Power-capping study: EDPSE vs. chip power budget across GPM counts.

The paper sizes multi-module GPUs against a fixed board power; this study
asks the follow-on question the :class:`~repro.dvfs.governor.PowerCapGovernor`
makes answerable: *how much efficiency survives when the chip must live under
a watt budget?*  Each GPM count from the Table III scaling range is run
uncapped and under budgets expressed as fractions of its nominal power
(``num_gpms x DEFAULT_GPM_ANCHOR_WATTS``).  Capped runs are priced with
their recorded per-domain residency — the energy reflects the operating
points the governor actually held, not the anchor the config nominally
names — and summarized as EDPSE (Eq. 2) against the paper's fixed 1-GPM
uncapped baseline, next to the mean reported power draw that verifies the
governor held its budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.energy_model import EnergyParams
from repro.dvfs.governor import DEFAULT_GPM_ANCHOR_WATTS
from repro.dvfs.idle import IdleConfig
from repro.dvfs.residency import DvfsResidency
from repro.errors import ExperimentError
from repro.experiments.render import render_table
from repro.experiments.results import RunRecord
from repro.experiments.runner import SweepRunner
from repro.gpu.config import TABLE_III_GPM_COUNTS, GpuConfig, table_iii_config
from repro.units import mean
from repro.workloads.suite import SCALING_SUBSET, WORKLOAD_SPECS

#: GPM counts the study sweeps (the paper's full 1-32 scaling range).
STUDY_GPM_COUNTS: tuple[int, ...] = TABLE_III_GPM_COUNTS

#: Chip budgets as fractions of nominal power (``None`` means uncapped).
#: 0.55 sits just above the all-floor draw (~40% of nominal), so every
#: budget in the grid is feasible for every GPM count.
BUDGET_FRACTIONS: tuple[float | None, ...] = (None, 1.0, 0.85, 0.70, 0.55)

#: The quick tier's grid (GPM counts, budget fractions, workloads): small
#: enough for a smoke run, still one memory- and one compute-bound workload.
QUICK_GRID = ((1, 4), (None, 0.7), ("Stream", "BPROP"))


def nominal_chip_watts(num_gpms: int) -> float:
    """The uncapped worst-case budget baseline of an ``num_gpms`` chip."""
    return num_gpms * DEFAULT_GPM_ANCHOR_WATTS


def capped_config(
    num_gpms: int,
    fraction: float | None,
    idle: "IdleConfig | None" = None,
) -> GpuConfig:
    """The Table III configuration under one budget fraction.

    ``idle`` optionally gives every GPM the sleep ladder on top of the cap
    (``repro capping --governor``); the attached governor composes with
    the budget — a race-to-idle ceiling rides inside the waterfill.
    """
    config = table_iii_config(num_gpms)
    if idle is not None:
        config = replace(config, idle=idle)
    if fraction is None:
        return config
    return replace(
        config, power_cap_watts=fraction * nominal_chip_watts(num_gpms)
    )


def _budget_label(fraction: float | None) -> str:
    return "uncapped" if fraction is None else f"{fraction:.0%} budget"


@dataclass
class CappingStudyResult:
    """EDPSE and reported power per (budget fraction, GPM count)."""

    #: Records keyed ``records[fraction][num_gpms][workload]``.
    records: dict[float | None, dict[int, dict[str, RunRecord]]]
    #: Mean EDPSE (%) across workloads, keyed ``edpse[fraction][num_gpms]``.
    edpse: dict[float | None, dict[int, float]] = field(default_factory=dict)
    #: Mean residency-priced power draw (W), same keying as ``edpse``.
    mean_power_w: dict[float | None, dict[int, float]] = field(
        default_factory=dict
    )
    #: Per-GPM core-energy imbalance (max/mean across GPMs, averaged over
    #: workloads), same keying as ``edpse``.  1.0 means every module burned
    #: the same core-domain energy; waterfilling under a tight cap drives it
    #: up as the governor starves some GPMs to feed others.
    core_imbalance: dict[float | None, dict[int, float]] = field(
        default_factory=dict
    )
    #: Screening record when the budget grid was pruned analytically
    #: (``None`` = exhaustive): mode, knobs, and the predicted mean EDPSE
    #: per budget fraction that drove the pruning.
    screen: dict | None = None

    def record(
        self, fraction: float | None, num_gpms: int, workload: str
    ) -> RunRecord:
        try:
            return self.records[fraction][num_gpms][workload]
        except KeyError as exc:
            raise ExperimentError(
                f"no capping-study record for {workload!r} on {num_gpms} GPMs"
                f" at {_budget_label(fraction)}"
            ) from exc

    def render(self) -> str:
        """The EDPSE-vs-budget surface and the reported-power check."""
        # Derive the axes from the computed surface so partial sweeps
        # (e.g. ``repro capping --quick``) render what they actually ran.
        fractions = list(self.edpse)
        gpm_counts = sorted(
            {n for by_gpms in self.edpse.values() for n in by_gpms}
        )
        header = ["budget"] + [f"{n}-GPM" for n in gpm_counts]
        edpse_rows = [
            [_budget_label(fraction)]
            + [self.edpse[fraction][n] for n in gpm_counts]
            for fraction in fractions
        ]
        edpse_table = render_table(
            "Capping study: mean EDPSE (%) vs. chip power budget",
            header,
            edpse_rows,
            note=(
                "EDPSE baseline: 1-GPM uncapped at the 745 MHz anchor."
                " Budgets are fractions of num_gpms x"
                f" {DEFAULT_GPM_ANCHOR_WATTS:g} W nominal; capped runs are"
                " priced with their recorded operating-point residency."
            ),
        )
        power_rows = [
            [_budget_label(fraction)]
            + [self.mean_power_w[fraction][n] for n in gpm_counts]
            for fraction in fractions
        ]
        power_table = render_table(
            "Mean residency-priced power draw (W)",
            header,
            power_rows,
            note=(
                "Reported draw is modeled energy over runtime; tightening"
                " the budget must never raise it (the governor's cap is a"
                " hard constraint on the worst-case allocation)."
            ),
        )
        tables = [edpse_table, power_table]
        # Records cached before per-GPM attribution carry no shards; only
        # render the imbalance surface when every cell could be computed.
        have_imbalance = bool(self.core_imbalance) and all(
            n in self.core_imbalance.get(fraction, {})
            for fraction in fractions
            for n in gpm_counts
        )
        if have_imbalance:
            imbalance_rows = [
                [_budget_label(fraction)]
                + [self.core_imbalance[fraction][n] for n in gpm_counts]
                for fraction in fractions
            ]
            tables.append(
                render_table(
                    "Per-GPM core-energy imbalance (max/mean)",
                    header,
                    imbalance_rows,
                    note=(
                        "Exact per-GPM attribution: each module's core-domain"
                        " energy is priced at its own residency-weighted V²f"
                        " scale.  1.0 = perfectly balanced; higher means the"
                        " capping governor concentrated the budget on fewer"
                        " modules."
                    ),
                )
            )
        if self.screen is not None:
            predicted = self.screen.get("predicted_edpse", {})
            skipped = self.screen.get("skipped", [])
            lines = [
                f"Roofline screen ({self.screen['mode']}): budgets ranked by"
                f" predicted mean EDPSE, top {self.screen['top_k']}"
                f" + {self.screen['guard']} guard simulated (uncapped"
                " baseline always kept).",
            ]
            for label, value in predicted.items():
                lines.append(f"  predicted {label}: {value:.1f}%")
            if skipped:
                lines.append(f"  skipped budgets: {', '.join(skipped)}")
            tables.append("\n".join(lines))
        return "\n\n".join(tables)


def priced_params(config: GpuConfig, record: RunRecord) -> EnergyParams:
    """Residency-priced energy parameters for one study record."""
    residency = (
        None if record.residency is None
        else DvfsResidency.from_json(record.residency)
    )
    return EnergyParams.for_operating_point(config, residency=residency)


def _screen_fractions(
    specs,
    gpm_counts: tuple[int, ...],
    fractions: tuple[float | None, ...],
    top_k: int,
    guard: int,
) -> tuple[tuple[float | None, ...], dict]:
    """Prune the budget grid to the analytically best fractions.

    Every candidate budget is scored by its *predicted* mean EDPSE over the
    study's (workload, GPM count) cells — same roofline predictor, same
    capped configurations (the predictor reuses the governor's waterfill) —
    and only the top ``top_k + guard`` fractions survive.  The uncapped
    baseline is always kept: every EDPSE number is a ratio against it.
    """
    from repro.dvfs.selection import top_candidates
    from repro.roofline.model import RooflinePredictor

    predictor = RooflinePredictor()
    baseline_n = min(gpm_counts)
    baseline = {
        spec.abbr: predictor.predict(spec, capped_config(baseline_n, None))
        for spec in specs
    }
    candidates = [f for f in fractions if f is not None]
    predicted: dict[float, float] = {}
    for fraction in candidates:
        ratios = []
        for n in gpm_counts:
            config = capped_config(n, fraction)
            for spec in specs:
                prediction = predictor.predict(spec, config)
                ratios.append(
                    baseline[spec.abbr].edp * 100.0 / (n * prediction.edp)
                )
        predicted[fraction] = mean(ratios)
    # Higher EDPSE is better; selection ranks ascending, so negate.  The
    # deterministic tie-break mirrors the sweet-spot search's rule.
    ranked = top_candidates(
        candidates,
        len(candidates),
        score=lambda fraction: -predicted[fraction],
        tie_key=lambda fraction: (fraction, _budget_label(fraction)),
    )
    keep = set(ranked[: min(len(candidates), top_k + guard)])
    pruned = tuple(f for f in fractions if f is None or f in keep)
    note = {
        "mode": "roofline",
        "metric": "edpse",
        "top_k": top_k,
        "guard": guard,
        "predicted_edpse": {
            _budget_label(f): predicted[f] for f in ranked
        },
        "skipped": [_budget_label(f) for f in fractions if f not in pruned],
    }
    return pruned, note


def run(
    runner: SweepRunner | None = None,
    quick: bool = False,
    screen: str | None = None,
    top_k: int = 3,
    guard: int = 1,
    governor: str | None = None,
) -> CappingStudyResult:
    """Execute (or fetch from cache) the power-capping study.

    ``quick`` sweeps :data:`QUICK_GRID` instead of the full 1-32 GPM,
    five-budget, scaling-subset grid.

    ``screen="roofline"`` prunes the budget grid analytically first (see
    :func:`_screen_fractions`); the surviving budgets are simulated through
    the exact same configurations — hence cache keys — as an exhaustive run.

    ``governor`` (``utilization``, ``gate-only`` or ``race-to-idle``)
    gives every configuration per-GPM sleep states under that governor.
    (The screen's predictor is idle-blind: with a governor it still ranks
    budgets by the gate-free roofline, which the guard point absorbs.)
    """
    gpm_counts, fractions, workloads = (
        QUICK_GRID
        if quick
        else (STUDY_GPM_COUNTS, BUDGET_FRACTIONS, SCALING_SUBSET)
    )
    idle = None
    if governor is not None:
        idle = IdleConfig(
            governor=None if governor == "gate-only" else governor
        )
    runner = runner or SweepRunner()
    specs = [WORKLOAD_SPECS[abbr] for abbr in workloads]
    screen_note: dict | None = None
    if screen is not None:
        from repro.roofline.screen import validate_screen

        validate_screen(screen, top_k, guard)
        fractions, screen_note = _screen_fractions(
            specs, gpm_counts, fractions, top_k, guard
        )
    configs = {
        (fraction, n): capped_config(n, fraction, idle=idle)
        for fraction in fractions
        for n in gpm_counts
    }
    pairs = [
        (spec, config) for config in configs.values() for spec in specs
    ]
    by_key = {
        (record.workload, record.config_label): record
        for record in runner.run(pairs)
    }

    records: dict[float | None, dict[int, dict[str, RunRecord]]] = {}
    for (fraction, n), config in configs.items():
        for spec in specs:
            records.setdefault(fraction, {}).setdefault(n, {})[spec.abbr] = (
                by_key[(spec.abbr, config.label())]
            )

    result = CappingStudyResult(records=records, screen=screen_note)
    baseline_n = min(gpm_counts)
    baseline_config = configs[(None, baseline_n)]
    for fraction in fractions:
        result.edpse[fraction] = {}
        result.mean_power_w[fraction] = {}
        for n in gpm_counts:
            config = configs[(fraction, n)]
            ratios = []
            draws = []
            imbalances = []
            for spec in specs:
                record = records[fraction][n][spec.abbr]
                energy = record.energy(priced_params(config, record))
                edp = energy.total * record.seconds
                baseline = records[None][baseline_n][spec.abbr]
                baseline_energy = baseline.energy(
                    priced_params(baseline_config, baseline)
                )
                baseline_edp = baseline_energy.total * baseline.seconds
                ratios.append(baseline_edp * 100.0 / (n * edp))
                draws.append(energy.total / record.seconds)
                gpm_totals = [gpm.total for gpm in energy.per_gpm]
                if gpm_totals and sum(gpm_totals) > 0.0:
                    imbalances.append(
                        max(gpm_totals) / (sum(gpm_totals) / len(gpm_totals))
                    )
            result.edpse[fraction][n] = mean(ratios)
            result.mean_power_w[fraction][n] = mean(draws)
            if imbalances:
                result.core_imbalance.setdefault(fraction, {})[n] = mean(
                    imbalances
                )
    return result
