"""Ablation: the locality mechanisms the scaling study takes as given.

Section V-A1 adopts *distributed (contiguous) thread-block scheduling* and
*first-touch page placement* from the MCM-GPU/NUMA-GPU line of work.  This
ablation quantifies what those two mechanisms are worth by knocking each out
on an 8-GPM on-package design:

* ``first-touch + contiguous``   — the paper's configuration;
* ``striped placement``          — pages round-robin across GPMs regardless
  of who touches them (locality-oblivious memory);
* ``round-robin CTAs``           — adjacent CTAs scattered across GPMs, so
  first touch can no longer co-locate a CTA's data with its GPM.

Expected shape: both knockouts inflate remote traffic toward (N-1)/N and cost
large factors in time and energy — evidence for the paper's premise that
locality capture is a precondition, not an optimization.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.energy_model import EnergyModel, EnergyParams
from repro.experiments.render import render_table
from repro.experiments.runner import SweepRunner
from repro.experiments.study import record_for
from repro.gpu.config import BandwidthSetting, table_iii_config
from repro.gpu.cta_scheduler import CtaPartitioning
from repro.memory.pages import PlacementPolicy
from repro.units import geomean, mean
from repro.workloads.suite import SCALING_SUBSET

NUM_GPMS = 8

#: (label, placement policy, partitioning) for each ablation arm.
ARMS: tuple[tuple[str, PlacementPolicy, CtaPartitioning], ...] = (
    ("first-touch + contiguous", PlacementPolicy.FIRST_TOUCH,
     CtaPartitioning.CONTIGUOUS),
    ("striped placement", PlacementPolicy.STRIPED,
     CtaPartitioning.CONTIGUOUS),
    ("round-robin CTAs", PlacementPolicy.FIRST_TOUCH,
     CtaPartitioning.ROUND_ROBIN),
)


@dataclass
class LocalityAblationResult:
    #: label -> (mean remote fraction, geomean slowdown vs baseline arm,
    #:           mean energy vs baseline arm)
    by_arm: dict[str, tuple[float, float, float]]

    def render(self) -> str:
        """Render this result as the paper-style ASCII table."""
        rows = [
            [label, remote, slowdown, energy]
            for label, (remote, slowdown, energy) in self.by_arm.items()
        ]
        return render_table(
            f"Ablation: locality mechanisms at {NUM_GPMS}-GPM (2x-BW on-package)",
            ["configuration", "remote fraction", "slowdown", "energy (norm.)"],
            rows,
            note=(
                "Knocking out first-touch placement or contiguous CTA"
                " scheduling drives remote traffic toward (N-1)/N and"
                " inflates both delay and energy — the locality capture the"
                " paper's Section V-A1 presumes."
            ),
        )


def run(runner: SweepRunner | None = None) -> LocalityAblationResult:
    """Execute (or fetch from cache) the locality ablation."""
    runner = runner or SweepRunner()
    per_arm_runs: dict[str, list] = {}
    for label, placement, partitioning in ARMS:
        config = table_iii_config(NUM_GPMS, BandwidthSetting.BW_2X)
        config = dataclasses.replace(
            config,
            placement_policy=placement,
            name=f"{config.label()}/{placement.value}/{partitioning.value}",
        )
        records = []
        for abbr in SCALING_SUBSET:
            records.append(
                _record_with_partitioning(runner, abbr, config, partitioning)
            )
        per_arm_runs[label] = records

    baseline_label = ARMS[0][0]
    baseline = per_arm_runs[baseline_label]
    by_arm: dict[str, tuple[float, float, float]] = {}
    for label, _p, _s in ARMS:
        records = per_arm_runs[label]
        params = EnergyParams.for_config(
            table_iii_config(NUM_GPMS, BandwidthSetting.BW_2X)
        )
        remote = mean(r.counters.remote_fraction for r in records)
        slowdown = geomean(
            r.seconds / b.seconds for r, b in zip(records, baseline)
        )
        energy = mean(
            EnergyModel(params).total_energy(r.counters, r.seconds)
            / EnergyModel(params).total_energy(b.counters, b.seconds)
            for r, b in zip(records, baseline)
        )
        by_arm[label] = (remote, slowdown, energy)
    return LocalityAblationResult(by_arm=by_arm)


def _record_with_partitioning(
    runner: SweepRunner, abbr: str, config, partitioning: CtaPartitioning
):
    """Simulate one pair under a CTA-partitioning override (cached)."""
    if partitioning is CtaPartitioning.CONTIGUOUS:
        return record_for(runner, abbr, config)
    # Round-robin partitioning is not part of GpuConfig (it is a scheduler
    # argument), so cache under a distinguishing config name and simulate
    # through the lower-level facade.
    import json

    from repro.experiments.keys import cache_key
    from repro.experiments.results import RunRecord
    from repro.gpu.simulator import GpuSimulator
    from repro.workloads.generator import build_workload
    from repro.workloads.suite import WORKLOAD_SPECS

    spec = WORKLOAD_SPECS[abbr]
    key = cache_key(spec, config) + "-rr"
    path = runner._cache_path(key)
    if runner.settings.use_cache and path.exists():
        try:
            with path.open() as handle:
                return RunRecord.from_json(json.load(handle))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            path.unlink(missing_ok=True)
    result = GpuSimulator(config, partitioning=partitioning).run(
        build_workload(spec)
    )
    record = RunRecord(
        workload=abbr,
        category=spec.category.value,
        config_label=config.label(),
        num_gpms=config.num_gpms,
        seconds=result.seconds,
        counters=result.counters,
    )
    runner._store(key, record)
    return record
