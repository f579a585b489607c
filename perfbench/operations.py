"""The benchmark's workloads: fixed operation lists over the public API.

Each workload has *cold* operations (the work a user waits for, starting
from empty state) and *warm* operations (the same results served again
from what the cold pass stored).  Every operation's output is digested by
:func:`digest` and compared with the digest pinned in ``digests.json``.

The seed argument selects one of ``SEED_PERIOD`` input variants: the
variant is added to every workload spec's ``seed`` before
``build_workload``.  Digests are recorded for every variant.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SEED_PERIOD = 16
#: The input variant kept out of development: a gain claimed on the other
#: variants is re-checked on a seed congruent to this one.
HELD_OUT_OFFSET = 15

#: (operation name, Table II / LLM abbreviation, GPM count, idle governor).
SIM_OPS = {
    # Memory, engine and interconnect carry most of the self time; BFS moves
    # ~13.7 MB between GPMs, and LLMDecode adds the phased-workload and
    # idle-residency path.
    "multigpm-mem": (
        ("Stream@32", "Stream", 32, None),
        ("BFS@8", "BFS", 8, None),
        ("LLMDecode@8", "LLMDecode", 8, "race-to-idle"),
    ),
    # One GPM: the interconnect does no work, and the generator and warp
    # loop carry about twice their multi-GPM share.
    "onegpm-compute": (
        ("CoMD@1", "CoMD", 1, None),
        ("BPROP@1", "BPROP", 1, None),
        ("RSBench@1", "RSBench", 1, None),
        ("Hotspot@1", "Hotspot", 1, None),
    ),
}

WORKLOADS = (*SIM_OPS, "sweep-quick")

#: The roofline-screened dense V/f sweep of ``benchmarks/bench_roofline.py``.
ROOFLINE_WORKLOADS = ("LuleshUns", "Nekbone-12")
ROOFLINE_GPM_COUNTS = (1, 2, 4)
ROOFLINE_POINTS = 20


def seed_offset(seed: int) -> int:
    return seed % SEED_PERIOD


def canonical(value):
    """Plain JSON data for a result object; floats keep every digit."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return {str(canonical(k)): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(output) -> str:
    """SHA-256 of an operation's output (bytes as-is, objects canonical)."""
    if not isinstance(output, bytes):
        output = json.dumps(
            canonical(output), sort_keys=True, separators=(",", ":")
        ).encode()
    return hashlib.sha256(output).hexdigest()


@dataclass
class Operation:
    name: str
    #: The timed call into the program.
    run: Callable[[], object]
    #: Maps ``run``'s value to the digested output, outside the timed
    #: region (reading result files, keeping records for the warm pass).
    finish: Callable[[object], object] = lambda value: value


@dataclass
class Tally:
    """Counts behind the per-layer metrics, summed over one cold pass."""

    winst: int = 0
    events: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_txns: int = 0
    local_accesses: int = 0
    remote_accesses: int = 0
    ic_bytes: int = 0
    ic_byte_hops: int = 0
    sm_busy: float = 0.0
    sm_idle: float = 0.0
    sleep_cycles: float = 0.0
    core_cycles: float = 0.0
    #: Every ``SweepRunner`` of the rep: the cold pass's, then one per warm
    #: pass.  Their hit/miss counts are read after the passes ran.
    runners: list = field(default_factory=list)
    scored_points: int = 0
    simulated_points: int = 0

    def add_run(self, counters, events: int, residency) -> None:
        self.winst += counters.total_instructions
        self.events += events
        self.l1_hits += counters.l1_hits
        self.l1_misses += counters.l1_misses
        self.l2_hits += counters.l2_hits
        self.l2_misses += counters.l2_misses
        self.dram_txns += counters.dram_l2_txns
        self.local_accesses += counters.local_accesses
        self.remote_accesses += counters.remote_accesses
        self.ic_bytes += counters.inter_gpm_bytes
        self.ic_byte_hops += counters.inter_gpm_byte_hops
        self.sm_busy += counters.sm_busy_cycles
        self.sm_idle += counters.sm_idle_cycles
        if residency is not None:
            self.sleep_cycles += residency.total_sleep_cycles
            self.core_cycles += sum(hist.total_cycles for hist in residency.core)


def _offset_spec(spec, offset: int):
    return dataclasses.replace(spec, seed=spec.seed + offset)


def sim_inputs(workload: str, offset: int):
    """(operation name, spec, config) for each simulate operation."""
    from repro.dvfs.idle import IdleConfig
    from repro.gpu.config import table_iii_config
    from repro.workloads.suite import get_spec

    inputs = []
    for name, abbr, gpms, governor in SIM_OPS[workload]:
        config = table_iii_config(gpms)
        if governor is not None:
            config = dataclasses.replace(
                config, idle=IdleConfig(governor=governor)
            )
        inputs.append((name, _offset_spec(get_spec(abbr), offset), config))
    return inputs


def roofline_inputs(offset: int):
    """(specs, configs, V/f points) of the screened dense sweep."""
    from repro.dvfs.operating_point import K40_VF_CURVE
    from repro.gpu.config import table_iii_config
    from repro.workloads.suite import shrunken_spec

    lo = K40_VF_CURVE.min_frequency_hz
    step = (K40_VF_CURVE.max_frequency_hz - lo) / (ROOFLINE_POINTS - 1)
    points = tuple(
        K40_VF_CURVE.point_at(
            lo + i * step, name=f"dense-{round((lo + i * step) / 1e6)}"
        )
        for i in range(ROOFLINE_POINTS)
    )
    specs = [
        _offset_spec(shrunken_spec(abbr, total_ctas=48, kernels=1), offset)
        for abbr in ROOFLINE_WORKLOADS
    ]
    configs = [table_iii_config(n) for n in ROOFLINE_GPM_COUNTS]
    return specs, configs, points


def build_inputs(workload: str, offset: int):
    """Set-up: every spec and configuration the workload runs."""
    if workload == "sweep-quick":
        from repro.experiments.figures import FIGURES

        return tuple(FIGURES), roofline_inputs(offset)
    return sim_inputs(workload, offset)


class SimWorkload:
    """Full-size ``build_workload`` -> ``simulate`` -> price, per operation.

    The warm pass serves each result from its stored ``RunRecord`` JSON:
    parse it, rebuild the residency and price it again, as a study does
    when it re-renders from the sweep store.
    """

    def __init__(self, workload: str, offset: int, spans):
        self.inputs = sim_inputs(workload, offset)
        self.spans = spans
        self.tally = Tally()
        self._stored: dict[str, str] = {}

    def cold_ops(self) -> list[Operation]:
        return [
            Operation(
                name, self._simulate(spec, config), self._keep(name, spec, config)
            )
            for name, spec, config in self.inputs
        ]

    def warm_ops(self) -> list[Operation]:
        return [
            Operation(name, self._reprice(config, self._stored[name]))
            for name, _, config in self.inputs
            if name in self._stored
        ]

    def _simulate(self, spec, config):
        from repro.core.energy_model import EnergyModel, EnergyParams
        from repro.gpu.simulator import simulate
        from repro.workloads.generator import build_workload

        def run():
            with self.spans.span("build_workload"):
                program = build_workload(spec)
            with self.spans.span("simulate"):
                result = simulate(program, config)
            with self.spans.span("EnergyModel.evaluate"):
                params = EnergyParams.for_operating_point(
                    config, residency=result.residency
                )
                energy = EnergyModel(params).evaluate(
                    result.counters, result.seconds
                )
            return result, energy

        return run

    def _keep(self, name, spec, config):
        from repro.experiments.results import RunRecord

        def finish(value):
            result, energy = value
            self.tally.add_run(
                result.counters, result.events_processed, result.residency
            )
            record = RunRecord(
                workload=spec.abbr,
                category=spec.category.value,
                config_label=config.label(),
                num_gpms=config.num_gpms,
                seconds=result.seconds,
                counters=result.counters,
                residency=result.residency.to_json(),
            )
            self._stored[name] = json.dumps(record.to_json())
            return {
                "counters": result.counters,
                "kernel_stats": result.kernel_stats,
                "residency": record.residency,
                "energy": energy,
            }

        return finish

    def _reprice(self, config, stored: str):
        from repro.core.energy_model import EnergyParams
        from repro.dvfs.residency import DvfsResidency
        from repro.experiments.results import RunRecord

        def run():
            with self.spans.span("RunRecord.energy"):
                record = RunRecord.from_json(json.loads(stored))
                params = EnergyParams.for_operating_point(
                    config, residency=DvfsResidency.from_json(record.residency)
                )
                return record.energy(params)

        return run

    def warm_output(self, cold_output):
        """The part of a cold output the warm pass must reproduce."""
        return cold_output["energy"]


class SweepWorkload:
    """``run_figures(quick=True)`` plus the screened V/f sweep, one store.

    The cold pass starts from an empty store in ``scratch``; the warm pass
    uses a fresh ``SweepRunner`` on the store the cold pass wrote.
    """

    def __init__(self, offset: int, spans, scratch: Path):
        from repro.experiments.figures import FIGURES

        self.figures = tuple(FIGURES)
        self.specs, self.configs, self.points = roofline_inputs(offset)
        self.spans = spans
        self.scratch = scratch
        self.tally = Tally()

    def _runner(self):
        from repro.experiments.runner import SweepRunner, SweepSettings

        runner = SweepRunner(
            SweepSettings(
                cache_dir=self.scratch / "store", processes=1, progress=False
            )
        )
        self.tally.runners.append(runner)
        return runner

    def cold_ops(self) -> list[Operation]:
        ops = self._ops(self._runner(), self.scratch / "cold")
        # The last cold operation completes the store.
        ops[-1].finish = self._count
        return ops

    def warm_ops(self) -> list[Operation]:
        return self._ops(self._runner(), self.scratch / "warm")

    def _ops(self, runner, out_dir: Path) -> list[Operation]:
        from repro.dvfs.sweetspot import SweetSpotSearch
        from repro.experiments.figures import run_figures

        def figure(name):
            def run():
                with self.spans.span("run_figures"):
                    run_figures(
                        names=(name,), out_dir=out_dir, runner=runner, quick=True
                    )
                return out_dir / name

            return run

        def read(fig_dir: Path) -> bytes:
            return b"\0".join(
                (fig_dir / file).read_bytes()
                for file in ("quick.txt", "quick_summary.txt")
            )

        def roofline():
            with self.spans.span("SweetSpotSearch.search"):
                return SweetSpotSearch(
                    runner, points=self.points, screen="roofline",
                    top_k=1, guard=1,
                ).search(self.specs, self.configs)

        return [Operation(name, figure(name), read) for name in self.figures] + [
            Operation("roofline", roofline, list)
        ]

    def _count(self, spots) -> list:
        """Tally the cold pass: the screen's dispositions and every run the
        store holds."""
        from repro.dvfs.residency import DvfsResidency
        from repro.experiments.results import RunRecord

        for spot in spots:
            self.tally.scored_points += spot.disposition.scored_points
            self.tally.simulated_points += spot.disposition.simulated_points
        store = self.scratch / "store"
        for manifest_path in sorted(store.glob("*.manifest.json")):
            manifest = json.loads(manifest_path.read_text())
            record_path = manifest_path.with_name(
                manifest_path.name.replace(".manifest.json", ".json")
            )
            record = RunRecord.from_json(json.loads(record_path.read_text()))
            residency = (
                None
                if record.residency is None
                else DvfsResidency.from_json(record.residency)
            )
            self.tally.add_run(
                record.counters, manifest["events_processed"], residency
            )
        return list(spots)

    def warm_output(self, cold_output):
        return cold_output


def make_workload(workload: str, offset: int, spans, scratch: Path):
    if workload == "sweep-quick":
        return SweepWorkload(offset, spans, scratch)
    return SimWorkload(workload, offset, spans)
