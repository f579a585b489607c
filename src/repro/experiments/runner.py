"""Sweep execution with disk caching and optional process parallelism.

The full reproduction needs ~25 configurations x 14 workloads of simulation.
Each (workload, configuration) pair is deterministic, so results are cached
as JSON under ``.cache/`` keyed by a content hash of the workload spec, the
configuration, and a results-format version.  Benches therefore pay the
simulation cost once; re-pricing studies (link energy, amortization) never
re-simulate at all.

Set ``REPRO_SWEEP_PROCESSES`` to control parallelism (default: half the
cores, capped at 12); ``REPRO_CACHE_DIR`` to relocate the cache.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import ConfigError, ExperimentError

# Result identity (fingerprints, spec hash, cache key, RESULTS_VERSION)
# lives in repro.experiments.keys — the public content-address API.  The
# underscore aliases keep this module's historical import surface stable
# for existing callers and tests.
from repro.experiments.keys import (
    RESULTS_VERSION,
    cache_key as _cache_key,
    config_fingerprint as _config_fingerprint,
    spec_fingerprint as _spec_fingerprint,
    spec_hash as _spec_hash,
)
from repro.experiments.results import RunRecord
from repro.gpu.config import GpuConfig
from repro.gpu.simulator import simulate
from repro.trace.manifest import RunManifest
from repro.trace.metrics import MetricsRegistry
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec


def _default_cache_dir() -> Path:
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / ".cache" / "sweeps"


def _default_processes() -> int:
    override = os.environ.get("REPRO_SWEEP_PROCESSES")
    if override:
        return max(1, int(override))
    return max(1, min(12, (os.cpu_count() or 2) - 1))


def _default_progress() -> bool:
    return os.environ.get("REPRO_PROGRESS", "").lower() in {"1", "true", "yes"}


@dataclass(frozen=True)
class SweepSettings:
    """Execution knobs for a sweep."""

    cache_dir: Path = field(default_factory=_default_cache_dir)
    processes: int = field(default_factory=_default_processes)
    use_cache: bool = True
    #: Emit per-simulation progress lines on stderr (or REPRO_PROGRESS=1).
    progress: bool = field(default_factory=_default_progress)
    #: Write a RunManifest beside every freshly simulated cache entry.
    write_manifests: bool = True

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ConfigError(
                f"sweep processes must be >= 1, got {self.processes!r}"
            )


def _record_from_result(
    spec: WorkloadSpec, config: GpuConfig, result, metrics: MetricsRegistry
) -> RunRecord:
    return RunRecord(
        workload=spec.abbr,
        category=spec.category.value,
        config_label=config.label(),
        num_gpms=config.num_gpms,
        seconds=result.seconds,
        counters=result.counters,
        metrics=metrics.to_json(),
        residency=(
            None if result.residency is None else result.residency.to_json()
        ),
    )


def run_pair(spec: WorkloadSpec, config: GpuConfig) -> RunRecord:
    """Simulate one (workload, configuration) pair (no caching)."""
    workload = build_workload(spec)
    metrics = MetricsRegistry()
    result = simulate(workload, config, metrics=metrics)
    return _record_from_result(spec, config, result, metrics)


@dataclass(frozen=True)
class _PairTiming:
    """Worker-side throughput accounting for one simulated pair."""

    wall_time_s: float
    events_processed: int
    events_per_sec: float


def _timed_run_pair(
    pair: tuple[WorkloadSpec, GpuConfig]
) -> tuple[RunRecord, _PairTiming]:
    spec, config = pair
    start = time.perf_counter()
    workload = build_workload(spec)
    metrics = MetricsRegistry()
    result = simulate(workload, config, metrics=metrics)
    wall_time_s = time.perf_counter() - start
    timing = _PairTiming(
        wall_time_s=wall_time_s,
        events_processed=result.events_processed,
        events_per_sec=result.events_per_sec,
    )
    return _record_from_result(spec, config, result, metrics), timing


class SweepRunner:
    """Executes (workload, configuration) grids with caching.

    Besides the records themselves, the runner aggregates every record's
    component metrics into :attr:`metrics` (merging per-worker registries via
    the parallel Welford combine) and writes a provenance manifest beside
    each freshly simulated cache entry.
    """

    def __init__(self, settings: SweepSettings | None = None):
        self.settings = settings or SweepSettings()
        self.cache_hits = 0
        self.cache_misses = 0
        #: Duplicate (spec, config) pairs within one grid that were served
        #: by another pair's simulation instead of dispatching their own.
        self.dedup_skips = 0
        #: Merged component metrics across every record this runner returned.
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------ cache

    def _cache_path(self, key: str) -> Path:
        return self.settings.cache_dir / f"{key}.json"

    def _load_cached(self, key: str) -> RunRecord | None:
        if not self.settings.use_cache:
            return None
        path = self._cache_path(key)
        if not path.exists():
            return None
        try:
            with path.open() as handle:
                return RunRecord.from_json(json.load(handle))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # A corrupt cache entry must never poison an experiment.
            path.unlink(missing_ok=True)
            return None

    def _store(self, key: str, record: RunRecord) -> None:
        if not self.settings.use_cache:
            return
        self.settings.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(key)
        tmp = path.with_suffix(".tmp")
        with tmp.open("w") as handle:
            json.dump(record.to_json(), handle)
        tmp.replace(path)

    def _store_manifest(
        self,
        key: str,
        spec: WorkloadSpec,
        config: GpuConfig,
        timing: _PairTiming,
        record: RunRecord | None = None,
    ) -> None:
        """Write run provenance beside the cached record (advisory only)."""
        if not (self.settings.use_cache and self.settings.write_manifests):
            return
        per_gpm_energy = None
        if record is not None and record.residency is not None:
            from repro.core.energy_model import EnergyParams
            from repro.dvfs.residency import DvfsResidency

            params = EnergyParams.for_operating_point(
                config, residency=DvfsResidency.from_json(record.residency)
            )
            breakdown = record.energy(params)
            per_gpm_energy = [
                gpm.as_dict() for gpm in breakdown.per_gpm
            ] or None
        manifest = RunManifest(
            cache_key=key,
            workload=spec.abbr,
            config_label=config.label(),
            results_version=RESULTS_VERSION,
            spec_hash=_spec_hash(spec),
            config_fingerprint=_config_fingerprint(config),
            wall_time_s=timing.wall_time_s,
            events_processed=timing.events_processed,
            events_per_sec=timing.events_per_sec,
            dvfs_residency=None if record is None else record.residency,
            per_gpm_energy=per_gpm_energy,
        )
        manifest.write(RunManifest.path_for(self._cache_path(key)))

    def _report(self, done: int, total: int, label: str, wall_time_s: float) -> None:
        if self.settings.progress:
            print(
                f"[sweep] {done}/{total} simulated: {label}"
                f" ({wall_time_s:.1f}s)",
                file=sys.stderr,
                flush=True,
            )

    # ------------------------------------------------------------------- runs

    def _worker_count(self, missing_count: int) -> int:
        """Sweep processes to launch: never more than the work or the cores.

        A sweep larger than the core count gains nothing from extra
        processes.
        """
        return min(self.settings.processes, missing_count, os.cpu_count() or 1)

    def run(
        self, pairs: list[tuple[WorkloadSpec, GpuConfig]]
    ) -> list[RunRecord]:
        """Run every pair, serving cached results and simulating the rest.

        Results come back in input order.
        """
        if not pairs:
            raise ExperimentError("an empty sweep is almost certainly a bug")
        records: list[RunRecord | None] = []
        missing: list[tuple[int, tuple[WorkloadSpec, GpuConfig]]] = []
        keys: list[str] = []
        # Content-address -> input index of the pair that will simulate it.
        # Duplicate pairs within one grid (same fingerprint, possibly
        # distinct objects) dispatch exactly once; followers copy the
        # leader's record after the pool drains.
        leader_for_key: dict[str, int] = {}
        followers: list[int] = []
        for index, (spec, config) in enumerate(pairs):
            key = _cache_key(spec, config)
            keys.append(key)
            cached = self._load_cached(key)
            if cached is None:
                records.append(None)
                if key in leader_for_key:
                    followers.append(index)
                    self.dedup_skips += 1
                else:
                    leader_for_key[key] = index
                    missing.append((index, (spec, config)))
                    self.cache_misses += 1
            else:
                # The content-hash key guarantees (spec, config) identity;
                # the label is derived presentation data, so re-stamp it
                # rather than replay however the caching run spelled it.
                records.append(
                    replace(
                        cached,
                        workload=spec.abbr,
                        config_label=config.label(),
                    )
                )
                self.cache_hits += 1

        total = len(missing)
        if missing and self.settings.progress:
            print(
                f"[sweep] {len(pairs)} pairs: {self.cache_hits} cached,"
                f" {total} to simulate"
                f" (processes={min(self.settings.processes, max(total, 1))})",
                file=sys.stderr,
                flush=True,
            )
        done = 0

        def _finish(index: int, record: RunRecord, timing: _PairTiming) -> None:
            # Store as each simulation completes, so an interrupted sweep
            # resumes where it stopped.  Records land at their input index
            # and each manifest sits beside its own cache entry, so the
            # nondeterministic as_completed arrival order affects neither
            # result ordering nor on-disk layout.
            nonlocal done
            spec, config = pairs[index]
            records[index] = record
            self._store(keys[index], record)
            self._store_manifest(keys[index], spec, config, timing, record)
            done += 1
            self._report(
                done,
                total,
                f"{spec.abbr} on {config.label()}",
                timing.wall_time_s,
            )

        if missing:
            # Cached pairs were short-circuited above; only genuinely missing
            # work reaches the pool.
            workers = self._worker_count(len(missing))
            if workers > 1 and len(missing) > 1:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        pool.submit(_timed_run_pair, pair): index
                        for index, pair in missing
                    }
                    for future in as_completed(futures):
                        record, timing = future.result()
                        _finish(futures[future], record, timing)
            else:
                for index, pair in missing:
                    record, timing = _timed_run_pair(pair)
                    _finish(index, record, timing)

        for index in followers:
            spec, config = pairs[index]
            leader_record = records[leader_for_key[keys[index]]]
            records[index] = replace(
                leader_record,
                workload=spec.abbr,
                config_label=config.label(),
            )

        results = [record for record in records if record is not None]
        for record in results:
            if record.metrics:
                self.metrics.merge(MetricsRegistry.from_json(record.metrics))
        return results

    def run_grid(
        self, specs: list[WorkloadSpec], configs: list[GpuConfig]
    ) -> dict[str, dict[str, RunRecord]]:
        """Cartesian sweep; returns ``results[config_label][workload]``.

        Operating-point (V/f) grids go through
        :class:`~repro.dvfs.sweetspot.SweetSpotSearch` instead.
        """
        pairs = [(spec, config) for config in configs for spec in specs]
        records = self.run(pairs)
        grid: dict[str, dict[str, RunRecord]] = {}
        for record in records:
            grid.setdefault(record.config_label, {})[record.workload] = record
        return grid
