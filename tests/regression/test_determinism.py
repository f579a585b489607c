"""Determinism: identical runs must produce identical counters and traces.

The sweep cache, the golden suite, and cross-process metric merging all
assume ``simulate()`` is a pure function of (workload spec, config).  These
tests pin that assumption in-process, across ``ProcessPoolExecutor``
workers (fresh interpreter state, different hash seeds), and at the
artifact level: the :class:`~repro.trace.manifest.RunManifest` a fresh
sweep writes beside its cache entry.
"""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.runner import SweepRunner, SweepSettings
from repro.gpu.simulator import simulate
from repro.tools.regen_goldens import (
    GOLDEN_CONFIGS,
    GOLDEN_SPECS,
    counters_to_json,
)
from repro.trace import ChromeTracer, MetricsRegistry
from repro.workloads.generator import build_workload

SPEC = GOLDEN_SPECS["shared-micro"]
CONFIG = GOLDEN_CONFIGS["4gpm-ring"]

#: Manifest fields that legitimately differ between producing runs.
VOLATILE_FIELDS = ("wall_time_s", "events_per_sec", "host", "created_at")


def _run_once() -> tuple[dict, list[dict], dict]:
    """One traced simulation -> (counters, trace events, metrics state)."""
    tracer = ChromeTracer()
    metrics = MetricsRegistry()
    result = simulate(
        build_workload(SPEC), CONFIG, tracer=tracer, metrics=metrics
    )
    return counters_to_json(result.counters), tracer.events(), metrics.to_json()


def _worker_counters(_seed: int) -> str:
    # Top-level so ProcessPoolExecutor can pickle it; the argument only
    # exists to satisfy map().
    counters, events, metrics = _run_once()
    return json.dumps(
        {"counters": counters, "events": events, "metrics": metrics},
        sort_keys=True,
    )


class TestInProcessDeterminism:
    def test_back_to_back_runs_are_identical(self):
        first = _run_once()
        second = _run_once()
        assert first[0] == second[0], "counters differ between identical runs"
        assert first[1] == second[1], "trace events differ between identical runs"
        assert first[2] == second[2], "metrics differ between identical runs"

    def test_tracing_does_not_perturb_counters(self):
        baseline = simulate(build_workload(SPEC), CONFIG)
        traced = simulate(
            build_workload(SPEC), CONFIG, tracer=ChromeTracer(),
            metrics=MetricsRegistry(),
        )
        assert counters_to_json(baseline.counters) == counters_to_json(
            traced.counters
        )


class TestCrossProcessDeterminism:
    def test_workers_agree_with_each_other_and_the_parent(self):
        parent = _worker_counters(0)
        with ProcessPoolExecutor(max_workers=2) as pool:
            worker_results = list(pool.map(_worker_counters, range(2)))
        assert worker_results[0] == worker_results[1]
        assert worker_results[0] == parent


def _first_divergence(want, got, path=""):
    """Depth-first name of the first differing leaf between two JSON trees."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            hit = _first_divergence(
                want.get(key), got.get(key), f"{path}.{key}" if path else key
            )
            if hit is not None:
                return hit
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path}: length {len(want)} != {len(got)}"
        for index, (w, g) in enumerate(zip(want, got)):
            hit = _first_divergence(w, g, f"{path}[{index}]")
            if hit is not None:
                return hit
        return None
    if want != got:
        return f"{path}: {want!r} != {got!r}"
    return None


def _manifest(cache_dir, spec, config):
    """Run one pair through a fresh sweep cache; return its manifest JSON."""
    settings = SweepSettings(cache_dir=cache_dir, processes=1, progress=False)
    SweepRunner(settings).run([(spec, config)])
    manifests = sorted(cache_dir.glob("*.manifest.json"))
    assert len(manifests) == 1
    data = json.loads(manifests[0].read_text())
    for field in VOLATILE_FIELDS:
        data.pop(field, None)
    return data


class TestManifestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        """Two fresh sweeps of one pair write byte-identical provenance.

        On divergence the failure names the first differing manifest field
        (for counter drift, the first diverging counter) to start bisecting.
        """
        spec = GOLDEN_SPECS["stream-micro"]
        config = GOLDEN_CONFIGS["4gpm-ring"]
        first = _manifest(tmp_path / "a", spec, config)
        second = _manifest(tmp_path / "b", spec, config)
        first_bytes = json.dumps(first, sort_keys=True, indent=2).encode()
        second_bytes = json.dumps(second, sort_keys=True, indent=2).encode()
        if first_bytes != second_bytes:
            pytest.fail(
                "manifest diverged between identical runs: first differing"
                f" field: {_first_divergence(first, second)}"
            )
