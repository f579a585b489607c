"""Layer map and per-layer attribution of profiler self time.

A layer is named after a ``src/repro/`` package.  Every file under
``src/repro/`` maps to exactly one layer (``tests/test_layers.py`` enforces
it); code outside the package (stdlib, numpy, json, this benchmark) is
``other``.  Time spent in a C builtin is charged to the layer of the
Python function that called it, so a dict lookup inside the cache model
counts as memory time, not as ``other``.
"""

from __future__ import annotations

import pstats
from pathlib import Path

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The layers, in the order the benchmark reports them.
LAYERS = (
    "sim",
    "memory",
    "interconnect",
    "sm",
    "workloads",
    "gpu",
    "dvfs",
    "core",
    "roofline",
    "experiments",
    "service",
    "cli",
    "other",
)

#: ``src/repro/<package>/`` -> layer.  Packages without a layer of their
#: own join the layer that drives them: the tracer and metrics registry are
#: called from the engine's hot path, the ISA is what the SM executes, and
#: the silicon model and microbenchmarks only feed GPUJoule calibration.
_PACKAGE_LAYER = {
    "sim": "sim",
    "trace": "sim",
    "memory": "memory",
    "interconnect": "interconnect",
    "sm": "sm",
    "isa": "sm",
    "workloads": "workloads",
    "gpu": "gpu",
    "dvfs": "dvfs",
    "core": "core",
    "power": "core",
    "microbench": "core",
    "roofline": "roofline",
    "experiments": "experiments",
    "service": "service",
    "tools": "cli",
}

#: Files whose layer differs from their package's (paths under src/repro).
_FILE_LAYER = {
    "__init__.py": "cli",
    "__main__.py": "cli",
    "cli.py": "cli",
    "errors.py": "core",
    "units.py": "core",
    # Run manifests are written by the sweep runner, never by the engine.
    "trace/manifest.py": "experiments",
}


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside ``repro``)."""
    try:
        rel = Path(filename).resolve().relative_to(SRC_REPRO).as_posix()
    except ValueError:
        return "other"
    if rel in _FILE_LAYER:
        return _FILE_LAYER[rel]
    package = rel.split("/", 1)[0]
    if "/" in rel and package in _PACKAGE_LAYER:
        return _PACKAGE_LAYER[package]
    return "other"


def self_seconds(stats: pstats.Stats) -> dict[str, float]:
    """Profiler self time summed per layer (every layer present)."""
    layer_cache: dict[str, str] = {}

    def layer(func) -> str:
        filename = func[0]
        if filename not in layer_cache:
            layer_cache[filename] = layer_of(filename)
        return layer_cache[filename]

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, self_time, _, callers) in stats.stats.items():
        if func[0] != "~":
            totals[layer(func)] += self_time
            continue
        # A builtin: split its self time over its callers' layers.
        for caller, edge in callers.items():
            owner = "other" if caller[0] == "~" else layer(caller)
            totals[owner] += edge[2]
    return totals


def cumulative(stats: pstats.Stats, filename: str, name: str) -> tuple[float, int]:
    """(cumulative seconds, calls) of one ``repro`` function, or (0, 0)."""
    path = (SRC_REPRO / filename).resolve()
    for func, (_, calls, _, cum_time, _) in stats.stats.items():
        if func[2] == name and func[0] != "~" and Path(func[0]).resolve() == path:
            return cum_time, calls
    return 0.0, 0
