"""Named metric registry shared by simulator components.

Components register metrics by name the first time they record into them:

    cta_cycles = engine.metrics.accumulator("sm.cta_cycles")
    ...
    cta_cycles.add(end - start)

A registry is always present on the engine, so recording sites never branch;
the cost of a disabled observability stack is just the underlying
:class:`~repro.sim.stats.Accumulator`/:class:`~repro.sim.stats.Histogram`
updates, which are O(1) and only occur at coarse-grained points (CTA retire,
remote access completion, DRAM service, interconnect transfer).

Registries serialize to plain JSON (`to_json`) carrying the *exact* merge
state (count/mean/M2 for accumulators, raw buckets for histograms), so
per-worker registries from :class:`~repro.experiments.runner.SweepRunner`
processes round-trip through :class:`~repro.experiments.results.RunRecord`
and combine losslessly via :meth:`MetricsRegistry.merge` — the parallel
Welford combine makes merging associative and commutative up to float
rounding.
"""

from __future__ import annotations

from repro.sim.stats import Accumulator, Histogram


class MetricsRegistry:
    """Name -> metric mapping with cross-process merge and serialization."""

    __slots__ = ("_accumulators", "_histograms")

    def __init__(self) -> None:
        self._accumulators: dict[str, Accumulator] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------ registration

    def accumulator(self, name: str) -> Accumulator:
        """Return the accumulator registered under ``name``, creating it."""
        metric = self._accumulators.get(name)
        if metric is None:
            metric = Accumulator()
            self._accumulators[name] = metric
        return metric

    def histogram(self, name: str, bucket_width: float) -> Histogram:
        """Return the histogram registered under ``name``, creating it.

        Re-registration with a different ``bucket_width`` is a bug in the
        instrumentation and raises.
        """
        metric = self._histograms.get(name)
        if metric is None:
            metric = Histogram(bucket_width, name=name)
            self._histograms[name] = metric
        elif metric.bucket_width != bucket_width:
            raise ValueError(
                f"histogram {name!r} already registered with bucket width"
                f" {metric.bucket_width}, not {bucket_width}"
            )
        return metric

    @property
    def accumulators(self) -> dict[str, Accumulator]:
        return dict(self._accumulators)

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def names(self) -> list[str]:
        return sorted(self._accumulators) + sorted(self._histograms)

    def __len__(self) -> int:
        return len(self._accumulators) + len(self._histograms)

    def __bool__(self) -> bool:
        return len(self) > 0

    # ------------------------------------------------------------------- merge

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (returns ``self``).

        Metrics present in only one registry are adopted as-is; shared names
        combine via the parallel Welford/bucket-sum merges.
        """
        for name, theirs in other._accumulators.items():
            self.accumulator(name).merge(theirs)
        for name, theirs in other._histograms.items():
            self.histogram(name, theirs.bucket_width).merge(theirs)
        return self

    # ----------------------------------------------------------- serialization

    def to_json(self) -> dict:
        """Exact, merge-preserving state as plain JSON data."""
        return {
            "accumulators": {
                name: metric.to_json()
                for name, metric in sorted(self._accumulators.items())
            },
            "histograms": {
                name: metric.to_json()
                for name, metric in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict | None) -> "MetricsRegistry":
        registry = cls()
        if not data:
            return registry
        for name, state in data.get("accumulators", {}).items():
            registry._accumulators[name] = Accumulator.from_json(state)
        for name, state in data.get("histograms", {}).items():
            histogram = Histogram.from_json(state)
            histogram.name = name
            registry._histograms[name] = histogram
        return registry

    def snapshot(self) -> dict:
        """Human-oriented summary (means/quantiles), for reports and the CLI."""
        summary: dict[str, dict] = {}
        for name, metric in sorted(self._accumulators.items()):
            if metric.count == 0:
                continue
            summary[name] = {
                "count": metric.count,
                "mean": metric.mean,
                "min": metric.minimum,
                "max": metric.maximum,
                "stddev": metric.stddev,
            }
        for name, metric in sorted(self._histograms.items()):
            if metric.total == 0:
                continue
            summary[name] = {
                "count": metric.total,
                "p50": metric.quantile(0.5),
                "p99": metric.quantile(0.99),
            }
        return summary

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._accumulators)} accumulators,"
            f" {len(self._histograms)} histograms)"
        )
