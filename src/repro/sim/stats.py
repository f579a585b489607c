"""Lightweight statistics helpers used by simulator counters and experiments."""

from __future__ import annotations

import math
from collections.abc import Iterable


class Accumulator:
    """Online mean/variance (Welford) plus min/max tracking."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations."""
        for value in values:
            self.add(value)

    def merge(self, other: "Accumulator") -> "Accumulator":
        """Fold another accumulator into this one (returns ``self``).

        Uses the parallel Welford combine (Chan et al.), so merging
        per-process accumulators is equivalent — up to float rounding — to
        having observed every sample in one process.  This is what lets
        :class:`~repro.trace.metrics.MetricsRegistry` aggregate sweep-worker
        metrics without shipping raw samples.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other._mean - self._mean
        self._mean += delta * (other.count / total)
        self._m2 += other._m2 + delta * delta * (self.count * other.count / total)
        self.count = total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        return self

    def to_json(self) -> dict:
        """Exact merge state as JSON data (``None`` bounds when empty)."""
        return {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Accumulator":
        acc = cls()
        acc.count = int(data["count"])
        acc._mean = float(data["mean"])
        acc._m2 = float(data["m2"])
        if acc.count > 0:
            acc.minimum = float(data["min"])
            acc.maximum = float(data["max"])
        return acc

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of an empty accumulator")
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance."""
        if self.count == 0:
            raise ValueError("variance of an empty accumulator")
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        if self.count == 0:
            return "Accumulator(empty)"
        return (
            f"Accumulator(n={self.count}, mean={self._mean:.4g},"
            f" min={self.minimum:.4g}, max={self.maximum:.4g})"
        )


class Histogram:
    """Fixed-width bucket histogram for diagnostic distributions."""

    def __init__(self, bucket_width: float, name: str = ""):
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width!r}")
        self.bucket_width = bucket_width
        self.name = name
        self.buckets: dict[int, int] = {}
        self.total = 0

    def add(self, value: float, weight: int = 1) -> None:
        """Record ``value`` with the given integer weight."""
        index = int(value // self.bucket_width)
        self.buckets[index] = self.buckets.get(index, 0) + weight
        self.total += weight

    def quantile(self, q: float) -> float:
        """Approximate quantile (bucket upper edge); q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.total == 0:
            raise ValueError("quantile of an empty histogram")
        target = q * self.total
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                return (index + 1) * self.bucket_width
        return (max(self.buckets) + 1) * self.bucket_width

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram into this one (returns ``self``).

        Both histograms must share a bucket width; merging is exact (integer
        bucket sums), hence associative and commutative.
        """
        if other.bucket_width != self.bucket_width:
            raise ValueError(
                f"cannot merge histograms with bucket widths"
                f" {self.bucket_width} and {other.bucket_width}"
            )
        for index, weight in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + weight
        self.total += other.total
        return self

    def to_json(self) -> dict:
        """Exact state as JSON data (bucket indices as string keys)."""
        return {
            "bucket_width": self.bucket_width,
            "buckets": {
                str(index): weight
                for index, weight in sorted(self.buckets.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "Histogram":
        histogram = cls(float(data["bucket_width"]))
        for index, weight in data["buckets"].items():
            histogram.buckets[int(index)] = int(weight)
        histogram.total = sum(histogram.buckets.values())
        return histogram

    def __len__(self) -> int:
        return self.total
