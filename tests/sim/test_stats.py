"""Online statistics helpers."""

import pytest

from repro.sim.stats import Accumulator, Histogram


class TestAccumulator:
    def test_mean_and_extrema(self):
        acc = Accumulator()
        acc.extend([1.0, 5.0, 3.0])
        assert acc.mean == pytest.approx(3.0)
        assert acc.minimum == 1.0
        assert acc.maximum == 5.0
        assert len(acc) == 3

    def test_variance_matches_population_formula(self):
        acc = Accumulator()
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        acc.extend(values)
        assert acc.variance == pytest.approx(4.0)
        assert acc.stddev == pytest.approx(2.0)

    def test_empty_raises(self):
        acc = Accumulator()
        with pytest.raises(ValueError):
            _ = acc.mean
        with pytest.raises(ValueError):
            _ = acc.variance

    def test_single_value(self):
        acc = Accumulator()
        acc.add(42.0)
        assert acc.mean == 42.0
        assert acc.variance == 0.0


class TestAccumulatorMerge:
    def test_merge_matches_naive_recomputation(self):
        left_values = [2.0, 4.0, 4.0, 4.0]
        right_values = [5.0, 5.0, 7.0, 9.0]
        left, right, naive = Accumulator(), Accumulator(), Accumulator()
        left.extend(left_values)
        right.extend(right_values)
        naive.extend(left_values + right_values)

        left.merge(right)
        assert left.count == naive.count
        assert left.mean == pytest.approx(naive.mean)
        assert left.variance == pytest.approx(naive.variance)
        assert left.minimum == naive.minimum
        assert left.maximum == naive.maximum

    def test_merge_empty_into_populated_is_identity(self):
        acc = Accumulator()
        acc.extend([1.0, 3.0])
        acc.merge(Accumulator())
        assert acc.count == 2
        assert acc.mean == pytest.approx(2.0)

    def test_merge_populated_into_empty_copies_state(self):
        source = Accumulator()
        source.extend([1.0, 3.0])
        target = Accumulator()
        target.merge(source)
        assert target.count == 2
        assert target.mean == pytest.approx(2.0)
        assert target.minimum == 1.0
        assert target.maximum == 3.0

    def test_merge_returns_self(self):
        acc = Accumulator()
        assert acc.merge(Accumulator()) is acc

    def test_merge_does_not_mutate_other(self):
        left, right = Accumulator(), Accumulator()
        left.add(1.0)
        right.add(2.0)
        left.merge(right)
        assert right.count == 1
        assert right.mean == 2.0

    def test_json_roundtrip_preserves_merge_state(self):
        acc = Accumulator()
        acc.extend([1.0, 2.0, 3.0])
        restored = Accumulator.from_json(acc.to_json())
        assert restored.to_json() == acc.to_json()
        restored.add(4.0)
        acc.add(4.0)
        assert restored.variance == pytest.approx(acc.variance)

    def test_empty_json_roundtrip(self):
        restored = Accumulator.from_json(Accumulator().to_json())
        assert restored.count == 0


class TestHistogramMerge:
    def test_merge_sums_buckets(self):
        left, right = Histogram(bucket_width=10.0), Histogram(bucket_width=10.0)
        left.add(5.0)
        right.add(5.0)
        right.add(25.0, weight=3)
        left.merge(right)
        assert left.total == 5
        assert left.buckets == {0: 2, 2: 3}

    def test_merge_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            Histogram(bucket_width=1.0).merge(Histogram(bucket_width=2.0))

    def test_json_roundtrip(self):
        hist = Histogram(bucket_width=2.0, name="latency")
        hist.add(1.0)
        hist.add(5.0, weight=2)
        restored = Histogram.from_json(hist.to_json())
        assert restored.bucket_width == hist.bucket_width
        assert restored.buckets == hist.buckets
        assert restored.total == hist.total


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram(bucket_width=10.0)
        hist.add(5.0)
        hist.add(15.0, weight=2)
        assert hist.total == 3
        assert hist.buckets == {0: 1, 1: 2}

    def test_quantile(self):
        hist = Histogram(bucket_width=1.0)
        for value in range(100):
            hist.add(float(value))
        assert hist.quantile(0.5) == pytest.approx(50.0, abs=1.0)
        assert hist.quantile(1.0) == pytest.approx(100.0, abs=1.0)

    def test_quantile_validation(self):
        hist = Histogram(bucket_width=1.0)
        with pytest.raises(ValueError):
            hist.quantile(0.5)  # empty
        hist.add(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            Histogram(bucket_width=0.0)

