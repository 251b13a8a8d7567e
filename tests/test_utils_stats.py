"""Tests for streaming statistics."""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given, strategies as st

from repro.utils.stats import RunningStats, quantile

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.variance == 0.0

    def test_single_value(self):
        stats = RunningStats()
        stats.add(3.5)
        assert stats.mean == 3.5
        assert stats.min == 3.5
        assert stats.max == 3.5
        assert stats.stddev == 0.0

    def test_known_values(self):
        stats = RunningStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.total == pytest.approx(10.0)
        assert stats.variance == pytest.approx(statistics.pvariance([1, 2, 3, 4]))

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_matches_statistics_module(self, data):
        stats = RunningStats()
        stats.extend(data)
        assert stats.mean == pytest.approx(statistics.fmean(data), rel=1e-9, abs=1e-6)
        assert stats.min == min(data)
        assert stats.max == max(data)

    @given(
        st.lists(finite_floats, min_size=1, max_size=50),
        st.lists(finite_floats, min_size=1, max_size=50),
    )
    def test_merge_equals_concatenation(self, left, right):
        a = RunningStats()
        a.extend(left)
        b = RunningStats()
        b.extend(right)
        merged = a.merge(b)
        direct = RunningStats()
        direct.extend(left + right)
        assert merged.count == direct.count
        assert merged.mean == pytest.approx(direct.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(direct.variance, rel=1e-6, abs=1e-4)

    def test_merge_with_empty(self):
        a = RunningStats()
        a.extend([1.0, 2.0])
        merged = a.merge(RunningStats())
        assert merged.count == 2
        assert merged.mean == pytest.approx(1.5)


class TestQuantile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_median_odd(self):
        assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_median_even_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5.0, 7.0, 9.0]
        assert quantile(data, 0.0) == 5.0
        assert quantile(data, 1.0) == 9.0

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    def test_monotone_in_q(self, data):
        data = sorted(data)
        values = [quantile(data, q / 10) for q in range(11)]
        for lower, higher in zip(values, values[1:]):
            # Allow one ulp of interpolation noise.
            assert higher >= lower - 1e-9 * max(1.0, abs(lower))
