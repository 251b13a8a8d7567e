"""Tests for the sample quantile."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.utils.stats import quantile

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


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
