"""Tests for points, distances and bounding boxes."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.geo import (
    BoundingBox,
    Point,
    euclidean,
    haversine_km,
    manhattan,
)

coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
points = st.builds(Point, coords, coords)


class TestPoint:
    def test_distance_345(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_squared_distance(self):
        assert Point(0, 0).squared_distance_to(Point(3, 4)) == 25.0

    def test_within_boundary_inclusive(self):
        assert Point(0, 0).within(Point(0, 1), 1.0)
        assert not Point(0, 0).within(Point(0, 1.0001), 1.0)

    def test_iter_and_tuple(self):
        assert tuple(Point(1, 2)) == (1.0, 2.0)

    def test_hashable_and_frozen(self):
        p = Point(1, 2)
        assert p in {Point(1, 2)}
        with pytest.raises(AttributeError):
            p.x = 5  # type: ignore[misc]

    @given(points, points)
    def test_distance_symmetry(self, a, b):
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-7


class TestDistances:
    def test_manhattan(self):
        assert manhattan(Point(0, 0), Point(3, 4)) == 7.0

    @given(points, points)
    def test_manhattan_dominates_euclidean(self, a, b):
        assert manhattan(a, b) >= euclidean(a, b) - 1e-9

    def test_haversine_zero(self):
        p = Point(104.06, 30.67)  # Chengdu
        assert haversine_km(p, p) == 0.0

    def test_haversine_known_pair(self):
        chengdu = Point(104.06, 30.67)
        xian = Point(108.94, 34.34)
        distance = haversine_km(chengdu, xian)
        assert 590 < distance < 640  # ~606 km

    def test_haversine_symmetry(self):
        a, b = Point(0, 0), Point(10, 10)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))


class TestBoundingBox:
    def test_degenerate_raises(self):
        with pytest.raises(ConfigurationError):
            BoundingBox(1, 0, 0, 1)

    def test_square(self):
        box = BoundingBox.square(10.0)
        assert box.width == 10.0
        assert box.height == 10.0

    def test_square_nonpositive_raises(self):
        with pytest.raises(ConfigurationError):
            BoundingBox.square(0.0)

    def test_contains_closed(self):
        box = BoundingBox.square(1.0)
        assert box.contains(Point(0, 0))
        assert box.contains(Point(1, 1))
        assert not box.contains(Point(1.001, 0.5))

    def test_clamp(self):
        box = BoundingBox.square(1.0)
        assert box.clamp(Point(2, -1)) == Point(1, 0)
        assert box.clamp(Point(0.5, 0.5)) == Point(0.5, 0.5)

    @given(points)
    def test_clamped_point_inside(self, p):
        box = BoundingBox.square(7.0)
        assert box.contains(box.clamp(p))

    def test_clamp_is_nearest_point(self):
        box = BoundingBox.square(1.0)
        outside = Point(2.0, 0.5)
        clamped = box.clamp(outside)
        assert clamped == Point(1.0, 0.5)
        assert math.isclose(outside.distance_to(clamped), 1.0)
