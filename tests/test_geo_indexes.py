"""Tests for the grid index, cross-checked vs brute force."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.geo import GridIndex, Point

# width=32 keeps coordinates float32-representable: squaring them in
# float64 can never underflow to zero, which would otherwise let a
# denormal-coordinate point pass the brute-force distance check while
# sitting in a grid cell outside the query's reach.
coords = st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)
point_lists = st.lists(
    st.tuples(coords, coords), min_size=0, max_size=60, unique=True
)


def brute_radius(items: dict, center: Point, radius: float) -> set:
    return {
        key
        for key, point in items.items()
        if point.squared_distance_to(center) <= radius * radius
    }


def brute_nearest(items: dict, center: Point):
    best_key, best_distance = None, math.inf
    for key, point in items.items():
        distance = point.distance_to(center)
        if distance < best_distance:
            best_key, best_distance = key, distance
    return best_key, best_distance


class TestGridIndexBasics:
    def test_invalid_cell_size(self):
        with pytest.raises(ConfigurationError):
            GridIndex(0.0)

    def test_insert_contains_len(self):
        index = GridIndex(1.0)
        index.insert("a", Point(0.5, 0.5))
        assert "a" in index and len(index) == 1

    def test_reinsert_moves(self):
        index = GridIndex(1.0)
        index.insert("a", Point(0, 0))
        index.insert("a", Point(10, 10))
        assert len(index) == 1
        assert index.query_radius(Point(10, 10), 0.0) == ["a"]
        assert index.query_radius(Point(0, 0), 0.5) == []

    def test_reinsert_replaces_the_payload(self):
        index = GridIndex(1.0)
        point = Point(0.3, 0.3)
        index.insert("a", point, payload="first")
        index.insert("a", point, payload="second")
        assert [dict(b) for b in index.buckets_within(point, 0.1)] == [
            {"a": "second"}
        ]
        # Without a payload the bucket holds the point again, which is
        # what query_radius and nearest read.
        index.insert("a", point)
        assert [dict(b) for b in index.buckets_within(point, 0.1)] == [{"a": point}]
        assert index.query_radius(point, 0.0) == ["a"]
        assert index.nearest(Point(1.0, 1.0)) == (
            "a",
            point.distance_to(Point(1.0, 1.0)),
        )
        assert dict(index.items()) == {"a": point}

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            GridIndex(1.0).remove("ghost")

    def test_negative_radius_raises(self):
        with pytest.raises(ConfigurationError):
            GridIndex(1.0).query_radius(Point(0, 0), -1.0)

    def test_negative_coordinates(self):
        index = GridIndex(1.0)
        index.insert("a", Point(-3.7, -2.1))
        assert index.query_radius(Point(-3.5, -2.0), 0.5) == ["a"]

    def test_boundary_inclusive(self):
        index = GridIndex(1.0)
        index.insert("a", Point(1.0, 0.0))
        assert index.query_radius(Point(0, 0), 1.0) == ["a"]

    def test_nearest_empty(self):
        assert GridIndex(1.0).nearest(Point(0, 0)) is None

    def test_clear(self):
        index = GridIndex(1.0)
        index.insert("a", Point(0, 0))
        index.clear()
        assert len(index) == 0


    def test_point_whose_rounded_distance_is_the_radius_is_found(self):
        # -4.4e-269 lies in cell -1, outside the disk's exact bounding
        # square, but its distance to x = 0.5 rounds to exactly 0.5.
        index = GridIndex(cell_size=0.5)
        index.insert("edge", Point(-4.4e-269, 0.0))
        assert index.query_radius(Point(0.5, 0.0), 0.5) == ["edge"]


class TestGridIndexVsBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(point_lists, coords, coords, st.floats(min_value=0, max_value=20))
    def test_query_radius_matches(self, raw, cx, cy, radius):
        index = GridIndex(1.3)
        items = {}
        for i, (x, y) in enumerate(raw):
            point = Point(x, y)
            items[i] = point
            index.insert(i, point)
        center = Point(cx, cy)
        assert set(index.query_radius(center, radius)) == brute_radius(
            items, center, radius
        )

    @settings(max_examples=60, deadline=None)
    @given(point_lists, coords, coords)
    def test_nearest_matches(self, raw, cx, cy):
        index = GridIndex(1.3)
        items = {}
        for i, (x, y) in enumerate(raw):
            point = Point(x, y)
            items[i] = point
            index.insert(i, point)
        center = Point(cx, cy)
        result = index.nearest(center)
        if not items:
            assert result is None
            return
        assert result is not None
        __, expected_distance = brute_nearest(items, center)
        assert result[1] == pytest.approx(expected_distance)

    def test_interleaved_inserts_and_removals(self):
        rng = random.Random(3)
        index = GridIndex(0.9)
        items: dict = {}
        for step in range(400):
            if items and rng.random() < 0.4:
                key = rng.choice(list(items))
                index.remove(key)
                del items[key]
            else:
                key = step
                point = Point(rng.uniform(-20, 20), rng.uniform(-20, 20))
                index.insert(key, point)
                items[key] = point
            if step % 37 == 0:
                center = Point(rng.uniform(-20, 20), rng.uniform(-20, 20))
                radius = rng.uniform(0, 8)
                assert set(index.query_radius(center, radius)) == brute_radius(
                    items, center, radius
                )
