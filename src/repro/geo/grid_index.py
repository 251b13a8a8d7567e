"""Uniform-grid spatial index.

The workhorse index behind every waiting list.  Workers are inserted under a
hashable key at a point; an incoming request asks for all workers within a
query radius (the maximum service radius present — each candidate is then
filtered against its own radius by the caller, which keeps the index fully
generic).

A uniform grid is the right structure here because the paper's service radii
are tightly bounded (0.5-2.5 km) while the city spans tens of km: queries
touch O(1) cells and the index supports O(1) delete, which matters because a
matched worker must leave the index immediately (1-by-1 constraint).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterator

from repro.errors import ConfigurationError
from repro.geo.point import Point

__all__ = ["GridIndex"]


class GridIndex:
    """A dynamic point index over an unbounded plane.

    Parameters
    ----------
    cell_size:
        Edge length of a grid cell.  Choose close to the typical query
        radius; a query enumerates the cells of its disk's bounding square.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ConfigurationError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = float(cell_size)
        self._cells: dict[tuple[int, int], dict[Hashable, object]] = {}
        self._locations: dict[Hashable, Point] = {}

    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._locations

    def _cell_of(self, point: Point) -> tuple[int, int]:
        return (
            int(math.floor(point.x / self.cell_size)),
            int(math.floor(point.y / self.cell_size)),
        )

    def insert(self, key: Hashable, point: Point, payload: object = None) -> None:
        """Insert ``key`` at ``point`` with ``payload`` (by default the point,
        which :meth:`query_radius` and :meth:`nearest` read); re-inserting
        an existing key moves it and replaces its payload."""
        if key in self._locations:
            self.remove(key)
        cell = self._cell_of(point)
        self._cells.setdefault(cell, {})[key] = point if payload is None else payload
        self._locations[key] = point

    def remove(self, key: Hashable) -> None:
        """Remove ``key``; raises ``KeyError`` if absent."""
        point = self._locations.pop(key)
        cell = self._cell_of(point)
        bucket = self._cells[cell]
        del bucket[key]
        if not bucket:
            del self._cells[cell]

    def buckets_within(
        self, center: Point, radius: float
    ) -> Iterator[dict[Hashable, object]]:
        """The non-empty ``key -> payload`` buckets of every cell that can
        hold a point of the closed disk ``(center, radius)``.

        The cells cover the disk's bounding square, padded by a relative
        margin far above float rounding error: a point whose *rounded*
        distance test passes may lie just outside the exact square (at
        ``x = -1e-300`` it sits in cell -1, yet its distance to a centre
        at ``x = radius`` rounds to exactly ``radius``).  Cells are
        visited column by column.  Points in them may lie outside the
        disk: callers apply their own distance test, which lets a caller
        fuse it with its own filters in one pass
        (:meth:`repro.core.waiting_list.WaitingList.eligible_with_distance`).
        The buckets are live; do not mutate the index while iterating.
        """
        if radius < 0:
            raise ConfigurationError(f"radius must be non-negative, got {radius}")
        x, y, size = center.x, center.y, self.cell_size
        pad = radius + 1e-12 * (abs(x) + abs(y) + radius) + 1e-300
        rows = range(
            math.floor((y - pad) / size), math.floor((y + pad) / size) + 1
        )
        cells = self._cells
        for cell_x in range(
            math.floor((x - pad) / size), math.floor((x + pad) / size) + 1
        ):
            for cell_y in rows:
                bucket = cells.get((cell_x, cell_y))
                if bucket:
                    yield bucket

    def query_radius(self, center: Point, radius: float) -> list[Hashable]:
        """All keys within the closed disk ``(center, radius)``.

        Results are unordered; callers needing determinism should sort.
        """
        radius_squared = radius * radius
        return [
            key
            for bucket in self.buckets_within(center, radius)
            for key, point in bucket.items()
            if point.squared_distance_to(center) <= radius_squared
        ]

    def nearest(self, center: Point) -> tuple[Hashable, float] | None:
        """The closest key to ``center`` and its distance, or ``None`` if empty.

        Expands ring by ring from the centre cell; terminates once the ring's
        minimum possible distance exceeds the best found.
        """
        if not self._locations:
            return None
        center_cell = self._cell_of(center)
        best_key: Hashable | None = None
        best_squared = math.inf
        ring = 0
        max_ring = self._max_ring(center_cell)
        while ring <= max_ring:
            for cell in self._ring_cells(center_cell, ring):
                bucket = self._cells.get(cell)
                if not bucket:
                    continue
                for key, point in bucket.items():
                    squared = point.squared_distance_to(center)
                    if squared < best_squared:
                        best_squared = squared
                        best_key = key
            if best_key is not None:
                # Points in farther rings are at least (ring * cell) away from
                # the center cell's boundary; stop once that exceeds best.
                guaranteed = ring * self.cell_size
                if guaranteed * guaranteed > best_squared:
                    break
            ring += 1
        assert best_key is not None
        return best_key, math.sqrt(best_squared)

    def _max_ring(self, center_cell: tuple[int, int]) -> int:
        reach = 0
        for cell_x, cell_y in self._cells:
            reach = max(
                reach, abs(cell_x - center_cell[0]), abs(cell_y - center_cell[1])
            )
        return reach

    @staticmethod
    def _ring_cells(
        center: tuple[int, int], ring: int
    ) -> Iterator[tuple[int, int]]:
        cx, cy = center
        if ring == 0:
            yield (cx, cy)
            return
        for x in range(cx - ring, cx + ring + 1):
            yield (x, cy - ring)
            yield (x, cy + ring)
        for y in range(cy - ring + 1, cy + ring):
            yield (cx - ring, y)
            yield (cx + ring, y)

    def items(self) -> Iterator[tuple[Hashable, Point]]:
        """Iterate over ``(key, point)`` pairs (unordered)."""
        return iter(self._locations.items())

    def clear(self) -> None:
        """Remove everything."""
        self._cells.clear()
        self._locations.clear()
