"""Axis-aligned bounding boxes.

Used by the workload generators (a city is a bounding box populated with
hotspots) and by the road-network grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geo.point import Point

__all__ = ["BoundingBox"]


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """A closed axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ConfigurationError(
                f"degenerate bounding box: ({self.min_x}, {self.min_y}) .. "
                f"({self.max_x}, {self.max_y})"
            )

    @classmethod
    def square(cls, side_km: float) -> "BoundingBox":
        """A ``side_km`` x ``side_km`` box anchored at the origin."""
        if side_km <= 0:
            raise ConfigurationError(f"square side must be positive, got {side_km}")
        return cls(0.0, 0.0, side_km, side_km)

    @property
    def width(self) -> float:
        """Extent along x."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.max_y - self.min_y

    def contains(self, point: Point) -> bool:
        """True iff ``point`` is inside the closed box."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def clamp(self, point: Point) -> Point:
        """Project ``point`` onto the box (nearest point inside it)."""
        return Point(
            min(max(point.x, self.min_x), self.max_x),
            min(max(point.y, self.min_y), self.max_y),
        )
