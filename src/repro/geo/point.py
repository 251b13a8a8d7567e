"""Immutable 2-D points.

Locations of requests and workers (Definitions 2.1-2.3) live in a planar 2-D
space measured in kilometres.  :class:`Point` is a frozen dataclass so it can
be shared freely between waiting lists, indexes, and matchings without
defensive copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Point"]


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the 2-D plane (kilometre units in the city model)."""

    x: float
    y: float

    def __reduce__(self):
        # Positional: pickling skips dataclasses' per-object __getstate__.
        return (Point, (self.x, self.y))

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (avoids the sqrt for comparisons)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def within(self, other: "Point", radius: float) -> bool:
        """True iff ``other`` lies inside this point's closed ``radius`` disk."""
        return self.squared_distance_to(other) <= radius * radius

    def __iter__(self):
        yield self.x
        yield self.y
