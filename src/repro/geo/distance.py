"""Distance functions.

The paper's model uses planar Euclidean distance; §II remarks that road
network (shortest-path) distance is a drop-in replacement because only the
*service range predicate* changes.

No run path calls these functions: :meth:`Point.distance_to
<repro.geo.point.Point.distance_to>` computes the Euclidean distance
inline, :mod:`repro.geo.roadnet` computes its own shortest paths, and
:mod:`repro.workloads.trace_io` projects coordinates without them.  They
are exported from :mod:`repro.geo` and serve the tests as oracles:
``manhattan`` for the road network's full-grid distances and
``haversine_km`` for the trace projection.
"""

from __future__ import annotations

import math

from repro.geo.point import Point

__all__ = ["euclidean", "manhattan", "haversine_km"]

EARTH_RADIUS_KM = 6371.0088


def euclidean(a: Point, b: Point) -> float:
    """Planar Euclidean distance."""
    return math.hypot(a.x - b.x, a.y - b.y)


def manhattan(a: Point, b: Point) -> float:
    """L1 distance — the simplest road-grid travel model."""
    return abs(a.x - b.x) + abs(a.y - b.y)


def haversine_km(a: Point, b: Point) -> float:
    """Great-circle distance in kilometres.

    Points are interpreted as ``(x=longitude, y=latitude)`` in degrees.
    Only tests call it, as the oracle for the planar projection of
    :mod:`repro.workloads.trace_io`.
    """
    lon1, lat1 = math.radians(a.x), math.radians(a.y)
    lon2, lat2 = math.radians(b.x), math.radians(b.y)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))
