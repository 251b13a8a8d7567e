"""Spatial substrate: points, distances, bounding boxes, and spatial indexes.

COM's *range constraint* (Definition 2.6) requires, for every incoming
request, the set of waiting workers whose service disk covers the request's
location.  At the paper's scales (up to 100k requests x 20k workers) a linear
scan per request is the dominant cost, so the waiting lists are backed by a
uniform :class:`GridIndex` (the classic choice for uniformly bounded query
radii).

Distances default to Euclidean in km on a planar city model (the paper uses
Euclidean; §II notes road-network distance is a drop-in change).  Haversine
is included for lat/lon trace data.
"""

from repro.geo.point import Point
from repro.geo.bbox import BoundingBox
from repro.geo.distance import (
    euclidean,
    haversine_km,
    manhattan,
)
from repro.geo.grid_index import GridIndex
from repro.geo.roadnet import RoadNetwork

__all__ = [
    "Point",
    "BoundingBox",
    "euclidean",
    "haversine_km",
    "manhattan",
    "GridIndex",
    "RoadNetwork",
]
