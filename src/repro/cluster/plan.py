"""Spatial shard plans: grid-cell → shard assignment for the cluster.

A :class:`ShardPlan` partitions the planar city model into grid cells
(the same ``floor(coord / cell)`` convention as
:class:`repro.geo.grid_index.GridIndex`) and assigns every cell to one
of ``shard_count`` shard gateways.  Two construction modes exist:

``ShardPlan.uniform``
    Stripes equal-width cell columns across shards — the right default
    when arrivals are roughly uniform over the city.

``ShardPlan.from_density``
    Heterogeneity-aware: counts arrival weight per cell from a scenario's
    event stream, splits *hot* cells (weight above :data:`HOT_FACTOR`
    times the mean) into four half-size subcells, then walks the regions in
    deterministic scan order cutting contiguous, load-balanced bands.
    This mirrors the density-adaptive partitioning argument of
    arXiv 2310.12433: dense downtown cells get finer shard granularity
    than sparse suburbs.

The plan is pure data — symmetric ``as_dict`` / ``from_dict`` codecs let
the router embed it in cluster recordings so a replay can rebuild the
exact same topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.events import EventKind, EventStream
from repro.errors import ConfigurationError
from repro.geo.point import Point

Cell = tuple[int, int]

# Deterministic cell mixing for out-of-bounds fallback routing.  These are
# the classic 2-D spatial-hash primes; builtin hash() is banned (DET004)
# because it is salted per process and would break replay determinism.
_MIX_X = 73856093
_MIX_Y = 19349663

#: A cell weighing more than this many times the mean is hot.
HOT_FACTOR = 2.0


def _cell_key(cell: Cell) -> str:
    return f"{cell[0]},{cell[1]}"


def _key_cell(key: str) -> Cell:
    left, _, right = key.partition(",")
    return (int(left), int(right))


@dataclass
class ShardPlan:
    """Immutable-by-convention map from grid cells to shard ids.

    Attributes
    ----------
    shard_count:
        Number of shard gateways in the cluster.
    cell_km:
        Base grid cell edge length in kilometres.
    reach_km:
        The largest worker service radius the plan must honour; the
        router forwards rejected requests to every shard whose cells
        intersect the request's reach disk.
    assignment:
        Base-cell → shard id for every cell the plan covers.
    split:
        Hot base cells refined to half-size subcells, each with its own
        shard id.  A base cell present here must not appear in
        ``assignment``.
    """

    shard_count: int
    cell_km: float
    reach_km: float = 0.0
    assignment: dict[Cell, int] = field(default_factory=dict)
    split: dict[Cell, dict[Cell, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ConfigurationError(
                f"shard_count must be >= 1, got {self.shard_count}"
            )
        if self.cell_km <= 0.0:
            raise ConfigurationError(
                f"cell_km must be positive, got {self.cell_km}"
            )
        if self.reach_km < 0.0:
            raise ConfigurationError(
                f"reach_km must be >= 0, got {self.reach_km}"
            )
        for cell in self.split:
            if cell in self.assignment:
                raise ConfigurationError(
                    f"cell {cell} is both assigned and split"
                )
        for shard in self._all_shard_ids():
            if not 0 <= shard < self.shard_count:
                raise ConfigurationError(
                    f"cell assigned to shard {shard}, "
                    f"but shard_count is {self.shard_count}"
                )

    def _all_shard_ids(self) -> list[int]:
        ids = [shard for shard in self.assignment.values()]
        for subcells in self.split.values():
            ids.extend(subcells.values())
        return ids

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def uniform(
        cls,
        shard_count: int,
        cell_km: float,
        city_km: float,
        reach_km: float = 0.0,
    ) -> "ShardPlan":
        """Stripe equal-width cell columns across ``shard_count`` shards."""
        if city_km <= 0.0:
            raise ConfigurationError(
                f"city_km must be positive, got {city_km}"
            )
        cells_per_axis = max(1, math.ceil(city_km / cell_km))
        assignment: dict[Cell, int] = {}
        for i in range(cells_per_axis):
            shard = min(shard_count - 1, i * shard_count // cells_per_axis)
            for j in range(cells_per_axis):
                assignment[(i, j)] = shard
        return cls(
            shard_count=shard_count,
            cell_km=cell_km,
            reach_km=reach_km,
            assignment=assignment,
        )

    @classmethod
    def from_density(
        cls,
        events: EventStream,
        shard_count: int,
        cell_km: float,
        reach_km: float = 0.0,
    ) -> "ShardPlan":
        """Heterogeneity-aware plan from observed arrival density.

        Requests weigh 1.0 and workers 0.5 (requests drive matching
        work; workers mostly sit in the grid index).  Cells whose weight
        exceeds :data:`HOT_FACTOR` times the mean are split into four
        half-size subcells so the balancing walk can cut *through* a
        hotspot instead of handing one shard the whole downtown.
        """
        weight: dict[Cell, float] = {}
        subweight: dict[Cell, dict[Cell, float]] = {}
        half = cell_km / 2.0
        for event in events:
            if event.kind is EventKind.REQUEST:
                assert event.request is not None
                point = event.request.location
                mass = 1.0
            else:
                assert event.worker is not None
                point = event.worker.location
                mass = 0.5
            cell = (
                math.floor(point.x / cell_km),
                math.floor(point.y / cell_km),
            )
            weight[cell] = weight.get(cell, 0.0) + mass
            sub = (math.floor(point.x / half), math.floor(point.y / half))
            per_cell = subweight.setdefault(cell, {})
            per_cell[sub] = per_cell.get(sub, 0.0) + mass
        if not weight:
            return cls.uniform(shard_count, cell_km, cell_km, reach_km)

        # Dense bounding box: every cell in the box becomes a region even
        # when empty, so clamped fallback lookups always resolve.
        min_i = min(cell[0] for cell in weight)
        max_i = max(cell[0] for cell in weight)
        min_j = min(cell[1] for cell in weight)
        max_j = max(cell[1] for cell in weight)
        mean = sum(weight.values()) / len(weight)
        hot_cutoff = HOT_FACTOR * mean

        # Regions in scan order: (base cell, subcell-or-None, weight).
        regions: list[tuple[Cell, Cell | None, float]] = []
        for i in range(min_i, max_i + 1):
            for j in range(min_j, max_j + 1):
                cell = (i, j)
                cell_weight = weight.get(cell, 0.0)
                if cell_weight > hot_cutoff:
                    per_cell = subweight.get(cell, {})
                    for sub in sorted(
                        (i * 2 + di, j * 2 + dj)
                        for di in (0, 1)
                        for dj in (0, 1)
                    ):
                        regions.append(
                            (cell, sub, per_cell.get(sub, 0.0))
                        )
                else:
                    regions.append((cell, None, cell_weight))

        total = sum(region[2] for region in regions)
        assignment: dict[Cell, int] = {}
        split: dict[Cell, dict[Cell, int]] = {}
        cumulative = 0.0
        for cell, sub, region_weight in regions:
            # Contiguous-band cut: the shard index grows with the
            # cumulative weight fraction at the region's midpoint.
            midpoint = cumulative + region_weight / 2.0
            fraction = midpoint / total if total > 0.0 else 0.0
            shard = min(shard_count - 1, int(fraction * shard_count))
            cumulative += region_weight
            if sub is None:
                assignment[cell] = shard
            else:
                split.setdefault(cell, {})[sub] = shard
        return cls(
            shard_count=shard_count,
            cell_km=cell_km,
            reach_km=reach_km,
            assignment=assignment,
            split=split,
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _bounds(self) -> tuple[int, int, int, int] | None:
        cells = list(self.assignment) + list(self.split)
        if not cells:
            return None
        return (
            min(cell[0] for cell in cells),
            max(cell[0] for cell in cells),
            min(cell[1] for cell in cells),
            max(cell[1] for cell in cells),
        )

    def shard_of_cell(self, cell: Cell, point: Point | None = None) -> int:
        """Shard owning ``cell`` (``point`` refines split-cell lookups)."""
        subcells = self.split.get(cell)
        if subcells is not None:
            half = self.cell_km / 2.0
            if point is not None:
                sub = (
                    math.floor(point.x / half),
                    math.floor(point.y / half),
                )
                found = subcells.get(sub)
                if found is not None:
                    return found
            # Cell-granular queries (e.g. reach enumeration) take the
            # lowest shard; callers wanting every shard of a split cell
            # use shards_in_disk.
            return min(subcells.values())
        assigned = self.assignment.get(cell)
        if assigned is not None:
            return assigned
        return self._fallback_shard(cell)

    def _fallback_shard(self, cell: Cell) -> int:
        """Deterministic owner for a cell outside the planned area.

        Clamp into the planned bounding box first — arrivals just past
        the city edge belong with their nearest border shard.  A plan
        with no cells at all degrades to a mixed stripe.
        """
        bounds = self._bounds()
        if bounds is not None:
            min_i, max_i, min_j, max_j = bounds
            clamped = (
                min(max(cell[0], min_i), max_i),
                min(max(cell[1], min_j), max_j),
            )
            if clamped != cell:
                return self.shard_of_cell(clamped)
        mixed = (cell[0] * _MIX_X) ^ (cell[1] * _MIX_Y)
        return mixed % self.shard_count

    def shard_of(self, point: Point) -> int:
        """The shard that owns arrivals at ``point``."""
        cell = (
            math.floor(point.x / self.cell_km),
            math.floor(point.y / self.cell_km),
        )
        return self.shard_of_cell(cell, point)

    def shards_in_disk(self, center: Point, radius: float) -> list[int]:
        """Sorted shard ids whose cells intersect the given disk.

        Mirrors the ring enumeration of ``GridIndex.query_radius``: every
        base cell whose bounding square touches the disk contributes its
        shard (all subcell shards for split cells).
        """
        if radius < 0.0:
            raise ConfigurationError(f"radius must be >= 0, got {radius}")
        center_cell = (
            math.floor(center.x / self.cell_km),
            math.floor(center.y / self.cell_km),
        )
        reach = math.ceil(radius / self.cell_km)
        shards: set[int] = set()
        for di in range(-reach, reach + 1):
            for dj in range(-reach, reach + 1):
                cell = (center_cell[0] + di, center_cell[1] + dj)
                subcells = self.split.get(cell)
                if subcells is not None:
                    shards.update(subcells.values())
                    continue
                assigned = self.assignment.get(cell)
                if assigned is not None:
                    shards.add(assigned)
                else:
                    shards.add(self._fallback_shard(cell))
        return sorted(shards)

    def cells_of(self, shard_id: int) -> list[Cell]:
        """Sorted base cells with any area owned by ``shard_id``."""
        owned: set[Cell] = set()
        for cell in sorted(self.assignment):
            if self.assignment[cell] == shard_id:
                owned.add(cell)
        for cell in sorted(self.split):
            subcells = self.split[cell]
            for sub in sorted(subcells):
                if subcells[sub] == shard_id:
                    owned.add(cell)
        return sorted(owned)

    def shard_summary(self, shard_id: int) -> dict[str, object]:
        """Compact description of one shard's territory (for stats)."""
        cells = self.cells_of(shard_id)
        if cells:
            cell_range = [
                [min(cell[0] for cell in cells), min(cell[1] for cell in cells)],
                [max(cell[0] for cell in cells), max(cell[1] for cell in cells)],
            ]
        else:
            cell_range = []
        return {
            "shard": shard_id,
            "shards": self.shard_count,
            "cell_km": self.cell_km,
            "cells": len(cells),
            "cell_range": cell_range,
        }

    # ------------------------------------------------------------------
    # Wire codecs (kept field-symmetric; see WIRE001)
    # ------------------------------------------------------------------

    def as_dict(self) -> dict[str, object]:
        """JSON-safe encoding with deterministic key order."""
        return {
            "shard_count": self.shard_count,
            "cell_km": self.cell_km,
            "reach_km": self.reach_km,
            "assignment": {
                _cell_key(cell): self.assignment[cell]
                for cell in sorted(self.assignment)
            },
            "split": {
                _cell_key(cell): {
                    _cell_key(sub): self.split[cell][sub]
                    for sub in sorted(self.split[cell])
                }
                for cell in sorted(self.split)
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ShardPlan":
        """Inverse of :meth:`as_dict`."""
        assignment_raw = payload["assignment"]
        split_raw = payload["split"]
        if not isinstance(assignment_raw, dict) or not isinstance(
            split_raw, dict
        ):
            raise ConfigurationError("malformed shard plan payload")
        return cls(
            shard_count=int(payload["shard_count"]),  # type: ignore[call-overload]
            cell_km=float(payload["cell_km"]),  # type: ignore[arg-type]
            reach_km=float(payload["reach_km"]),  # type: ignore[arg-type]
            assignment={
                _key_cell(key): int(value)
                for key, value in sorted(assignment_raw.items())
            },
            split={
                _key_cell(key): {
                    _key_cell(sub): int(value)
                    for sub, value in sorted(subcells.items())
                }
                for key, subcells in sorted(split_raw.items())
            },
        )


def reach_from_events(events: EventStream) -> float:
    """The largest worker service radius in a scenario's event stream.

    This is the cooperation reach the router must honour: a request
    rejected by its home shard may still be servable by a worker homed
    on any shard whose cells fall within this distance.
    """
    radii = [worker.service_radius for worker in events.workers]
    return max(radii) if radii else 0.0
