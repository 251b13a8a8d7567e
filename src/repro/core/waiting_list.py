"""Per-platform waiting lists.

Each platform maintains a waiting list of its currently unoccupied workers,
ordered by arrival time (paper §II-A, Table II).  The list is backed by a
:class:`~repro.geo.grid_index.GridIndex` so that "which waiting workers can
serve request r" — the time + range + 1-by-1 eligibility query every
algorithm issues per request — costs O(candidates) instead of O(|W|).

A worker assigned to a request is removed immediately (1-by-1 + invariable
constraints); with the reentry extension the simulator re-adds the worker at
a later time with a fresh arrival timestamp.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

from repro.core.entities import Request, Worker
from repro.errors import SimulationError
from repro.geo.grid_index import GridIndex
from repro.geo.roadnet import RoadNetwork

__all__ = ["WaitingList"]

#: Default grid cell edge (km).  Service radii in the paper's experiments are
#: 0.5-2.5 km, so 1 km cells keep radius queries within a few cells.
DEFAULT_CELL_KM = 1.0


class WaitingList:
    """The ordered, spatially indexed pool of available workers."""

    def __init__(
        self,
        cell_size_km: float = DEFAULT_CELL_KM,
        road_network: RoadNetwork | None = None,
    ):
        self._workers: dict[str, Worker] = {}
        self._index = GridIndex(cell_size_km)
        #: Sorted multiset of live service radii.  The radius query below
        #: scans out to the *largest live* radius; tracking the multiset
        #: (rather than a high-water mark) lets the bound shrink when a
        #: large-radius worker leaves, so query cost tracks the live pool
        #: instead of the historical maximum.
        self._radii: list[float] = []
        #: Optional road metric (paper §II): when set, the range constraint
        #: uses shortest-path distance.  The Euclidean grid query remains a
        #: sound prefilter because road distance dominates Euclidean.
        self.road_network = road_network

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._workers

    def __iter__(self) -> Iterator[Worker]:
        """Iterate in arrival order (insertion order == arrival order)."""
        return iter(self._workers.values())

    def add(self, worker: Worker) -> None:
        """A worker arrives and starts waiting."""
        if worker.worker_id in self._workers:
            raise SimulationError(
                f"worker {worker.worker_id} is already in the waiting list"
            )
        self._workers[worker.worker_id] = worker
        self._index.insert(worker.worker_id, worker.location)
        bisect.insort(self._radii, worker.service_radius)

    def remove(self, worker_id: str) -> Worker:
        """A worker leaves (assigned or withdrawn)."""
        worker = self._workers.pop(worker_id, None)
        if worker is None:
            raise SimulationError(f"worker {worker_id} is not in the waiting list")
        self._index.remove(worker_id)
        del self._radii[bisect.bisect_left(self._radii, worker.service_radius)]
        return worker

    @property
    def _max_radius(self) -> float:
        """The largest *live* service radius (0.0 for an empty pool)."""
        return self._radii[-1] if self._radii else 0.0

    def discard(self, worker_id: str) -> Worker | None:
        """Remove if present; returns the worker or None."""
        if worker_id in self._workers:
            return self.remove(worker_id)
        return None

    def get(self, worker_id: str) -> Worker | None:
        """Look up a waiting worker."""
        return self._workers.get(worker_id)

    def eligible_for(self, request: Request) -> list[Worker]:
        """Workers satisfying the time + range constraints for ``request``.

        (The 1-by-1 constraint is implicit: only unassigned workers are in
        the list.)  Results are sorted by (distance, worker_id) so greedy
        nearest-first selection is deterministic.
        """
        return [
            worker for _, _, worker in self.eligible_with_distance(request)
        ]

    def eligible_with_distance(
        self, request: Request
    ) -> list[tuple[float, str, Worker]]:
        """Eligible workers with their match distance, sorted by
        ``(distance, worker_id)``.

        The distance is the one the range constraint used (shortest-path
        when a road network is set, Euclidean otherwise).  Exposing the
        sorted tuples lets :class:`~repro.core.exchange.CooperationExchange`
        k-way-merge per-platform results without re-sorting.
        """
        candidate_ids = self._index.query_radius(request.location, self._max_radius)
        eligible: list[tuple[float, str, Worker]] = []
        for worker_id in candidate_ids:
            worker = self._workers[worker_id]
            if not worker.arrived_before(request):
                continue
            if not worker.can_reach(request):
                continue
            if self.road_network is None:
                distance = worker.location.distance_to(request.location)
            else:
                distance = self.road_network.distance(
                    worker.location, request.location
                )
                if distance > worker.service_radius:
                    continue
            eligible.append((distance, worker_id, worker))
        eligible.sort(key=lambda item: (item[0], item[1]))
        return eligible

    def nearest_eligible(self, request: Request) -> Worker | None:
        """The closest eligible worker, or None."""
        eligible = self.eligible_for(request)
        return eligible[0] if eligible else None

    def workers(self) -> list[Worker]:
        """Snapshot of all waiting workers in arrival order."""
        return list(self._workers.values())

    def clear(self) -> None:
        """Empty the list."""
        self._workers.clear()
        self._index.clear()
        self._radii.clear()
