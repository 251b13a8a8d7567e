"""The cross-platform cooperation exchange.

Cooperative platforms "only share the information of their unoccupied
workers" (Definition 2.3): each platform can see, for an incoming request,
which *outer* workers (workers of other platforms, flagged shareable) could
serve it — but nothing else about competitors.  The exchange is the neutral
component holding that shared view.

Concretely the exchange maintains one :class:`WaitingList` per platform and
answers two queries:

* ``inner_list(platform)`` — the platform's own pool;
* ``outer_candidates(platform, request)`` — eligible shareable workers of
  *every other* platform.

Claiming a worker (inner or outer) removes them atomically from their home
list, which enforces the paper's rule that "an outer crowd worker being
assigned to any request would be deleted from all its waiting lists over all
platforms".
"""

from __future__ import annotations

from repro.core.entities import Request, Worker
from repro.core.waiting_list import WaitingList
from repro.errors import SimulationError
from repro.geo.roadnet import RoadNetwork

__all__ = ["CooperationExchange"]


class CooperationExchange:
    """Shared worker-availability state across cooperating platforms."""

    def __init__(
        self,
        platform_ids: list[str],
        cell_size_km: float = 1.0,
        road_network: RoadNetwork | None = None,
    ):
        if len(set(platform_ids)) != len(platform_ids):
            raise SimulationError("platform ids must be unique")
        self._lists: dict[str, WaitingList] = {
            platform_id: WaitingList(cell_size_km, road_network=road_network)
            for platform_id in platform_ids
        }
        self._home: dict[str, str] = {}  # worker_id -> platform_id

    @property
    def platform_ids(self) -> list[str]:
        """The cooperating platforms."""
        return list(self._lists.keys())

    def inner_list(self, platform_id: str) -> WaitingList:
        """The platform's own waiting list."""
        return self._lists[platform_id]

    def worker_arrives(self, worker: Worker) -> None:
        """Register a worker arrival on their home platform."""
        if worker.platform_id not in self._lists:
            raise SimulationError(
                "worker belongs to unknown platform",
                worker_id=worker.worker_id,
                platform_id=worker.platform_id,
            )
        self._lists[worker.platform_id].add(worker)
        self._home[worker.worker_id] = worker.platform_id

    def inner_candidates(self, platform_id: str, request: Request) -> list[Worker]:
        """Eligible inner workers for a request, nearest first."""
        return self._lists[platform_id].eligible_for(request)

    def outer_candidates(
        self,
        platform_id: str,
        request: Request,
        peers: list[str] | None = None,
    ) -> list[Worker]:
        """Eligible shareable outer workers, nearest first across platforms.

        ``peers`` restricts the query to a subset of the other platforms
        (the resilience layer passes the currently *reachable* peers);
        the default consults every other platform.

        Each per-platform :meth:`~repro.core.waiting_list.WaitingList.
        eligible_with_distance` result is already sorted by
        ``(distance, worker_id)``; the lists are concatenated and sorted
        once, which timsort does as a merge of those sorted runs.  Worker
        ids are globally unique, so the ``(distance, worker_id)`` prefix
        is a total order and the Worker element is never compared.  The
        order keys on the same distance the range constraint used
        (shortest-path when a road network is set, Euclidean otherwise),
        which also keeps outer ordering consistent with inner ordering.
        """
        consulted = self._lists.keys() if peers is None else peers
        entries: list[tuple[float, str, Worker]] = []
        for other_id in consulted:
            if other_id != platform_id:
                entries += self._lists[other_id].eligible_with_distance(request)
        entries.sort()
        return [worker for _, _, worker in entries if worker.shareable]

    def claim(self, worker_id: str, claimant: str | None = None) -> Worker:
        """Atomically remove a worker from the exchange (assignment).

        ``claimant`` (the assigning platform) is accepted for interface
        compatibility with :class:`repro.faults.ResilientExchange`, where
        it drives failure attribution; the plain exchange never fails.
        """
        home = self._home.pop(worker_id, None)
        if home is None:
            raise SimulationError(
                "worker is not available to claim",
                worker_id=worker_id,
                platform_id=claimant,
            )
        return self._lists[home].remove(worker_id)

    def evict(self, worker_id: str) -> Worker:
        """Administrative removal (e.g. a shift ending).

        Same effect as :meth:`claim`; a separate entry point so the
        resilience layer can keep administrative removals fault-free.
        """
        return self.claim(worker_id)

    def home_of(self, worker_id: str) -> str | None:
        """The worker's home platform id, or None once claimed/evicted."""
        return self._home.get(worker_id)

    def is_available(self, worker_id: str) -> bool:
        """True iff the worker is still waiting somewhere."""
        return worker_id in self._home

    def available_count(self, platform_id: str | None = None) -> int:
        """Waiting workers on one platform, or across all platforms."""
        if platform_id is not None:
            return len(self._lists[platform_id])
        return sum(len(waiting_list) for waiting_list in self._lists.values())
