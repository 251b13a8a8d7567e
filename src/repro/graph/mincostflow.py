"""Maximum-weight assignment of requests to capacitated workers.

This is the one max-weight solver of the repository.  With every capacity
at its default of 1 it is a maximum-weight bipartite matching: OFF (paper
§II-B / Fig. 4) and each batch of the Batch baseline.  The reentry variant
of OFF needs a *b-matching*: each request has unit capacity but a worker
may serve up to ``c_w`` requests (one per service slot in the horizon).
Expanding workers into copies explodes the graph (tables run with ~70
slots/worker); solving the equivalent min-cost flow keeps one node per
worker.

Network: S -> request (cap 1, cost 0) -> worker (cap 1, cost -w) ->
T (cap c_w, cost 0).  We send augmenting flow along successive shortest
paths (Dijkstra with Johnson potentials, the incremental Jonker-Volgenant
scheme).  Each request also owns a private zero-weight *dummy* sink, which
makes every request routable and turns "leave this request unserved" into
an ordinary assignment; maximizing weight becomes minimizing ``W - w``
with ``W`` the maximum edge weight, so reduced costs stay non-negative and
Dijkstra applies.  A worker with spare capacity counts as a free column.
Complexity ``O(J * (E + V) log V)`` for ``J`` requests.

Ties between optimal assignments break by registration order: requests
and workers get dense ids when first seen (by ``set_capacity`` or
``add_edge``), so callers that need reproducible pairs must add them in a
reproducible order.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Hashable

from repro.errors import GraphError

__all__ = ["CapacitatedAssignment"]


class CapacitatedAssignment:
    """Maximum-weight assignment of unit jobs to capacitated machines.

    Jobs may remain unassigned; only positive-weight assignments are made.

    >>> solver = CapacitatedAssignment()
    >>> solver.set_capacity("w", 2)
    >>> solver.add_edge("r1", "w", 5.0)
    >>> solver.add_edge("r2", "w", 3.0)
    >>> pairs, weight = solver.solve()
    >>> weight
    8.0
    """

    def __init__(self) -> None:
        self._job_ids: dict[Hashable, int] = {}
        self._jobs: list[Hashable] = []
        self._machine_ids: dict[Hashable, int] = {}
        self._machines: list[Hashable] = []
        self._capacity: list[int] = []
        self._adjacency: list[dict[int, float]] = []  # job -> {machine: weight}

    def set_capacity(self, machine: Hashable, capacity: int) -> None:
        """Declare a machine and its capacity (replaces a prior value)."""
        if capacity < 0:
            raise GraphError(f"capacity must be non-negative, got {capacity}")
        index = self._machine_index(machine)
        self._capacity[index] = capacity

    def _machine_index(self, machine: Hashable) -> int:
        if machine not in self._machine_ids:
            self._machine_ids[machine] = len(self._machines)
            self._machines.append(machine)
            self._capacity.append(1)
        return self._machine_ids[machine]

    def _job_index(self, job: Hashable) -> int:
        if job not in self._job_ids:
            self._job_ids[job] = len(self._jobs)
            self._jobs.append(job)
            self._adjacency.append({})
        return self._job_ids[job]

    def add_edge(self, job: Hashable, machine: Hashable, weight: float) -> None:
        """Job may run on machine for ``weight`` gain (must be finite)."""
        if weight != weight or weight in (math.inf, -math.inf):
            raise GraphError(f"weight must be finite, got {weight}")
        job_index = self._job_index(job)
        machine_index = self._machine_index(machine)
        self._adjacency[job_index][machine_index] = float(weight)

    def solve(self) -> tuple[dict[Hashable, Hashable], float]:
        """Return ``({job: machine}, total_weight)`` maximizing total weight."""
        job_count = len(self._jobs)
        machine_count = len(self._machines)
        if job_count == 0 or machine_count == 0:
            return {}, 0.0

        max_weight = max(
            (w for adjacency in self._adjacency for w in adjacency.values()),
            default=0.0,
        )
        if max_weight <= 0.0:
            return {}, 0.0

        # Costs: job -> machine edge costs (max_weight - w) >= 0; each job
        # also owns a zero-weight dummy sink (index machine_count + job,
        # cost max_weight), so every job is routable and "unassigned" is an
        # ordinary outcome.
        match_job: list[int] = [-1] * job_count
        load: list[int] = [0] * machine_count
        potential_job = [0.0] * job_count
        potential_machine = [0.0] * (machine_count + job_count)
        assigned: list[list[int]] = [[] for _ in range(machine_count)]

        adjacency = self._adjacency
        capacity = self._capacity

        def edge_cost(job: int, machine: int) -> float:
            if machine >= machine_count:
                return max_weight
            return max_weight - adjacency[job][machine]

        def machines_of(job: int):
            yield from adjacency[job].keys()
            yield machine_count + job

        for source_job in range(job_count):
            dist_final: dict[int, float] = {}
            # machine -> (previous machine or -1, job used on the previous
            # machine or the source job)
            parent: dict[int, tuple[int, int]] = {}
            heap: list[tuple[float, int, int, int]] = []
            # machine -> smallest (distance, via machine, via job) pushed; only
            # a smaller key is pushed, so each first pop is as if all were.
            best: dict[int, tuple[float, int, int]] = {}
            for machine in machines_of(source_job):
                reduced = (
                    edge_cost(source_job, machine)
                    - potential_job[source_job]
                    - potential_machine[machine]
                )
                best[machine] = (reduced, -1, source_job)
                heapq.heappush(heap, (reduced, machine, -1, source_job))
            free_machine = -1
            free_distance = math.inf
            while heap:
                distance, machine, via_machine, via_job = heapq.heappop(heap)
                if machine in dist_final:
                    continue
                dist_final[machine] = distance
                parent[machine] = (via_machine, via_job)
                is_dummy = machine >= machine_count
                if is_dummy or load[machine] < capacity[machine]:
                    free_machine = machine
                    free_distance = distance
                    break
                for job in assigned[machine]:
                    for next_machine in machines_of(job):
                        if next_machine in dist_final:
                            continue
                        reduced = (
                            edge_cost(job, next_machine)
                            - potential_job[job]
                            - potential_machine[next_machine]
                        )
                        key = (distance + reduced, machine, job)
                        known = best.get(next_machine)
                        if known is not None and known <= key:
                            continue
                        best[next_machine] = key
                        heapq.heappush(heap, (key[0], next_machine, machine, job))
            if free_machine == -1:  # pragma: no cover - dummy guarantees a path
                raise GraphError("no augmenting path; dummy sink missing?")

            # Johnson potential update: matched edges stay tight, reduced
            # costs stay non-negative.
            potential_job[source_job] += free_distance
            for machine, distance in dist_final.items():
                if machine == free_machine:
                    continue
                slack = free_distance - distance
                potential_machine[machine] -= slack
                if machine < machine_count:
                    for job in assigned[machine]:
                        potential_job[job] += slack

            # Augment along the recorded path: each hop moves `via_job` from
            # `via_machine` (or from being unassigned, for the source) onto
            # `machine`.
            machine = free_machine
            while True:
                via_machine, via_job = parent[machine]
                if via_machine != -1:
                    self._unassign(via_job, via_machine, match_job, load, assigned)
                self._assign(
                    via_job, machine, match_job, load, assigned, machine_count
                )
                if via_machine == -1:
                    break
                machine = via_machine

        pairs: dict[Hashable, Hashable] = {}
        total = 0.0
        for job, machine in enumerate(match_job):
            if machine < 0 or machine >= machine_count:
                continue
            weight = adjacency[job][machine]
            if weight <= 0.0:
                continue
            pairs[self._jobs[job]] = self._machines[machine]
            total += weight
        return pairs, total

    @staticmethod
    def _assign(
        job: int,
        machine: int,
        match_job: list[int],
        load: list[int],
        assigned: list[list[int]],
        machine_count: int,
    ) -> None:
        match_job[job] = machine
        if machine < machine_count:
            load[machine] += 1
            assigned[machine].append(job)

    @staticmethod
    def _unassign(
        job: int,
        machine: int,
        match_job: list[int],
        load: list[int],
        assigned: list[list[int]],
    ) -> None:
        match_job[job] = -1
        load[machine] -= 1
        assigned[machine].remove(job)
