"""OFF — the offline optimum of COM (paper §II-B, Fig. 4).

The offline version knows everything in advance: the spatio-temporal data
and arrival order of all requests and workers *and* each outer worker's
realized reservation price for each request (the behaviour oracle's draws —
the same draws the online algorithms trigger with live offers, so OFF is a
true upper bound on the identical randomness).

Construction: a weighted bipartite graph with requests on the left, workers
on the right.  Worker ``w`` gets an edge to request ``r`` iff the
Definition-2.6 constraints allow the pair (``w`` arrived first, ``r`` inside
``w``'s service disk):

* inner pair (same platform): weight ``v_r``;
* outer pair (different platform, ``w`` shareable): the oracle's realized
  reservation ``rho(w, r)`` is the cheapest accepted payment, so the weight
  is ``v_r - rho`` — included only when positive.

The maximum-weight matching (successive shortest paths on the sparse
graph, :class:`~repro.graph.mincostflow.CapacitatedAssignment` with every
worker at capacity 1) is ``MaxSum(OPT)`` of Definitions 2.7/2.8.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.entities import Request, Worker
from repro.core.matching import AssignmentKind, MatchRecord, MatchingLedger
from repro.core.simulator import Scenario
from repro.geo.grid_index import GridIndex
from repro.graph.mincostflow import CapacitatedAssignment
from repro.utils.timer import Stopwatch

__all__ = [
    "OfflineSolution",
    "eligible_pairs",
    "solve_offline",
    "solve_offline_reentry",
]

_MIN_PAYMENT = 1e-9


@dataclass
class OfflineSolution:
    """The offline optimum and its per-platform decomposition."""

    algorithm_name: str
    scenario_name: str
    total_weight: float
    ledgers: dict[str, MatchingLedger]
    solve_seconds: float
    request_count: int
    edge_count: int = 0
    records: list[MatchRecord] = field(default_factory=list)

    @property
    def total_revenue(self) -> float:
        """Sum of per-platform Definition-2.5 revenue (== total_weight)."""
        return sum(ledger.revenue for ledger in self.ledgers.values())

    @property
    def total_completed(self) -> int:
        """Matched requests across platforms."""
        return sum(ledger.completed_requests for ledger in self.ledgers.values())

    @property
    def mean_response_time_ms(self) -> float:
        """Solve time amortized per request (the paper reports OFF this way)."""
        if self.request_count == 0:
            return 0.0
        return self.solve_seconds / self.request_count * 1e3


def eligible_pairs(
    requests: list[Request], workers: list[Worker]
) -> list[tuple[Request, Worker]]:
    """All (request, worker) pairs satisfying time + range constraints.

    Pairs come in request order, then in the grid's query order; the
    solvers break ties by that order, so it is part of the output.
    """
    if not requests or not workers:
        return []
    max_radius = max(worker.service_radius for worker in workers)
    index = GridIndex(cell_size=max(0.25, max_radius))
    by_id = {}
    for worker in workers:
        index.insert(worker.worker_id, worker.location)
        by_id[worker.worker_id] = worker
    pairs: list[tuple[Request, Worker]] = []
    for request in requests:
        for worker_id in index.query_radius(request.location, max_radius):
            worker = by_id[worker_id]
            if worker.arrived_before(request) and worker.can_reach(request):
                pairs.append((request, worker))
    return pairs


def solve_offline(
    scenario: Scenario, include_cooperation: bool = True
) -> OfflineSolution:
    """Compute OFF for a scenario.

    ``include_cooperation=False`` restricts edges to inner pairs — the
    offline optimum of TOTA, used by the competitive-ratio experiments.
    """
    return _solve(
        scenario,
        "OFF" if include_cooperation else "OFF-TOTA",
        include_cooperation,
        capacity=None,
    )


def solve_offline_reentry(
    scenario: Scenario,
    service_duration: float,
    max_services: int = 128,
) -> OfflineSolution:
    """OFF for scenarios run with worker *reentry* (the table experiments).

    With reentry a worker serves a sequence of requests, returning to their
    home location ``service_duration`` after each assignment.  We relax the
    scheduling coupling to a pure capacity: worker ``w`` can serve at most
    ``1 + floor((horizon - arrival_w) / service_duration)`` requests (the
    most any feasible schedule could fit), each satisfying the time + range
    constraints.  The resulting capacitated maximum-weight assignment
    (:class:`~repro.graph.mincostflow.CapacitatedAssignment`) upper-bounds
    every online algorithm run under the same reentry dynamics and
    reservation draws (reentry clones share the base worker's draw per
    request), at a small looseness cost: the relaxation ignores *when*
    within the horizon each service slot opens.

    When the simulator runs a variable :class:`~repro.core.service_time.
    ServiceTimeModel`, pass that model's *minimum* occupation here — a
    lower bound on per-service time yields an upper bound on capacity,
    preserving the dominance property.
    """
    if service_duration <= 0:
        raise ValueError(f"service_duration must be positive, got {service_duration}")
    if max_services < 1:
        raise ValueError(f"max_services must be >= 1, got {max_services}")
    horizon = max(
        (request.arrival_time for request in scenario.events.requests), default=0.0
    )

    def capacity(worker: Worker) -> int:
        remaining = max(0.0, horizon - worker.arrival_time)
        return 1 + min(max_services - 1, int(remaining // service_duration))

    return _solve(scenario, "OFF", include_cooperation=True, capacity=capacity)


def _solve(
    scenario: Scenario,
    algorithm_name: str,
    include_cooperation: bool,
    capacity: Callable[[Worker], int] | None,
) -> OfflineSolution:
    """Build the eligible-pair assignment, solve it and book the records.

    Requests reach the solver in request order, at their first edge.
    Without ``capacity`` each worker is registered at its first edge and
    serves at most once; ``capacity`` pre-registers every worker, in
    arrival order, with its service budget.  That order breaks ties
    between optimal assignments, so it is part of the output.
    """
    requests = scenario.events.requests
    workers = scenario.events.workers
    oracle = scenario.oracle

    solve_watch = Stopwatch().start()
    solver = CapacitatedAssignment()
    request_by_id = {request.request_id: request for request in requests}
    worker_by_id = {worker.worker_id: worker for worker in workers}
    if capacity is not None:
        for worker in workers:
            solver.set_capacity(worker.worker_id, capacity(worker))

    payments: dict[tuple[str, str], float] = {}
    edge_count = 0
    for request, worker in eligible_pairs(requests, workers):
        if worker.platform_id == request.platform_id:
            solver.add_edge(request.request_id, worker.worker_id, request.value)
            edge_count += 1
        elif include_cooperation and worker.shareable:
            reservation = oracle.reservation_price(
                worker.worker_id, request.request_id, request.value
            )
            gain = request.value - reservation
            if gain > 0.0:
                solver.add_edge(request.request_id, worker.worker_id, gain)
                payments[(request.request_id, worker.worker_id)] = max(
                    reservation, _MIN_PAYMENT
                )
                edge_count += 1

    pairs, total_weight = solver.solve()
    solve_seconds = solve_watch.stop()

    ledgers = {
        platform_id: MatchingLedger(platform_id)
        for platform_id in scenario.platform_ids
    }
    records: list[MatchRecord] = []
    engagements: dict[str, int] = {}
    for request_id, worker_id in pairs.items():
        request = request_by_id[request_id]
        worker = worker_by_id[worker_id]
        # A worker may serve several requests; give each engagement beyond
        # the first a reentry-clone identity, mirroring the simulator's
        # bookkeeping so the ledger's 1-by-1 check stays meaningful.
        generation = engagements.get(worker_id, 0)
        engagements[worker_id] = generation + 1
        engaged = worker
        if generation > 0:
            engaged = Worker(
                worker_id=f"{worker_id}@reentry{generation}",
                platform_id=worker.platform_id,
                arrival_time=worker.arrival_time,
                location=worker.location,
                service_radius=worker.service_radius,
                shareable=worker.shareable,
            )
        inner = worker.platform_id == request.platform_id
        payment = 0.0 if inner else payments[(request_id, worker_id)]
        record = MatchRecord(
            request=request,
            worker=engaged,
            kind=AssignmentKind.INNER if inner else AssignmentKind.OUTER,
            payment=payment,
            decision_time=request.arrival_time,
            pickup_distance=worker.location.distance_to(request.location),
        )
        if not inner:
            ledgers[worker.platform_id].record_lender_income(
                request.platform_id, payment
            )
        ledgers[request.platform_id].record(record)
        records.append(record)
    for request in requests:
        if request.request_id not in pairs:
            ledgers[request.platform_id].record_rejection(request)

    return OfflineSolution(
        algorithm_name=algorithm_name,
        scenario_name=scenario.name,
        total_weight=total_weight,
        ledgers=ledgers,
        solve_seconds=solve_seconds,
        request_count=len(requests),
        edge_count=edge_count,
        records=records,
    )
