"""GeoCrowd-style offline maximum task assignment (Kazemi & Shahabi [8]).

The paper's related work builds on GeoCrowd, which reduces *offline*
spatial task assignment to maximum flow: tasks and workers become nodes,
a worker-task edge exists when the spatio-temporal constraints allow the
pair, and each worker carries a capacity ``maxT`` (how many tasks they will
do).  The max flow equals the maximum number of assignable tasks.

We implement that reduction over our entities with Dinic's algorithm.  It
optimizes *cardinality*, not revenue — the contrast with the revenue-
optimal OFF is itself instructive (tested): GeoCrowd may complete more
requests for less money.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.offline import eligible_pairs
from repro.core.simulator import Scenario
from repro.errors import ConfigurationError
from repro.graph.maxflow import Dinic

__all__ = ["GeoCrowdSolution", "solve_geocrowd"]

_SOURCE = ("__geocrowd__", "source")
_SINK = ("__geocrowd__", "sink")


@dataclass
class GeoCrowdSolution:
    """The max-flow assignment."""

    assigned_tasks: int
    #: request_id -> worker_id for every routed unit of flow.
    assignments: dict[str, str]
    total_value: float
    edge_count: int

    @property
    def completed_per_worker(self) -> dict[str, int]:
        """How many tasks each worker received."""
        loads: dict[str, int] = {}
        for worker_id in self.assignments.values():
            loads[worker_id] = loads.get(worker_id, 0) + 1
        return loads


def solve_geocrowd(
    scenario: Scenario,
    max_tasks_per_worker: int = 1,
    include_cooperation: bool = True,
) -> GeoCrowdSolution:
    """Maximum task assignment via the GeoCrowd max-flow reduction.

    ``max_tasks_per_worker`` is GeoCrowd's ``maxT``: the per-worker task
    budget (capacity of the worker -> sink edge).
    """
    if max_tasks_per_worker < 1:
        raise ConfigurationError("max_tasks_per_worker must be >= 1")
    requests = scenario.events.requests
    workers = scenario.events.workers

    network = Dinic()
    # OFF's pairs, narrowed to workers on shift and, unless cooperating,
    # to same-platform pairs.
    pairs = [
        (request, worker)
        for request, worker in eligible_pairs(requests, workers)
        if worker.on_shift_at(request.arrival_time)
        and (
            worker.platform_id == request.platform_id
            or (include_cooperation and worker.shareable)
        )
    ]
    # Ordered (not sets): Dinic's augmenting paths follow edge insertion
    # order, so a hash-ordered set would make the assignment vary with
    # PYTHONHASHSEED.
    requests_with_edges = dict.fromkeys(request.request_id for request, __ in pairs)
    workers_with_edges = dict.fromkeys(worker.worker_id for __, worker in pairs)
    for request_id in requests_with_edges:
        network.add_edge(_SOURCE, ("r", request_id), 1.0)
    for worker_id in workers_with_edges:
        network.add_edge(("w", worker_id), _SINK, float(max_tasks_per_worker))
    for request, worker in pairs:
        network.add_edge(("r", request.request_id), ("w", worker.worker_id), 1.0)

    if not pairs:
        return GeoCrowdSolution(0, {}, 0.0, 0)

    flow = network.max_flow(_SOURCE, _SINK)

    value_by_request = {request.request_id: request.value for request in requests}
    assignments: dict[str, str] = {}
    total_value = 0.0
    for request, worker in pairs:
        if request.request_id in assignments:
            continue
        routed = network.flow_on(("r", request.request_id), ("w", worker.worker_id))
        if routed > 0.5:
            assignments[request.request_id] = worker.worker_id
            total_value += value_by_request[request.request_id]

    return GeoCrowdSolution(
        assigned_tasks=int(round(flow)),
        assignments=assignments,
        total_value=total_value,
        edge_count=len(pairs),
    )
