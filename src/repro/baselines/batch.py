"""Batch-based online matching — the [10]-family extension baseline.

Tong et al.'s "flexible online task assignment" line of work observes that
real platforms do not decide strictly per arrival: they accumulate requests
for a short window ``delta`` and solve a small optimal matching per batch,
trading a little user-visible latency for globally better pairings.

:class:`BatchMatching` brings that idea to the COM setting through the
simulator's defer/flush protocol:

1. an arriving request is *deferred* (parked in the current batch);
2. once the stream moves past the batch deadline (first parked arrival +
   ``delta``), the whole batch is matched against the currently waiting
   inner workers by maximum-weight matching (request values as weights);
3. batch leftovers go down RamCOM's cooperative path (MER-priced offers to
   outer workers) or are rejected.

This deviates from Definition 2.6's immediate-response model by design —
it quantifies what deciding immediately costs, an ablation the paper's
related work motivates but does not run.  With ``delta = 0`` every batch
is a singleton and the algorithm reduces to value-greedy TOTA plus the
cooperative fallback.
"""

from __future__ import annotations

from repro.core.base import Decision, OnlineAlgorithm, PlatformContext
from repro.core.entities import Request, Worker
from repro.errors import ConfigurationError
from repro.graph.mincostflow import CapacitatedAssignment

__all__ = ["BatchMatching"]


class BatchMatching(OnlineAlgorithm):
    """Micro-batched maximum-weight matching with a cooperative fallback.

    Parameters
    ----------
    delta_seconds:
        Batch window: a batch closes when the stream reaches (first parked
        request's arrival + delta).
    cooperate:
        Offer batch leftovers to outer workers at MER prices (RamCOM's
        cooperative path).  Off = a pure single-platform batch baseline.
    """

    name = "Batch"

    def __init__(self, delta_seconds: float = 120.0, cooperate: bool = True):
        if delta_seconds < 0:
            raise ConfigurationError("delta_seconds must be >= 0")
        self.delta_seconds = delta_seconds
        self.cooperate = cooperate
        self._backlog: list[Request] = []
        self._deadline: float | None = None

    def reset(self, context: PlatformContext) -> None:
        self._backlog.clear()
        self._deadline = None

    def decide(self, request: Request, context: PlatformContext) -> Decision:
        if self._deadline is None:
            self._deadline = request.arrival_time + self.delta_seconds
        self._backlog.append(request)
        return Decision.defer()

    def flush(
        self, time: float, context: PlatformContext
    ) -> list[tuple[Request, Decision]]:
        if not self._backlog or (self._deadline is not None and time < self._deadline):
            return []
        batch = self._backlog
        self._backlog = []
        self._deadline = None

        # Stage 1: optimal inner matching of the whole batch.
        solver = CapacitatedAssignment()
        candidates: dict[tuple[str, str], Worker] = {}
        for request in batch:
            for worker in context.inner_candidates(request):
                solver.add_edge(request.request_id, worker.worker_id, request.value)
                candidates[(request.request_id, worker.worker_id)] = worker
        pairs, __ = solver.solve()

        decisions: list[tuple[Request, Decision]] = []
        claimed_outer: set[str] = set()
        for request in batch:
            worker_id = pairs.get(request.request_id)
            if worker_id is not None:
                worker = candidates[(request.request_id, worker_id)]
                decisions.append((request, Decision.serve_inner(worker)))
                continue
            decision = self._cooperative_or_reject(request, context, claimed_outer)
            if decision.worker is not None:
                claimed_outer.add(decision.worker.worker_id)
            decisions.append((request, decision))
        return decisions

    def _cooperative_or_reject(
        self,
        request: Request,
        context: PlatformContext,
        claimed_outer: set[str],
    ) -> Decision:
        if not self.cooperate:
            return Decision.reject()
        outer = [
            worker
            for worker in context.outer_candidates(request)
            if worker.worker_id not in claimed_outer
        ]
        if not outer:
            return Decision.reject()
        quote = context.pricer.quote(
            request.value, [worker.worker_id for worker in outer]
        )
        if quote.payment > request.value or quote.payment <= 0.0:
            return Decision.reject()
        offers = 0
        for worker in outer:
            offers += 1
            if context.oracle.offer(
                worker.worker_id, request.request_id, quote.payment, request.value
            ):
                return Decision.serve_outer(worker, quote.payment, offers)
        return Decision.reject(cooperative_attempt=True, offers_made=offers)
