"""Spatial routing across a cluster of shard gateways.

The :class:`ClusterRouter` is the cluster's single point of entry: it
routes each arrival to the shard gateway owning the arrival's grid cell
(per the :class:`~repro.cluster.plan.ShardPlan`), forwards rejected
requests to neighbouring shards whose territory intersects the request's
cooperation reach (the cross-shard analogue of the paper's outer-worker
offer), and degrades to the surviving shards when a gateway fail-stops.

Shards hide behind a small handle protocol with two implementations:

:class:`LocalShard`
    Wraps an in-process :class:`MatchingGateway`.  All shard gateways
    share one :class:`VirtualClock` instance, so the router advances a
    single cluster-wide virtual instant exactly like
    :class:`MatchingServer` does per arrival.

:class:`RemoteShard`
    Wraps a :class:`GatewayClient` speaking JSONL/TCP to a shard's
    :class:`MatchingServer` — reconnect/retry machinery included, so a
    shard process restart is survived transparently.

Cluster-wide invariants (paper Def. 2.5/2.6) follow from two routing
rules, and :meth:`ClusterRouter.drain` re-checks them from the recorded
outcomes when ``sanitize`` is on:

* every worker is homed on exactly one shard (claims are shard-local and
  serialized by that shard's decision loop), and
* a request is forwarded only after a final ``reject`` from its home
  shard, stopping at the first non-reject answer — so at most one shard
  ever serves it (the *invariable* constraint survives forwarding).

Router bookkeeping is single-driver state: exactly one task (a replay
driver, the cluster server's connection handler, or a bench pilot) may
call the submit methods at a time.  The ``# comlint: loop-owned``
markers hand those structures to the ASY004 ownership analysis with the
submit methods as the annotated entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from repro.cluster.plan import ShardPlan
from repro.core.entities import Request, Worker
from repro.errors import (
    ConfigurationError,
    InducedCrash,
    SanitizerViolation,
    ServiceError,
)
from repro.service.client import GatewayClient
from repro.service.gateway import (
    STATUS_DEFERRED,
    STATUS_SHED,
    MatchingGateway,
    ServiceOutcome,
)

__all__ = [
    "ShardHandle",
    "LocalShard",
    "RemoteShard",
    "ClusterResult",
    "ClusterRouter",
    "merge_rows",
    "SERVE_STATUSES",
]

#: Decision statuses that consume the request (Def. 2.6: at most one).
SERVE_STATUSES = frozenset(("serve_inner", "serve_outer"))


class ShardHandle(Protocol):
    """What the router needs from one shard, local or remote."""

    shard_id: int

    @property
    def crashed(self) -> bool:
        """True once the shard has fail-stopped."""
        ...

    async def start(self) -> None: ...

    async def stop(self) -> None: ...

    async def submit_worker(self, worker: Worker) -> None: ...

    async def submit_request(self, request: Request) -> ServiceOutcome: ...

    async def replay_shed(self, request: Request) -> ServiceOutcome: ...

    async def outcome_of(self, request_id: str) -> ServiceOutcome | None: ...

    async def drain(self) -> dict: ...

    async def stats(self) -> dict: ...


class LocalShard:
    """An in-process shard: the router owns the gateway's lifecycle."""

    def __init__(self, shard_id: int, gateway: MatchingGateway):
        self.shard_id = shard_id
        self.gateway = gateway

    @property
    def crashed(self) -> bool:
        return self.gateway.crash_error is not None

    async def start(self) -> None:
        await self.gateway.start()

    async def stop(self) -> None:
        await self.gateway.stop()

    async def submit_worker(self, worker: Worker) -> None:
        self._advance(worker.arrival_time)
        await self.gateway.submit_worker(worker)

    async def submit_request(self, request: Request) -> ServiceOutcome:
        self._advance(request.arrival_time)
        return await self.gateway.submit_request(request)

    async def replay_shed(self, request: Request) -> ServiceOutcome:
        self._advance(request.arrival_time)
        return await self.gateway.replay_shed(request)

    async def outcome_of(self, request_id: str) -> ServiceOutcome | None:
        return self.gateway.outcome_of(request_id)

    async def drain(self) -> dict:
        await self.gateway.drain()
        return self.gateway.metrics_dict()

    async def stats(self) -> dict:
        return self.gateway.stats()

    def _advance(self, when: float) -> None:
        # Mirrors MatchingServer._dispatch: under the virtual clock every
        # arrival moves the (shared) cluster instant forward.
        clock = self.gateway.clock
        if clock.virtual:
            clock.advance_to(when)  # type: ignore[attr-defined]


class RemoteShard:
    """A shard behind JSONL/TCP, driven through :class:`GatewayClient`.

    The client's reconnect policy covers transient connection loss; a
    :class:`ServiceError` surviving it (or a refused reconnect) marks
    the shard crashed and the router fails over.
    """

    def __init__(self, shard_id: int, client: GatewayClient):
        self.shard_id = shard_id
        self.client = client
        self._crashed = False

    @property
    def crashed(self) -> bool:
        return self._crashed

    def mark_crashed(self) -> None:
        """Record a fail-stop observed by the router."""
        self._crashed = True

    async def start(self) -> None:
        await self.client.connect()

    async def stop(self) -> None:
        await self.client.close()

    async def submit_worker(self, worker: Worker) -> None:
        await self.client.submit_worker(worker)

    async def submit_request(self, request: Request) -> ServiceOutcome:
        return await self.client.submit_request(request)

    async def replay_shed(self, request: Request) -> ServiceOutcome:
        return await self.client.replay_shed(request)

    async def outcome_of(self, request_id: str) -> ServiceOutcome | None:
        return await self.client.outcome_of(request_id)

    async def drain(self) -> dict:
        return await self.client.drain()

    async def stats(self) -> dict:
        return await self.client.stats()


#: Exceptions that mean "this shard is gone", triggering failover.
_SHARD_DOWN = (InducedCrash, ServiceError, ConnectionError, OSError)


@dataclass
class ClusterResult:
    """What :meth:`ClusterRouter.drain` returns.

    ``row`` is the cluster-level metric row: for a 1-shard cluster it is
    the shard's row verbatim (the degenerate case is byte-identical to a
    single gateway); for N > 1 it is the :func:`merge_rows` aggregate.
    """

    row: dict
    shard_rows: list[dict | None]
    forwards: int = 0
    cross_shard_serves: int = 0
    failovers: int = 0
    crashed_shards: list[int] = field(default_factory=list)
    lost_workers: int = 0


def merge_rows(
    rows: list[dict],
    statuses: dict[str, str],
) -> dict:
    """Aggregate shard metric rows into one cluster row.

    Per-platform money and completion counts sum across shards (each
    serve lives on exactly one shard, so sums never double-count).
    ``acceptance_ratio`` is recomputed from the cluster-final request
    statuses — per-shard ratios are meaningless once a request can be
    rejected at home and served next door.  ``payment_rate`` and
    ``response_time_ms`` are completion-weighted means; telemetry does
    not aggregate across processes and is dropped.
    """
    if not rows:
        raise ConfigurationError("merge_rows needs at least one shard row")
    platforms: set[str] = set()
    for row in rows:
        platforms.update(row["revenue"])

    def _sum_by_platform(key: str) -> dict:
        return {
            platform: sum(row[key].get(platform, 0) for row in rows)
            for platform in sorted(platforms)
        }

    completed = _sum_by_platform("completed")
    completed_total = sum(completed.values())

    def _completion_weighted(key: str) -> float | None:
        weighted = 0.0
        weight = 0
        for row in rows:
            value = row.get(key)
            if value is None:
                continue
            row_completed = sum(row["completed"].values())
            weighted += value * row_completed
            weight += row_completed
        if weight == 0:
            values = [row[key] for row in rows if row.get(key) is not None]
            if not values:
                return None
            return sum(values) / len(values)
        return weighted / weight

    served = sum(
        1 for status in statuses.values() if status in SERVE_STATUSES
    )
    decided = len(statuses)
    return {
        "algorithm": rows[0]["algorithm"],
        "scenario": rows[0]["scenario"],
        "revenue": _sum_by_platform("revenue"),
        "platform_revenue": _sum_by_platform("platform_revenue"),
        "lender_income": _sum_by_platform("lender_income"),
        "completed": completed,
        "response_time_ms": _completion_weighted("response_time_ms") or 0.0,
        "memory_mb": sum(row["memory_mb"] for row in rows),
        "cooperative": sum(row["cooperative"] for row in rows),
        "acceptance_ratio": served / decided if decided else 0.0,
        "payment_rate": _completion_weighted("payment_rate"),
        "runs": 1,
        "retries": sum(row["retries"] for row in rows),
        "failed_claims": sum(row["failed_claims"] for row in rows),
        "degraded_decisions": sum(row["degraded_decisions"] for row in rows),
        "dropped_workers": sum(row["dropped_workers"] for row in rows),
        "outage_seconds": sum(row["outage_seconds"] for row in rows),
        "telemetry": None,
        "shards": len(rows),
        "completed_total": completed_total,
    }


class ClusterRouter:
    """Routes arrivals across shard gateways per a :class:`ShardPlan`."""

    def __init__(
        self,
        plan: ShardPlan,
        shards: list[ShardHandle],
        sanitize: bool = False,
    ):
        if len(shards) != plan.shard_count:
            raise ConfigurationError(
                f"plan wants {plan.shard_count} shards, got {len(shards)}"
            )
        for index, shard in enumerate(shards):
            if shard.shard_id != index:
                raise ConfigurationError(
                    f"shard at position {index} has id {shard.shard_id}"
                )
        self.plan = plan
        self.shards = shards
        self.sanitize = sanitize
        # Single-driver router state: one pilot task calls the submit
        # methods (marked loop-entry below), exactly like one connection
        # drives a MatchingServer.
        self._worker_home: dict[str, int] = {}  # comlint: loop-owned
        self._worker_shareable: dict[str, bool] = {}  # comlint: loop-owned
        self._statuses: dict[str, tuple[int, str]] = {}  # comlint: loop-owned
        self._dead: set[int] = set()  # comlint: loop-owned
        self.forwards = 0
        self.cross_shard_serves = 0
        self.failovers = 0
        self.lost_workers = 0
        self.routed_workers = 0
        self.routed_requests = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ClusterRouter":
        """Start every shard; returns self for chaining."""
        for shard in self.shards:
            await shard.start()
        return self

    async def stop(self) -> None:
        """Stop every shard (a crashed shard's stop is a safe no-op)."""
        for shard in self.shards:
            await shard.stop()

    # -- routing -------------------------------------------------------------

    def _live(self) -> list[int]:
        return [
            shard.shard_id
            for shard in self.shards
            if shard.shard_id not in self._dead
        ]

    def _home_shard(self, request: Request) -> int:  # comlint: loop-entry
        """The live shard owning the request's cell, after failover."""
        home = self.plan.shard_of(request.location)
        if home not in self._dead:
            return home
        for candidate in self.plan.shards_in_disk(
            request.location, max(self.plan.reach_km, self.plan.cell_km)
        ):
            if candidate not in self._dead:
                return candidate
        live = self._live()
        if not live:
            raise ServiceError("every shard in the cluster has crashed")
        return live[0]

    def _mark_dead(self, shard_id: int) -> None:  # comlint: loop-entry
        if shard_id in self._dead:
            return
        self._dead.add(shard_id)
        shard = self.shards[shard_id]
        if isinstance(shard, RemoteShard):
            shard.mark_crashed()
        # Workers homed on the dead shard are lost with its state —
        # the degraded cluster serves from the survivors only.
        self.lost_workers += sum(
            1
            for worker_id in sorted(self._worker_home)
            if self._worker_home[worker_id] == shard_id
        )

    async def submit_worker(self, worker: Worker) -> None:  # comlint: loop-entry
        """Route one worker arrival to the shard owning its location."""
        self.routed_workers += 1
        shard_id = self.plan.shard_of(worker.location)
        if shard_id in self._dead:
            shard_id = self._home_shard_for_point(worker)
        shard = self.shards[shard_id]
        try:
            await shard.submit_worker(worker)
        except _SHARD_DOWN:
            if not shard.crashed:
                raise
            self._mark_dead(shard_id)
            self.failovers += 1
            fallback = self._home_shard_for_point(worker)
            await self.shards[fallback].submit_worker(worker)
            self._worker_home[worker.worker_id] = fallback
            self._worker_shareable[worker.worker_id] = worker.shareable
            return
        self._worker_home[worker.worker_id] = shard_id
        self._worker_shareable[worker.worker_id] = worker.shareable

    def _home_shard_for_point(self, worker: Worker) -> int:  # comlint: loop-entry
        for candidate in self.plan.shards_in_disk(
            worker.location, max(worker.service_radius, self.plan.cell_km)
        ):
            if candidate not in self._dead:
                return candidate
        live = self._live()
        if not live:
            raise ServiceError("every shard in the cluster has crashed")
        return live[0]

    async def submit_request(  # comlint: loop-entry
        self, request: Request
    ) -> ServiceOutcome:
        """Decide one request, forwarding rejects across shard borders.

        The home shard answers first.  On a final ``reject`` the request
        is offered — in sorted shard order, the deterministic analogue of
        the paper's cooperation sequence — to every other live shard
        whose territory intersects the request's cooperation reach
        (``plan.reach_km``); the first non-reject answer wins and
        forwarding stops, so at most one shard ever serves the request.
        ``deferred`` answers stay home: the home shard's batching
        algorithm still owns the final decision and may yet serve it.
        """
        self.routed_requests += 1
        home = self._home_shard(request)
        outcome = await self._submit_with_failover(home, request)
        home = self._statuses[request.request_id][0]
        if outcome.status != "reject":
            return outcome
        # Forward exactly as far as cooperation can reach: no worker
        # serves beyond the trace's maximum service radius, so shards
        # whose territory lies outside it can never change the answer.
        for neighbour in self.plan.shards_in_disk(
            request.location, self.plan.reach_km
        ):
            if neighbour == home or neighbour in self._dead:
                continue
            self.forwards += 1
            shard = self.shards[neighbour]
            try:
                forwarded = await shard.submit_request(request)
            except _SHARD_DOWN:
                if not shard.crashed:
                    raise
                self._mark_dead(neighbour)
                self.failovers += 1
                continue
            if forwarded.status not in ("reject", STATUS_SHED):
                self.cross_shard_serves += 1
                self._statuses[request.request_id] = (
                    neighbour,
                    forwarded.status,
                )
                return forwarded
        return outcome

    async def _submit_with_failover(  # comlint: loop-entry
        self, shard_id: int, request: Request
    ) -> ServiceOutcome:
        shard = self.shards[shard_id]
        try:
            outcome = await shard.submit_request(request)
        except _SHARD_DOWN:
            if not shard.crashed:
                raise
            self._mark_dead(shard_id)
            self.failovers += 1
            fallback = self._home_shard(request)
            outcome = await self.shards[fallback].submit_request(request)
            self._statuses[request.request_id] = (fallback, outcome.status)
            return outcome
        self._statuses[request.request_id] = (shard_id, outcome.status)
        return outcome

    async def replay_shed(  # comlint: loop-entry
        self, request: Request
    ) -> ServiceOutcome:
        """Re-apply a recorded shed at the request's home shard."""
        self.routed_requests += 1
        home = self._home_shard(request)
        outcome = await self.shards[home].replay_shed(request)
        self._statuses[request.request_id] = (home, outcome.status)
        return outcome

    async def outcome_of(  # comlint: loop-entry
        self, request_id: str
    ) -> ServiceOutcome | None:
        """The recorded outcome of a request (None if unknown)."""
        routed = self._statuses.get(request_id)
        if routed is None:
            return None
        shard_id, _status = routed
        if shard_id in self._dead:
            return None
        return await self.shards[shard_id].outcome_of(request_id)

    # -- shutdown ------------------------------------------------------------

    async def drain(self) -> ClusterResult:  # comlint: loop-entry
        """Drain every live shard and aggregate the cluster row.

        Deferred requests resolve during the per-shard drains (batch
        flush), so the final statuses are re-read from the owning shard
        before the cluster row is computed.  With ``sanitize`` on the
        cluster-level Def. 2.5/2.6 checks run over the collected
        outcomes and raise :class:`SanitizerViolation` on any breach.
        """
        shard_rows: list[dict | None] = [None] * len(self.shards)
        for shard in self.shards:
            if shard.shard_id in self._dead:
                continue
            try:
                shard_rows[shard.shard_id] = await shard.drain()
            except _SHARD_DOWN:
                if not shard.crashed:
                    raise
                self._mark_dead(shard.shard_id)
                self.failovers += 1
        statuses = await self._final_statuses()
        if self.sanitize:
            self._check_cluster_invariants(statuses)
        live_rows = [row for row in shard_rows if row is not None]
        if not live_rows:
            raise ServiceError("no shard survived to drain")
        if len(self.shards) == 1:
            row = live_rows[0]
        else:
            row = merge_rows(
                live_rows,
                {rid: status for rid, (_sid, status) in statuses.items()},
            )
        return ClusterResult(
            row=row,
            shard_rows=shard_rows,
            forwards=self.forwards,
            cross_shard_serves=self.cross_shard_serves,
            failovers=self.failovers,
            crashed_shards=sorted(self._dead),
            lost_workers=self.lost_workers,
        )

    async def _final_statuses(self) -> dict[str, tuple[int, str]]:  # comlint: loop-entry
        """Per-request final (shard, status), resolving deferred answers."""
        final: dict[str, tuple[int, str]] = {}
        for request_id in sorted(self._statuses):
            shard_id, status = self._statuses[request_id]
            if status == STATUS_DEFERRED and shard_id not in self._dead:
                resolved = await self.shards[shard_id].outcome_of(request_id)
                if resolved is not None:
                    status = resolved.status
            final[request_id] = (shard_id, status)
        return final

    def _check_cluster_invariants(  # comlint: loop-entry
        self, statuses: dict[str, tuple[int, str]]
    ) -> None:
        """Cluster-wide Def. 2.5/2.6 checks over routed outcomes.

        Shard-local invariants (ledger conservation, per-worker single
        service, deadlines) are each shard's ConstraintSanitizer's job;
        what routing itself could break is the *invariable* constraint —
        a request served by more than one shard — and worker locality —
        a serve answered by a worker the router homed elsewhere.
        """
        serving_workers: dict[str, str] = {}
        for request_id in sorted(statuses):
            shard_id, status = statuses[request_id]
            if status not in SERVE_STATUSES:
                continue
            shard = self.shards[shard_id]
            if not isinstance(shard, LocalShard):
                continue
            outcome = shard.gateway.outcome_of(request_id)
            if outcome is None or outcome.worker_id is None:
                continue
            worker_id = outcome.worker_id
            home = self._worker_home.get(worker_id)
            if home is not None and home != shard_id:
                raise SanitizerViolation(
                    "cluster-worker-locality",
                    f"request {request_id} served on shard {shard_id} by "
                    f"worker {worker_id} homed on shard {home}: worker "
                    "state leaked across the shard boundary",
                    request_id=request_id,
                    worker_id=worker_id,
                )
            first = serving_workers.get(worker_id)
            if first is not None and first != request_id:
                if not self._worker_shareable.get(worker_id, True):
                    raise SanitizerViolation(
                        "cluster-invariable",
                        f"non-shareable worker {worker_id} serves both "
                        f"{first} and {request_id} cluster-wide",
                        request_id=request_id,
                        worker_id=worker_id,
                    )
            else:
                serving_workers[worker_id] = request_id

    # -- operations ----------------------------------------------------------

    async def handoff(  # comlint: loop-entry
        self, shard_id: int, path: str | Path
    ) -> None:
        """Rebalance: move a shard's state to a fresh gateway via COMSNAP1.

        Drains nothing — the shard's decision loop checkpoints *between*
        decisions (snapshot job), stops, and a new gateway restores from
        the checkpoint on the same shared clock and continues the shard's
        event stream behind an ops ``recovered`` marker, so the recording
        still replays byte-identically.  Only meaningful for local shards;
        remote shard processes snapshot/restore themselves.
        """
        shard = self.shards[shard_id]
        if not isinstance(shard, LocalShard):
            raise ServiceError(
                f"shard {shard_id} is remote; handoff runs on its host"
            )
        if shard_id in self._dead:
            raise ServiceError(f"shard {shard_id} has crashed")
        old = shard.gateway
        await old.snapshot(path)
        await old.stop()
        restored = MatchingGateway.from_snapshot(path, clock=old.clock)
        restored.shard_info = dict(old.shard_info or {})
        restored.attach_events(old.events, recovered=True)
        await restored.start()
        shard.gateway = restored

    async def stats(self) -> dict:  # comlint: loop-entry
        """Cluster-level statistics plus every live shard's own stats."""
        per_shard: list[dict | None] = []
        for shard in self.shards:
            if shard.shard_id in self._dead:
                per_shard.append(None)
                continue
            per_shard.append(await shard.stats())
        return {
            "shards": self.plan.shard_count,
            "live": self._live(),
            "crashed": sorted(self._dead),
            "routed_workers": self.routed_workers,
            "routed_requests": self.routed_requests,
            "forwards": self.forwards,
            "cross_shard_serves": self.cross_shard_serves,
            "failovers": self.failovers,
            "lost_workers": self.lost_workers,
            "plan": self.plan.as_dict(),
            "per_shard": per_shard,
        }
