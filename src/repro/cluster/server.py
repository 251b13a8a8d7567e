"""Cluster assembly and the JSONL front door.

Builders wire a :class:`~repro.cluster.router.ClusterRouter` to its
shard gateways in the two supported topologies:

:func:`local_cluster`
    Every shard is an in-process :class:`MatchingGateway` on one shared
    :class:`VirtualClock` — the deterministic topology replay and the
    test suite use.

:func:`tcp_cluster`
    Every shard gateway sits behind its own loopback
    :class:`MatchingServer` and the router reaches it through a
    :class:`GatewayClient` (reconnect machinery included) — the wire
    topology ``com-repro serve --shards N`` (N > 1) boots and the
    cluster bench measures.

:class:`ClusterServer` exposes the router over the same JSONL protocol
as a single gateway (ping / worker / request / shed / outcome / stats /
drain), so any existing client can talk to a cluster without knowing it
is one — the ``stats`` verb answers the cluster topology instead of a
single gateway's counters.
"""

from __future__ import annotations

from pathlib import Path

from repro.cluster.plan import ShardPlan
from repro.cluster.recording import merge_shard_streams, write_recording
from repro.cluster.router import (
    ClusterResult,
    ClusterRouter,
    LocalShard,
    RemoteShard,
    ShardHandle,
)
from repro.core.events import EventKind, EventStream
from repro.core.simulator import Scenario, SimulatorConfig
from repro.errors import InducedCrash
from repro.faults.crash import CrashPlan
from repro.faults.plan import RetryPolicy
from repro.obs.events import EventLog, GatewayEvent
from repro.service.client import GatewayClient
from repro.service.clock import ServiceClock, VirtualClock
from repro.service.gateway import MatchingGateway
from repro.service.server import DEFAULT_HOST, JsonlServer, MatchingServer
from repro.service.wire import request_from_wire, worker_from_wire

__all__ = [
    "build_shard_gateway",
    "local_cluster",
    "tcp_cluster",
    "drive_cluster",
    "recording_of",
    "ClusterServer",
]


def build_shard_gateway(
    shard_id: int,
    scenario: Scenario,
    plan: ShardPlan,
    algorithm: str = "ramcom",
    config: SimulatorConfig | None = None,
    clock: ServiceClock | None = None,
    journal: str | Path | None = None,
    crash_plan: CrashPlan | None = None,
    events: EventLog | None = None,
) -> MatchingGateway:
    """One shard gateway, stamped with its territory summary.

    Every shard carries the *full* scenario: entity interning, the
    behaviour oracle and the platform set work unchanged, and the shard
    only ever sees the arrivals the router sends its way.
    """
    gateway = MatchingGateway(
        scenario,
        algorithm,
        config,
        clock=clock,
        journal=journal,
        crash_plan=crash_plan,
        events=events,
    )
    gateway.shard_info = plan.shard_summary(shard_id)
    return gateway


def local_cluster(
    scenario: Scenario,
    plan: ShardPlan,
    algorithm: str = "ramcom",
    config: SimulatorConfig | None = None,
    clock: VirtualClock | None = None,
    journal_dirs: dict[int, str | Path] | None = None,
    crash_plans: dict[int, CrashPlan] | None = None,
    sanitize: bool = False,
) -> tuple[ClusterRouter, list[EventLog], VirtualClock]:
    """An in-process cluster on one shared virtual clock.

    Each shard records its own unbounded in-memory ``COMEVT1`` stream;
    merge them with :func:`recording_of` after the drain.  ``crash_plans``
    arms shard-granular kill points — a crashing shard must also appear
    in ``journal_dirs``, because every crash channel sits on the journal
    path.
    """
    shared = clock or VirtualClock()
    journal_dirs = journal_dirs or {}
    crash_plans = crash_plans or {}
    logs: list[EventLog] = []
    handles: list[ShardHandle] = []
    for shard_id in range(plan.shard_count):
        log = EventLog(ring=0)
        gateway = build_shard_gateway(
            shard_id,
            scenario,
            plan,
            algorithm,
            config,
            clock=shared,
            journal=journal_dirs.get(shard_id),
            crash_plan=crash_plans.get(shard_id),
            events=log,
        )
        logs.append(log)
        handles.append(LocalShard(shard_id, gateway))
    router = ClusterRouter(plan, handles, sanitize=sanitize)
    return router, logs, shared


async def tcp_cluster(
    scenario: Scenario,
    plan: ShardPlan,
    algorithm: str = "ramcom",
    config: SimulatorConfig | None = None,
    host: str = DEFAULT_HOST,
    base_port: int = 0,
    journal_dirs: dict[int, str | Path] | None = None,
    crash_plans: dict[int, CrashPlan] | None = None,
    sanitize: bool = False,
    reconnect: RetryPolicy | None = None,
) -> tuple[ClusterRouter, list[EventLog], list[MatchingServer], VirtualClock]:
    """A cluster of loopback shard servers reached through clients.

    Servers are started here (their gateways with them); the returned
    router's :meth:`~repro.cluster.router.ClusterRouter.start` then only
    connects the clients.  ``base_port=0`` binds ephemeral ports;
    otherwise shard *k* listens on ``base_port + k``.
    """
    shared = VirtualClock()
    journal_dirs = journal_dirs or {}
    crash_plans = crash_plans or {}
    logs: list[EventLog] = []
    servers: list[MatchingServer] = []
    handles: list[ShardHandle] = []
    policy = reconnect or RetryPolicy(max_attempts=3, base_backoff_s=0.05)
    for shard_id in range(plan.shard_count):
        log = EventLog(ring=0)
        gateway = build_shard_gateway(
            shard_id,
            scenario,
            plan,
            algorithm,
            config,
            clock=shared,
            journal=journal_dirs.get(shard_id),
            crash_plan=crash_plans.get(shard_id),
            events=log,
        )
        port = 0 if base_port == 0 else base_port + shard_id
        server = MatchingServer(gateway, host=host, port=port)
        bound_host, bound_port = await server.start()
        client = GatewayClient(
            bound_host, bound_port, reconnect=policy, reconnect_seed=shard_id
        )
        logs.append(log)
        servers.append(server)
        handles.append(RemoteShard(shard_id, client))
    router = ClusterRouter(plan, handles, sanitize=sanitize)
    return router, logs, servers, shared


async def drive_cluster(
    router: ClusterRouter,
    events: EventStream,
    stop_after: int | None = None,
) -> ClusterResult | None:
    """Route a trace through the cluster in arrival order, then drain.

    ``stop_after`` (counted in arrivals) stops after that many *without*
    draining and returns ``None`` — the mid-stream hook the handoff and
    failover drills use; the caller keeps submitting and drains itself.
    """
    for driven, event in enumerate(events):
        if driven == stop_after:
            return None
        if event.kind is EventKind.WORKER:
            assert event.worker is not None
            await router.submit_worker(event.worker)
        else:
            assert event.request is not None
            await router.submit_request(event.request)
    return None if stop_after is not None else await router.drain()


async def stop_tcp_cluster(
    router: ClusterRouter, servers: list[MatchingServer]
) -> None:
    """Tear a :func:`tcp_cluster` down in dependency order.

    Clients close before their servers, so no connection handler is
    cancelled mid-read; crashed shards' servers are already gone and
    stop as a no-op.
    """
    await router.stop()
    for server in servers:
        await server.stop()


def recording_of(
    router: ClusterRouter,
    logs: list[EventLog],
    result: ClusterResult,
    path: str | Path | None = None,
) -> list[GatewayEvent]:
    """The cluster-ordered merged recording of a drained run.

    With a crashed shard the merge still includes whatever the dead
    shard emitted before fail-stopping (its ``crash`` marker included)
    — the degraded recording documents the outage; it is not expected
    to verify byte-identical.
    """
    streams = [list(log.events()) for log in logs]
    merged = merge_shard_streams(streams, router.plan, result.row)
    if path is not None:
        write_recording(merged, path)
    return merged


class ClusterServer(JsonlServer):
    """Serves a :class:`ClusterRouter` over JSONL/TCP, lock-step.

    Not pipelined: :meth:`ClusterRouter.submit_request` awaits the home
    shard's answer and then forwarded ones, so concurrent submissions
    could reach a second shard out of line order and change which
    platform a cross-shard request cooperates with.
    """

    pipelined = False

    def __init__(
        self,
        router: ClusterRouter,
        clock: ServiceClock,
        host: str = DEFAULT_HOST,
        port: int = 0,
        logs: list[EventLog] | None = None,
        record: str | Path | None = None,
    ):
        super().__init__(host, port)
        self.router = router
        self.clock = clock
        #: Per-shard event logs; with ``record`` set, their merged
        #: cluster-ordered recording is written at drain.
        self.logs = logs
        self.record = Path(record) if record is not None else None
        self._result: ClusterResult | None = None

    async def start(self) -> tuple[str, int]:
        """Start every shard and the front listener."""
        await self.router.start()
        return await self._listen()

    async def stop(self) -> None:
        """Close the listener and the connections, then stop the shards."""
        await self._close()
        await self.router.stop()

    def _crash_answer(self, verb: object, error: InducedCrash) -> dict:
        # A shard died and no survivor could take the arrival — the
        # cluster front stays up and reports the degradation.
        return {"ok": False, "verb": verb, "error": f"shard lost: {error}"}

    async def _dispatch(self, verb: object, payload: dict) -> dict:
        router = self.router
        if verb == "ping":
            return {
                "ok": True,
                "verb": "ping",
                "clock": self.clock.now(),
                "virtual": self.clock.virtual,
                "shards": router.plan.shard_count,
            }
        if verb == "request":
            request = request_from_wire(
                payload.get("request") or {}, self.clock.now()
            )
            outcome = await router.submit_request(request)
            return {"ok": True, "verb": "request", "outcome": outcome.as_dict()}
        if verb == "worker":
            worker = worker_from_wire(
                payload.get("worker") or {}, self.clock.now()
            )
            await router.submit_worker(worker)
            return {"ok": True, "verb": "worker", "worker_id": worker.worker_id}
        if verb == "shed":
            request = request_from_wire(
                payload.get("request") or {}, self.clock.now()
            )
            outcome = await router.replay_shed(request)
            return {"ok": True, "verb": "shed", "outcome": outcome.as_dict()}
        if verb == "outcome":
            request_id = str(payload.get("request_id", ""))
            outcome = await router.outcome_of(request_id)
            return {
                "ok": True,
                "verb": "outcome",
                "request_id": request_id,
                "outcome": outcome.as_dict() if outcome is not None else None,
            }
        if verb == "stats":
            return {"ok": True, "verb": "stats", "stats": await router.stats()}
        if verb == "drain":
            if self._result is None:
                self._result = await router.drain()
                if self.record is not None and self.logs is not None:
                    recording_of(router, self.logs, self._result, self.record)
            return {
                "ok": True,
                "verb": "drain",
                "metrics": self._result.row,
                "forwards": self._result.forwards,
                "cross_shard_serves": self._result.cross_shard_serves,
                "failovers": self._result.failovers,
                "crashed_shards": self._result.crashed_shards,
            }
        return {"ok": False, "verb": verb, "error": f"unknown verb {verb!r}"}
