"""Verified replay of ``COMEVT1`` recordings.

A recorded event log is not just telemetry — its canonical projection is
a complete record of the run: every arrival (inputs) and every decision,
resolution and shed (outputs), in decision-loop order.
:func:`replay_event_log` re-drives the recorded arrivals through fresh
:class:`~repro.service.gateway.MatchingGateway` instances (in-process, or
each behind its own loopback JSONL/TCP server with ``tcp=True``) while
capturing the replaying gateways' own event streams.

The recording says what shape it has.  A single gateway's stream is one
substream.  A merged cluster recording (:mod:`repro.cluster.recording`)
carries ``shards`` and the shard plan in its ``meta`` event and
annotates every canonical event with its shard: replay splits it back
into per-shard substreams, re-drives each through its own gateway, and
merges the regenerated streams and rows with the same deterministic key
the live cluster used.  Shards are independent state machines, so they
replay one at a time — the merged order restricted to one shard is that
shard's original submission order.

Three identities are checked:

1. **stream** — the replayed stream's canonical projection equals the
   recorded one, byte for byte (``seq`` and ops events excluded, so a
   stream recorded across crash→recover cycles compares equal to its
   uninterrupted replay — "byte-identical modulo crash markers");
2. **row** — the replayed metrics row reproduces the digest of the
   recording's own ``drain`` event (the cluster ``drain`` for a merged
   recording) *and*, for an unsharded shed-free recording, the row
   computed by an uninterrupted
   :meth:`~repro.core.simulator.Simulator.run` of the same scenario;
3. **meta** — the stream's ``meta`` event names this engine's schema,
   algorithm, scenario and platforms, and a sharded recording's plan
   agrees with its shard count; replaying a foreign stream raises
   :class:`~repro.errors.ServiceError` instead of diverging quietly.

``com-repro replay --verify`` is the CLI face of this module — over a
recording given with ``--log``, or over the one it just recorded from a
generated trace; the soak harness (:mod:`repro.service.soak`) runs the
same verification over streams recorded under induced crashes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.entities import Request, Worker
from repro.core.registry import algorithm_factory
from repro.core.simulator import Scenario, SimulatorConfig
from repro.errors import ServiceError
from repro.obs.events import (
    CANONICAL_KINDS,
    EVENT_SCHEMA,
    EventLog,
    GatewayEvent,
    canonical_projection,
    encode_canonical,
    read_events,
    row_digest,
)
from repro.service.clock import VirtualClock
from repro.service.gateway import MatchingGateway
from repro.service.wire import request_from_wire, worker_from_wire

if TYPE_CHECKING:
    from repro.cluster.plan import ShardPlan

__all__ = [
    "REDRIVE_VERBS",
    "ReplayReport",
    "recorded_arrivals",
    "replay_event_log",
]

#: The submit call that re-drives each recorded arrival kind — the same
#: method name on :class:`MatchingGateway` and
#: :class:`~repro.service.client.GatewayClient`.  A recorded ``shed``
#: re-applies without consulting admission.
REDRIVE_VERBS = {
    "worker": "submit_worker",
    "decision": "submit_request",
    "shed": "replay_shed",
}


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """What a replay drove and which identities held."""

    #: ``"in-process"`` or ``"tcp"``.
    mode: str
    #: Shard gateways re-driven (1 for a single-gateway recording).
    shards: int
    #: Total events in the recorded stream (ops markers included).
    recorded_events: int
    #: Canonical events in the recorded stream (the compared subset).
    canonical_events: int
    #: Arrivals re-driven, by kind.
    workers: int
    requests: int
    sheds: int
    #: Crash markers observed in the recorded stream (ops ``crash``).
    crashes_recorded: int
    #: Canonical projections equal, byte for byte.
    stream_identical: bool
    #: Replayed row reproduces the recorded drain digest (and, when
    #: meaningful, the uninterrupted ``Simulator.run`` row).
    row_identical: bool
    metrics_row: dict

    @property
    def verified(self) -> bool:
        """Every byte-identity held."""
        return self.stream_identical and self.row_identical

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "shards": self.shards,
            "recorded_events": self.recorded_events,
            "canonical_events": self.canonical_events,
            "workers": self.workers,
            "requests": self.requests,
            "sheds": self.sheds,
            "crashes_recorded": self.crashes_recorded,
            "stream_identical": self.stream_identical,
            "row_identical": self.row_identical,
            "verified": self.verified,
        }


def recorded_arrivals(
    events: Iterable[GatewayEvent],
) -> Iterator[tuple[str, Worker | Request]]:
    """The re-drivable arrivals of a recorded stream, in stream order.

    Yields ``(kind, entity)`` for every ``worker``, ``decision`` and
    ``shed`` event.  A decision event carries its arrival's full wire
    entity, so re-driving it regenerates the decision fields; submit
    each with :data:`REDRIVE_VERBS` ``[kind]``.
    """
    for event in events:
        if event.kind == "worker":
            yield event.kind, worker_from_wire(event.fields["worker"])
        elif event.kind in ("decision", "shed"):
            yield event.kind, request_from_wire(event.fields["request"])


def _validate_meta(
    recorded: list[GatewayEvent],
    scenario: Scenario,
    algorithm: str,
    path: Path,
) -> ShardPlan | None:
    """Check the recording describes this deployment.

    Returns the embedded shard plan of a merged cluster recording, or
    ``None`` for a single-gateway stream.
    """
    meta = next((event for event in recorded if event.kind == "meta"), None)
    if meta is None:
        raise ServiceError(
            f"{path}: stream has no meta event — not a complete COMEVT1 "
            f"recording"
        )
    described = {
        key: meta.fields.get(key)
        for key in ("schema", "algorithm", "scenario", "platforms")
    }
    expected = {
        "schema": EVENT_SCHEMA,
        "algorithm": algorithm_factory(algorithm).name,
        "scenario": scenario.name,
        "platforms": list(scenario.platform_ids),
    }
    if described != expected:
        raise ServiceError(
            f"{path}: stream meta {described!r} does not match the replay "
            f"deployment {expected!r} — wrong scenario/algorithm for this "
            f"recording"
        )
    shards = meta.fields.get("shards")
    if shards is None:
        return None
    from repro.cluster.plan import ShardPlan

    plan_payload = meta.fields.get("plan")
    if not isinstance(plan_payload, dict):
        raise ServiceError(
            f"{path}: meta says {shards} shards but carries no shard plan"
        )
    plan = ShardPlan.from_dict(plan_payload)
    if plan.shard_count != shards:
        raise ServiceError(
            f"{path}: meta says {shards} shards but the embedded plan has "
            f"{plan.shard_count}"
        )
    return plan


async def _redrive(
    substream: list[GatewayEvent],
    scenario: Scenario,
    algorithm: str,
    config: SimulatorConfig,
    tcp: bool,
    counts: Counter[str],
) -> tuple[list[GatewayEvent], dict]:
    """Re-drive one substream through a fresh gateway.

    Returns the gateway's own event stream (recorded into an unbounded
    in-memory ring — the comparison object) and its drained row;
    ``counts`` tallies the arrivals by kind.
    """
    log = EventLog(ring=0)
    clock = VirtualClock()
    gateway = MatchingGateway(
        scenario, algorithm, config, clock=clock, events=log
    )
    server = None
    client = None
    try:
        if tcp:
            from repro.service.client import GatewayClient
            from repro.service.server import MatchingServer

            server = MatchingServer(gateway)
            host, port = await server.start()
            client = GatewayClient(host, port)
            await client.connect()
        else:
            await gateway.start()
        target = client if client is not None else gateway
        for kind, entity in recorded_arrivals(substream):
            clock.advance_to(entity.arrival_time)
            counts[kind] += 1
            await getattr(target, REDRIVE_VERBS[kind])(entity)
        await target.drain()
    finally:
        if client is not None:
            await client.close()
        if server is not None:
            await server.stop()
        elif gateway.running:
            await gateway.stop()
    return list(log.events()), gateway.metrics_dict()


async def replay_event_log(
    path: str | Path,
    scenario: Scenario,
    algorithm: str = "ramcom",
    config: SimulatorConfig | None = None,
    tcp: bool = False,
) -> ReplayReport:
    """Re-drive a recorded stream and report which identities held.

    The scenario/algorithm/config must be the ones the recording ran
    (the synthetic-workload CLI flags regenerate them from the same
    seed); the shard count and plan come from the recording itself.
    ``tcp=True`` puts every replaying gateway behind its own loopback
    :class:`~repro.service.server.MatchingServer` — same engine, plus
    wire codec coverage.  Raises :class:`~repro.errors.ServiceError`
    when the stream is foreign to the deployment; byte-divergence is
    *reported*, not raised, so callers can print both sides.
    """
    path = Path(path)
    config = config or SimulatorConfig()
    recorded = read_events(path)
    plan = _validate_meta(recorded, scenario, algorithm, path)

    if plan is None:
        substreams = [recorded]
    else:
        from repro.cluster.recording import shard_streams_of

        substreams = shard_streams_of(recorded, plan.shard_count)
    counts: Counter[str] = Counter()
    streams: list[list[GatewayEvent]] = []
    rows: list[dict] = []
    for substream in substreams:
        stream, row = await _redrive(
            substream, scenario, algorithm, config, tcp, counts
        )
        streams.append(stream)
        rows.append(row)

    if plan is None:
        replayed, row = streams[0], rows[0]
    else:
        from repro.cluster.recording import (
            final_statuses_of,
            merge_shard_streams,
        )
        from repro.cluster.router import merge_rows

        row = merge_rows(rows, final_statuses_of(recorded))
        replayed = merge_shard_streams(streams, plan, row)

    recorded_canonical = [
        event for event in recorded if event.kind in CANONICAL_KINDS
    ]
    stream_identical = canonical_projection(
        replayed
    ) == canonical_projection(recorded_canonical)

    # The recording's own drain — the one no shard annotates, i.e. the
    # cluster drain of a merged recording — seals the original run's
    # row digest; the replayed row must reproduce it.
    recorded_drain = next(
        (
            event
            for event in reversed(recorded)
            if event.kind == "drain" and "shard" not in event.fields
        ),
        None,
    )
    row_identical = recorded_drain is not None and row_digest(
        row
    ) == recorded_drain.fields.get("metrics_sha256")
    if row_identical and plan is None and counts["shed"] == 0:
        # Independent anchor (only meaningful for single-gateway,
        # shed-free recordings — shed requests never reach the batch
        # engine, and a cluster row is not one engine's row): the
        # replayed row must also equal ``Simulator.run`` on the same
        # trace, the repo's golden-row invariant.
        from repro.experiments.reporting import golden_row

        row_identical = encode_canonical(row) == encode_canonical(
            golden_row(scenario, algorithm, config)
        )

    return ReplayReport(
        mode="tcp" if tcp else "in-process",
        shards=plan.shard_count if plan is not None else 1,
        recorded_events=len(recorded),
        canonical_events=len(recorded_canonical),
        workers=counts["worker"],
        requests=counts["decision"],
        sheds=counts["shed"],
        crashes_recorded=sum(
            1 for event in recorded if event.kind == "crash"
        ),
        stream_identical=stream_identical,
        row_identical=row_identical,
        metrics_row=row,
    )
