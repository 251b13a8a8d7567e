"""Verified replay of ``COMEVT1`` recordings.

A recorded event log is not just telemetry — its canonical projection is
a complete record of the run: every arrival (inputs) and every decision,
resolution and shed (outputs), in decision-loop order.
:func:`replay_event_log` re-drives the recorded arrivals through a fresh
:class:`~repro.service.gateway.MatchingGateway` (in-process, or behind a
loopback JSONL/TCP server with ``tcp=True``) while capturing the
replaying gateway's own event stream.

Three identities are checked:

1. **stream** — the replayed stream's canonical projection equals the
   recorded one, byte for byte (``seq`` and ops events excluded, so a
   stream recorded across crash→recover cycles compares equal to its
   uninterrupted replay — "byte-identical modulo crash markers");
2. **row** — the replayed metrics row reproduces the digest of the
   recording's own ``drain`` event *and*, for a shed-free recording, the
   row computed by an uninterrupted
   :meth:`~repro.core.simulator.Simulator.run` of the same scenario;
3. **meta** — the stream's ``meta`` event names this engine's schema,
   algorithm, scenario and platforms; replaying a foreign stream raises
   :class:`~repro.errors.ServiceError` instead of diverging quietly.

Journal records are ``COMEVT1`` events too, so the arrival decoder
(:func:`recorded_arrivals`) and :func:`validate_meta` also serve crash
recovery (:mod:`repro.service.recovery`).

``com-repro replay --verify`` is the CLI face of this module — over a
recording given with ``--log``, or over the one it just recorded from a
generated trace; the soak harness (:mod:`repro.service.soak`) runs the
same verification over streams recorded under induced crashes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.core.entities import Request, Worker
from repro.core.registry import algorithm_factory
from repro.core.simulator import Scenario, SimulatorConfig
from repro.errors import ServiceError
from repro.obs.events import (
    CANONICAL_KINDS,
    EVENT_FORMAT,
    EVENT_SCHEMA,
    OPS_KINDS,
    EventLog,
    GatewayEvent,
    canonical_projection,
    encode_canonical,
    read_events,
    row_digest,
)
from repro.service.clock import VirtualClock
from repro.service.gateway import STATUS_SHED, MatchingGateway, ServiceOutcome
from repro.service.wire import request_from_wire, worker_from_wire

__all__ = [
    "REDRIVE_VERBS",
    "ReplayReport",
    "recorded_arrivals",
    "replay_event_log",
    "validate_meta",
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

_FROM_WIRE: dict[str, Callable[[dict], Worker | Request]] = {
    "worker": worker_from_wire,
    "request": request_from_wire,
}

#: Record kinds that carry no arrival: the remaining canonical kinds, the
#: ops annotations and the journal-only ``checkpoint``.
_SKIPPED_KINDS = (
    CANONICAL_KINDS | OPS_KINDS | {"checkpoint"}
) - REDRIVE_VERBS.keys()


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """What a replay drove and which identities held."""

    #: ``"in-process"`` or ``"tcp"``.
    mode: str
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
    records: Iterable[GatewayEvent],
    scenario: Scenario,
    error: type[ServiceError] = ServiceError,
) -> Iterator[tuple[str, Worker | Request, ServiceOutcome | None]]:
    """The one arrival decoder for both logs (``COMEVT1`` and ``COMWAL1``).

    Yields ``(kind, entity, recorded outcome)`` per ``worker`` /
    ``decision`` / ``shed`` record (outcome ``None`` for a worker).  A
    ``ref`` resolves to the scenario's entity; a wire entity is decoded
    and interned, as the live arrival was.  Submit each with
    :data:`REDRIVE_VERBS` ``[kind]``.  An unknown kind, a dangling ``ref``
    or a malformed record raises ``error``.
    """
    indexes: dict[str, dict[str, Worker | Request]] = {
        "worker": {
            worker.worker_id: worker for worker in scenario.events.workers
        },
        "request": {
            request.request_id: request for request in scenario.events.requests
        },
    }
    for record in records:
        kind, fields = record.kind, record.fields
        if kind not in REDRIVE_VERBS:
            if kind not in _SKIPPED_KINDS:
                raise error(
                    f"record seq {record.seq} has unknown kind {kind!r}"
                )
            continue
        key = "worker" if kind == "worker" else "request"
        index = indexes[key]
        try:
            if "ref" in fields:
                entity_id = fields["ref"]
                entity = index[entity_id]
            else:
                entity_id = str(fields[key]["id"])
                entity = _FROM_WIRE[key](fields[key])
                if index.get(entity_id) == entity:
                    entity = index[entity_id]
            outcome: ServiceOutcome | None = None
            if kind == "shed":
                outcome = ServiceOutcome(entity_id, STATUS_SHED)
            elif kind == "decision":
                outcome = ServiceOutcome(
                    entity_id,
                    fields["status"],
                    fields["worker"],
                    fields["payment"],
                )
        except (KeyError, TypeError, ValueError, ServiceError) as problem:
            raise error(
                f"record seq {record.seq}: undecodable {kind} record — a ref "
                f"not in the scenario or a malformed entity ({problem!r})"
            ) from None
        yield kind, entity, outcome


def validate_meta(
    records: Iterable[GatewayEvent],
    scenario: Scenario,
    algorithm: str,
    format: int,
    source: object,
    error: type[ServiceError] = ServiceError,
) -> GatewayEvent:
    """Check a log's ``meta`` record describes this deployment.

    ``algorithm`` is the display name (``algorithm_factory(...).name``);
    ``format`` is the log's own format number.  Returns the meta record;
    raises ``error`` naming every mismatched field.
    """
    meta = next((record for record in records if record.kind == "meta"), None)
    if meta is None:
        raise error(
            f"{source}: stream has no meta event — not a complete COMEVT1 "
            f"recording"
        )
    expected = {
        "schema": EVENT_SCHEMA,
        "format": format,
        "algorithm": algorithm,
        "scenario": scenario.name,
        "platforms": list(scenario.platform_ids),
    }
    mismatched = [
        f"{key} {meta.fields.get(key)!r} (expected {value!r})"
        for key, value in expected.items()
        if meta.fields.get(key) != value
    ]
    if mismatched:
        raise error(
            f"{source}: meta does not match this deployment: "
            + "; ".join(mismatched)
        )
    return meta


async def _redrive(
    recorded: list[GatewayEvent],
    scenario: Scenario,
    algorithm: str,
    config: SimulatorConfig,
    tcp: bool,
    counts: Counter[str],
) -> tuple[list[GatewayEvent], dict]:
    """Re-drive a recording's arrivals through a fresh gateway.

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
        for kind, entity, __ in recorded_arrivals(recorded, scenario):
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
    seed).  ``tcp=True`` puts the replaying gateway behind a loopback
    :class:`~repro.service.server.MatchingServer` — same engine, plus
    wire codec coverage.  Raises :class:`~repro.errors.ServiceError`
    when the stream is foreign to the deployment; byte-divergence is
    *reported*, not raised, so callers can print both sides.
    """
    path = Path(path)
    config = config or SimulatorConfig()
    recorded = read_events(path)
    validate_meta(
        recorded,
        scenario,
        algorithm_factory(algorithm).name,
        EVENT_FORMAT,
        path,
    )
    counts: Counter[str] = Counter()
    replayed, row = await _redrive(
        recorded, scenario, algorithm, config, tcp, counts
    )

    recorded_canonical = [
        event for event in recorded if event.kind in CANONICAL_KINDS
    ]
    stream_identical = canonical_projection(
        replayed
    ) == canonical_projection(recorded_canonical)

    # The recording's own drain seals the original run's row digest;
    # the replayed row must reproduce it.
    recorded_drain = next(
        (event for event in reversed(recorded) if event.kind == "drain"),
        None,
    )
    row_identical = recorded_drain is not None and row_digest(
        row
    ) == recorded_drain.fields.get("metrics_sha256")
    if row_identical and counts["shed"] == 0:
        # Independent anchor (only meaningful for shed-free recordings —
        # shed requests never reach the batch engine): the replayed row
        # must also equal ``Simulator.run`` on the same trace, the repo's
        # golden-row invariant.
        from repro.experiments.reporting import golden_row

        row_identical = encode_canonical(row) == encode_canonical(
            golden_row(scenario, algorithm, config)
        )

    return ReplayReport(
        mode="tcp" if tcp else "in-process",
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
