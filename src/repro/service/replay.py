"""Verified replay of ``COMEVT1`` event streams.

A recorded event log is not just telemetry — its canonical projection is
a complete record of the run: every arrival (inputs) and every decision,
resolution and shed (outputs), in decision-loop order.
:func:`replay_event_log` re-drives the recorded arrivals through a fresh
:class:`~repro.core.simulator.SimulationSession` (in-process, or over the
JSONL/TCP transport with ``tcp=True``) while capturing the replaying
gateway's own event stream, then checks three identities:

1. **stream** — the replayed stream's canonical projection equals the
   recorded one, byte for byte (``seq`` and ops events excluded, so a
   stream recorded across crash→recover cycles compares equal to its
   uninterrupted replay — "byte-identical modulo crash markers");
2. **row** — the replayed drained metrics row equals the row digest the
   recorded ``drain`` event carries (implied by 1, since the digest is
   part of the projection) *and* the row computed by an uninterrupted
   :meth:`~repro.core.simulator.Simulator.run` of the same scenario;
3. **meta** — the stream's ``meta`` event names this engine's schema,
   algorithm, scenario and platforms; replaying a foreign stream raises
   :class:`~repro.errors.ServiceError` instead of diverging quietly.

``com-repro replay-events --verify`` is the CLI face of this module; the
soak harness (:mod:`repro.service.soak`) runs the same verification over
streams recorded under induced crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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
from repro.service.gateway import MatchingGateway
from repro.service.wire import request_from_wire, worker_from_wire

__all__ = ["ReplayReport", "replay_event_log"]


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
    #: Replayed drained row equals the uninterrupted ``Simulator.run`` row.
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


def _validate_meta(
    events: list[GatewayEvent], gateway: MatchingGateway, path: Path
) -> None:
    """The stream's meta event must describe the rebuilt deployment."""
    meta = next((event for event in events if event.kind == "meta"), None)
    if meta is None:
        raise ServiceError(
            f"{path}: stream has no meta event — not a complete COMEVT1 "
            f"recording"
        )
    recorded = {
        "schema": meta.fields.get("schema"),
        "algorithm": meta.fields.get("algorithm"),
        "scenario": meta.fields.get("scenario"),
        "platforms": meta.fields.get("platforms"),
    }
    expected = {
        "schema": EVENT_SCHEMA,
        "algorithm": gateway._session.algorithm_name,
        "scenario": gateway.scenario.name,
        "platforms": list(gateway.scenario.platform_ids),
    }
    if recorded != expected:
        raise ServiceError(
            f"{path}: stream meta {recorded!r} does not match the replay "
            f"deployment {expected!r} — wrong scenario/algorithm for this "
            f"recording"
        )


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
    seed).  ``tcp=True`` routes every arrival through a loopback
    :class:`~repro.service.server.MatchingServer` — same engine, plus
    wire codec coverage.  Raises :class:`~repro.errors.ServiceError`
    when the stream is foreign to the deployment; byte-divergence is
    *reported*, not raised, so callers can print both sides.
    """
    path = Path(path)
    recorded = read_events(path)
    recorded_canonical = [
        event for event in recorded if event.kind in CANONICAL_KINDS
    ]
    crashes_recorded = sum(1 for event in recorded if event.kind == "crash")

    # The replaying gateway records its own stream into an unbounded
    # in-memory ring — the comparison object.
    log = EventLog(ring=0)
    gateway = MatchingGateway(
        scenario, algorithm, config or SimulatorConfig(), events=log
    )
    _validate_meta(recorded, gateway, path)

    workers = requests = sheds = 0
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
        for event in recorded:
            if event.kind == "worker":
                worker = worker_from_wire(event.fields["worker"])
                workers += 1
                if client is not None:
                    await client.submit_worker(worker)
                else:
                    await gateway.submit_worker(worker)
            elif event.kind == "decision":
                # The decision event carries the arrival's full wire
                # entity — re-driving it regenerates the decision fields.
                request = request_from_wire(event.fields["request"])
                requests += 1
                if client is not None:
                    await client.submit_request(request)
                else:
                    await gateway.submit_request(request)
            elif event.kind == "shed":
                request = request_from_wire(event.fields["request"])
                sheds += 1
                if client is not None:
                    await client.replay_shed(request)
                else:
                    await gateway.replay_shed(request)
        if client is not None:
            await client.drain()
        else:
            await gateway.drain()
    finally:
        if client is not None:
            await client.close()
        if server is not None:
            await server.stop()
        elif gateway.running:
            await gateway.stop()

    row = gateway.metrics_dict()
    stream_identical = canonical_projection(
        log.events()
    ) == canonical_projection(recorded_canonical)

    # The recorded drain event carries the original run's row digest;
    # the replayed row must reproduce it.
    recorded_drain = next(
        (event for event in recorded if event.kind == "drain"), None
    )
    row_identical = recorded_drain is not None and row_digest(
        row
    ) == recorded_drain.fields.get("metrics_sha256")
    if row_identical and sheds == 0:
        # Independent anchor (only meaningful for shed-free recordings —
        # shed requests never reach the batch engine): the replayed row
        # must also equal ``Simulator.run`` on the same trace, the
        # repo's golden-row invariant.
        from repro.core.registry import algorithm_factory
        from repro.core.simulator import Simulator
        from repro.experiments.metrics import AlgorithmMetrics
        from repro.experiments.reporting import metrics_to_dict

        golden = Simulator(gateway.config).run(
            scenario, algorithm_factory(algorithm)
        )
        golden_row = metrics_to_dict(AlgorithmMetrics.from_simulation(golden))
        row_identical = encode_canonical(row) == encode_canonical(golden_row)

    return ReplayReport(
        mode="tcp" if tcp else "in-process",
        recorded_events=len(recorded),
        canonical_events=len(recorded_canonical),
        workers=workers,
        requests=requests,
        sheds=sheds,
        crashes_recorded=crashes_recorded,
        stream_identical=stream_identical,
        row_identical=row_identical,
        metrics_row=row,
    )
