"""Asyncio client for the JSONL matching service, plus a trace driver.

:class:`GatewayClient` speaks the one-JSON-object-per-line protocol of
:class:`~repro.service.server.MatchingServer`.  Calls are serialized with
a lock (the protocol answers in submission order per connection), so one
client instance is safe to share between tasks.  The client is
lock-step — one line out, its answer back — so the server never has a
backlog to group-commit on its behalf.  The server itself pipelines:
a raw connection may keep up to
:data:`~repro.service.server.PIPELINE_WINDOW` lines unanswered and read
the answers in line order (``repro.experiments.service_bench`` drives
its ``tcp`` section that way).

A transport failure surfaces as a :class:`ServiceError`; the client
does not reconnect.  A crashed server is recovered from its journal
(:func:`~repro.service.recovery.recover_gateway`) and the caller
resubmits, as the soak harness does.

:func:`drive_trace` streams any :class:`~repro.core.events.EventStream`
— synthetic scenarios from :mod:`repro.workloads` or traces loaded with
:func:`repro.workloads.load_scenario` — into a server in event order and
returns the drained metrics dict.  Under a virtual clock the server
advances simulation time from the events' own timestamps; pass a
real-time clock to pace the replay against the wall.
"""

from __future__ import annotations

import asyncio
import json

from repro.core.entities import Request, Worker
from repro.core.events import EventKind, EventStream
from repro.errors import ServiceError
from repro.service.clock import ServiceClock
from repro.service.gateway import ServiceOutcome
from repro.service.wire import request_to_wire, worker_to_wire

__all__ = ["GatewayClient", "drive_trace"]


class GatewayClient:
    """One TCP connection to a :class:`MatchingServer`."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    async def connect(self) -> "GatewayClient":
        """Open the connection (idempotent); returns ``self``."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        return self

    async def close(self) -> None:
        """Close the connection."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass  # server already tore the socket down
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "GatewayClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def _roundtrip(self, data: bytes, verb: str) -> dict:
        """One send + one response line on the current connection."""
        if self._writer is None or self._reader is None:
            raise ServiceError("client not connected; call connect() first")
        self._writer.write(data)
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError(
                f"server closed the connection during {verb!r}"
            )
        return json.loads(line)

    async def call(self, verb: str, **fields: object) -> dict:
        """Send one ``{"verb": ...}`` line and await its response line.

        Raises :class:`ServiceError` when the server answers
        ``"ok": false``, or when the server closes the connection.
        """
        payload = {"verb": verb, **fields}
        data = json.dumps(payload, sort_keys=True).encode() + b"\n"
        async with self._lock:
            try:
                response = await self._roundtrip(data, verb)
            except ConnectionResetError as error:
                raise ServiceError(str(error)) from error
        if not response.get("ok"):
            raise ServiceError(
                f"{verb} failed: {response.get('error', 'unknown error')}"
            )
        return response

    # -- convenience verbs --------------------------------------------------

    async def ping(self) -> dict:
        """Liveness check; returns the server's clock reading."""
        return await self.call("ping")

    async def submit_request(self, request: Request) -> ServiceOutcome:
        """Submit one request; returns its (possibly deferred) outcome."""
        response = await self.call("request", request=request_to_wire(request))
        return ServiceOutcome.from_dict(response["outcome"])

    async def submit_worker(self, worker: Worker) -> None:
        """Announce one worker arrival."""
        await self.call("worker", worker=worker_to_wire(worker))

    async def replay_shed(self, request: Request) -> ServiceOutcome:
        """Re-apply a recorded shed decision (the event-replay path)."""
        response = await self.call("shed", request=request_to_wire(request))
        return ServiceOutcome.from_dict(response["outcome"])

    async def outcome_of(self, request_id: str) -> ServiceOutcome | None:
        """Look up a request's latest recorded outcome (None if unknown)."""
        response = await self.call("outcome", request_id=request_id)
        outcome = response.get("outcome")
        return ServiceOutcome.from_dict(outcome) if outcome else None

    async def stats(self) -> dict:
        """The gateway's live statistics."""
        response = await self.call("stats")
        return response["stats"]

    async def snapshot(self, path: str) -> str:
        """Checkpoint the server's matching state to a server-side path."""
        response = await self.call("snapshot", path=path)
        return response["path"]

    async def drain(self) -> dict:
        """Finalize the run; returns the full metrics dict."""
        response = await self.call("drain")
        return response["metrics"]


async def drive_trace(
    client: GatewayClient,
    events: EventStream,
    clock: ServiceClock | None = None,
    stop_after: float | None = None,
) -> dict:
    """Stream ``events`` into a server in order, drain, return metrics.

    ``clock`` paces the submission: with a real-time clock each event
    waits until its timestamp (scaled by the clock's speed); with the
    default ``None`` events are pushed back-to-back and the *server's*
    virtual clock advances from the event timestamps.  ``stop_after``
    truncates the stream at a simulation time (used by snapshot/restore
    drills); truncation skips the drain and returns the live stats dict
    instead.
    """
    for event in events:
        if stop_after is not None and event.time > stop_after:
            return await client.stats()
        if clock is not None and not clock.virtual:
            await clock.sleep_until(event.time)
        if event.kind is EventKind.WORKER:
            assert event.worker is not None
            await client.submit_worker(event.worker)
        else:
            assert event.request is not None
            await client.submit_request(event.request)
    return await client.drain()
