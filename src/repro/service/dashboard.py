"""Stdlib-only live ops dashboard: HTTP + SSE over the event stream.

:class:`DashboardServer` is a hand-rolled ``asyncio`` HTTP/1.1 server —
no web framework, matching the repo's zero-dependency rule — that turns
an attached :class:`~repro.obs.events.EventLog` into an operator view:

``GET /``
    The single-file dashboard page (:mod:`repro.service.dashboard_page`):
    a canvas map of workers/requests/matches, a per-grid-cell load
    heatmap, and rolling throughput / latency / shed-rate panels.
``GET /events``
    The live event stream as Server-Sent Events (``id:`` = event seq,
    ``data:`` = the event record).  New subscribers are caught up from
    the log's in-memory ring, then stream live; a ``: keepalive``
    comment goes out during idle spells so intermediaries keep the
    connection open.
``GET /state``
    One JSON document: gateway :meth:`~repro.service.gateway.
    MatchingGateway.stats` (wall-clock metric families stripped via
    :func:`~repro.obs.summary.strip_wall_clock_families` before export)
    plus the :class:`LiveState` world view the server folds from events.
``GET /metrics``
    The gateway's raw metrics snapshot as JSON.

:class:`LiveState` is a synchronous event observer (it runs inline on
the decision loop's emit, so it stays allocation-light): current worker
and request positions, recent matches, per-cell request counts keyed by
``"i,j"`` grid indices (``cell_km`` resolution — the spatial-load
heatmap), and running totals.  It is transport-independent: tests fold
events through it without any HTTP.

The dashboard works identically under a :class:`~repro.service.clock.
VirtualClock` replay and a :class:`~repro.service.clock.RealTimeClock`
soak — it only consumes events and stats, never the clock.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque

from repro.errors import ServiceError
from repro.obs.events import EventLog, GatewayEvent
from repro.obs.summary import strip_wall_clock_families
from repro.service.gateway import MatchingGateway

__all__ = ["DashboardServer", "LiveState"]

#: Entity cap per table: oldest entries are evicted first (the map shows
#: the recent world, not the full history — the event log holds that).
_MAX_ENTITIES = 5000
#: Recent matches kept for the map's match edges.
_MAX_MATCHES = 200
#: Idle seconds between SSE keepalive comments.
_KEEPALIVE_S = 15.0
#: Largest request head (request line + headers) the server accepts.
_MAX_HEAD_BYTES = 16384


class LiveState:
    """The world as folded from the event stream, for the map view."""

    def __init__(self, cell_km: float = 1.0):
        if cell_km <= 0:
            raise ServiceError(f"cell_km must be > 0, got {cell_km}")
        self.cell_km = cell_km
        #: worker id -> {platform, x, y, status}
        self.workers: dict[str, dict] = {}
        #: request id -> {platform, x, y, status}
        self.requests: dict[str, dict] = {}
        #: Recent matches: {request, worker, platform, payment, time}.
        self.matches: deque[dict] = deque(maxlen=_MAX_MATCHES)
        #: "i,j" -> request count in that cell_km × cell_km grid cell.
        self.cells: dict[str, int] = {}
        #: status -> decision count (resolutions fold into their status).
        self.decisions: dict[str, int] = {}
        self.sheds = 0
        self.payments = 0.0
        self.breaker_trips = 0
        self.crashes = 0
        self.recoveries = 0
        self.drained = False
        self.last_time = 0.0
        self.events_seen = 0

    def _cell_of(self, x: float, y: float) -> str:
        return f"{math.floor(x / self.cell_km)},{math.floor(y / self.cell_km)}"

    @staticmethod
    def _evict(table: dict[str, dict]) -> None:
        while len(table) > _MAX_ENTITIES:
            table.pop(next(iter(table)))

    def apply(self, event: GatewayEvent) -> None:
        """Fold one event (safe to call with every kind, in any order)."""
        self.events_seen += 1
        self.last_time = max(self.last_time, event.time)
        kind = event.kind
        if kind == "worker":
            wire = event.fields["worker"]
            self.workers[wire["id"]] = {
                "platform": wire["platform"],
                "x": wire["x"],
                "y": wire["y"],
                "status": "idle",
            }
            self._evict(self.workers)
        elif kind in ("decision", "resolution"):
            status = str(event.fields.get("status"))
            self.decisions[status] = self.decisions.get(status, 0) + 1
            # A decision carries the arrival's wire entity (it *is* the
            # request's first appearance); a resolution refers back to an
            # earlier arrival by id.
            ref = event.fields.get("request")
            if isinstance(ref, dict):
                request_id = str(ref["id"])
                self.requests[request_id] = {
                    "platform": ref["platform"],
                    "x": ref["x"],
                    "y": ref["y"],
                    "status": status,
                }
                cell = self._cell_of(ref["x"], ref["y"])
                self.cells[cell] = self.cells.get(cell, 0) + 1
                self._evict(self.requests)
            else:
                request_id = str(ref)
                request = self.requests.get(request_id)
                if request is not None:
                    request["status"] = status
            worker_id = event.fields.get("worker")
            if worker_id is not None:
                worker = self.workers.get(str(worker_id))
                if worker is not None:
                    worker["status"] = "matched"
                self.matches.append(
                    {
                        "request": request_id,
                        "worker": worker_id,
                        "platform": event.fields.get("platform"),
                        "payment": event.fields.get("payment", 0.0),
                        "time": event.time,
                    }
                )
                self.payments += float(event.fields.get("payment", 0.0))
        elif kind == "shed":
            wire = event.fields["request"]
            self.sheds += 1
            self.requests[wire["id"]] = {
                "platform": wire["platform"],
                "x": wire["x"],
                "y": wire["y"],
                "status": "shed",
            }
            self._evict(self.requests)
        elif kind == "breaker":
            self.breaker_trips = max(
                self.breaker_trips, int(event.fields.get("trips", 0))
            )
        elif kind == "crash":
            self.crashes += 1
        elif kind == "recovered":
            self.recoveries += 1
        elif kind == "drain":
            self.drained = True

    def as_dict(self) -> dict:
        """JSON-ready world view (the ``/state`` body's ``world`` key)."""
        return {
            "cell_km": self.cell_km,
            "workers": dict(self.workers),
            "requests": dict(self.requests),
            "matches": list(self.matches),
            "cells": dict(self.cells),
            "decisions": dict(self.decisions),
            "sheds": self.sheds,
            "payments": self.payments,
            "breaker_trips": self.breaker_trips,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "drained": self.drained,
            "last_time": self.last_time,
            "events_seen": self.events_seen,
        }


def _http_response(
    status: str, content_type: str, body: bytes, extra: str = ""
) -> bytes:
    return (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Cache-Control: no-store\r\n"
        f"Access-Control-Allow-Origin: *\r\n"
        f"{extra}"
        f"Connection: close\r\n\r\n"
    ).encode() + body


class DashboardServer:
    """Serves the live dashboard for one gateway's event stream."""

    def __init__(
        self,
        gateway: MatchingGateway,
        events: EventLog | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cell_km: float = 1.0,
    ):
        if events is None:
            sink = gateway.events
            if not isinstance(sink, EventLog):
                raise ServiceError(
                    "DashboardServer needs an EventLog: attach one to the "
                    "gateway (events=...) or pass it explicitly"
                )
            events = sink
        self.gateway = gateway
        self.events = events
        self.host = host
        self.port = port
        self.state = LiveState(cell_km=cell_km)
        # Catch up from the ring, then observe live — both synchronous
        # and on the same task, so no event lands in between.
        for event in events.events():
            self.state.apply(event)
        events.add_observer(self.state.apply)
        self._server: asyncio.base_events.Server | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._server is None:
            raise ServiceError("dashboard not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind the HTTP listener; returns the bound address."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self.address

    async def stop(self) -> None:
        """Close the listener (open SSE streams end with their sockets)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Block serving until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # -- request handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionResetError,
        ):
            writer.close()
            return
        try:
            request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
            parts = request_line.split(" ")
            method, target = (parts + ["", ""])[:2]
            path = target.split("?", 1)[0]
            if len(head) > _MAX_HEAD_BYTES or method != "GET":
                writer.write(
                    _http_response(
                        "405 Method Not Allowed", "text/plain", b"GET only\n"
                    )
                )
            elif path == "/events":
                await self._serve_events(writer)
            else:
                writer.write(self._answer(path))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # browser tab closed mid-write
        finally:
            writer.close()

    def _answer(self, path: str) -> bytes:
        if path == "/" or path == "/index.html":
            from repro.service.dashboard_page import DASHBOARD_HTML

            return _http_response(
                "200 OK", "text/html; charset=utf-8", DASHBOARD_HTML.encode()
            )
        if path == "/state":
            body = json.dumps(
                {
                    "stats": strip_wall_clock_families(self.gateway.stats()),
                    "world": self.state.as_dict(),
                },
                sort_keys=True,
            ).encode()
            return _http_response("200 OK", "application/json", body)
        if path == "/metrics":
            body = json.dumps(
                self.gateway.registry.snapshot().as_dict(), sort_keys=True
            ).encode()
            return _http_response("200 OK", "application/json", body)
        return _http_response("404 Not Found", "text/plain", b"not found\n")

    async def _serve_events(self, writer: asyncio.StreamWriter) -> None:
        """One SSE subscriber: ring catch-up, then the live queue."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Access-Control-Allow-Origin: *\r\n"
            b"Connection: close\r\n\r\n"
        )
        queue = self.events.subscribe()
        last_seq = -1
        try:
            # Catch-up happens after subscribing, so an event emitted in
            # between lands in both — the seq guard drops the duplicate.
            for event in self.events.events():
                writer.write(_sse_frame(event))
                last_seq = event.seq
            await writer.drain()
            while True:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=_KEEPALIVE_S
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                if event.seq <= last_seq:
                    continue
                writer.write(_sse_frame(event))
                last_seq = event.seq
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # subscriber went away
        finally:
            self.events.unsubscribe(queue)


def _sse_frame(event: GatewayEvent) -> bytes:
    payload = json.dumps(event.as_dict(), sort_keys=True)
    return f"id: {event.seq}\ndata: {payload}\n\n".encode()
