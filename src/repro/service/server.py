"""JSONL-over-TCP transport for the matching gateway.

The wire protocol is deliberately primitive — one JSON object per line in
each direction, stdlib-only on both ends, trivially driven from ``nc`` or
any language:

Request lines carry a ``verb`` plus verb-specific fields; every response
line carries ``"ok"`` (boolean), the echoed ``verb``, and either the
result fields or an ``"error"`` string.  Verbs (see docs/SERVICE.md for
the full schema):

``ping``
    Liveness check; echoes the server's clock reading.
``request``
    Submit one request ``{"verb": "request", "request": {"id", "platform",
    "x", "y", "value"[, "t"]}}``; omitted ``t`` is stamped with the
    gateway clock (live mode).  Answers the request's
    :class:`~repro.service.gateway.ServiceOutcome`.
``worker``
    Submit one worker arrival (same shape, with ``radius`` and optional
    ``shareable`` / ``departure``).
``shed``
    Re-apply a recorded shed decision (replay path; bypasses admission —
    used by ``com-repro replay --log FILE --tcp``).
``outcome``
    Query a previously submitted request's outcome (deferred requests
    resolve asynchronously on batch flushes).
``stats``
    The gateway's live statistics: queue depth, shed counters, decision
    counts, latency histogram (see docs/OBSERVABILITY.md).
``snapshot``
    Checkpoint matching state to a server-side path.
``drain``
    End of stream: flush, finalize, and answer the run's full metric row
    — the dict that is byte-identical to the batch simulator's under the
    virtual clock.

Entity ids must be unique per run (the engine enforces global uniqueness
of worker ids; requests are keyed by id in the outcome log).  Concurrent
connections interleave at whole-decision granularity through the
gateway's serialized queue.

**Pipelining.**  A client need not wait for an answer before sending
its next line.  The server reads ahead up to :data:`PIPELINE_WINDOW`
(64) unanswered lines per connection.  A ``request``, ``worker`` or
``shed`` line is dispatched the moment it is read, so its job enters the
decision queue in line order; every other line (``ping``, ``outcome``,
``stats``, ``snapshot``, ``drain``, unknown verbs, malformed JSON) is a
*barrier*, dispatched only once every earlier line has been answered.
Answers go out strictly in line order, consecutive ready answers joined
into one write.  What a client can observe on one connection is the
lock-step behaviour; only the timing changes — and the decision loop,
seeing a backlog, covers a window's records with one journal commit.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque

from repro.errors import InducedCrash, ReproError, ServiceError
from repro.obs.events import json_encoder
from repro.service.gateway import _GROUP_COMMIT_MAX, MatchingGateway
from repro.service.journal import _plain

# Entity codecs live in repro.service.wire (shared with the journal);
# re-exported here for backward compatibility.
from repro.service.wire import (
    request_from_wire,
    request_to_wire,
    worker_from_wire,
    worker_to_wire,
)

__all__ = [
    "MatchingServer",
    "DEFAULT_HOST",
    "PIPELINE_WINDOW",
    "encode_response",
    "request_to_wire",
    "request_from_wire",
    "worker_to_wire",
    "worker_from_wire",
]

DEFAULT_HOST = "127.0.0.1"

#: Unanswered lines one connection may have in flight.  Equal to the
#: gateway's group-commit cap, so a full window is covered by one journal
#: commit, and far below ``AdmissionPolicy.max_pending`` (1024), so a
#: single client never sheds its own requests.
PIPELINE_WINDOW = _GROUP_COMMIT_MAX

#: Verbs dispatched without waiting for earlier answers; every other
#: line is a barrier.  A tuple: a client's verb may be unhashable.
PIPELINED_VERBS = ("request", "worker", "shed")


_ENCODER = json_encoder(": ", ", ")
_ANSWER_KEYS = frozenset(("ok", "outcome", "verb"))
_OUTCOME_KEYS = frozenset(("latency_ms", "payment", "request_id", "status", "worker_id"))


def encode_response(response: dict) -> bytes:
    """Frame one JSONL protocol line — a response, or a request line for
    a raw client (shared with modules that must not serialize next to
    event-sink code themselves).  A ``request`` line's answer is written
    directly, in the encoder's bytes; other shapes, and values to escape
    or not finite, go to the encoder."""
    outcome = response.get("outcome")
    if (
        response.keys() == _ANSWER_KEYS
        and response["ok"] is True
        and response["verb"] == "request"
        and type(outcome) is dict
        and outcome.keys() == _OUTCOME_KEYS
    ):
        latency, payment = outcome["latency_ms"], outcome["payment"]
        request_id, status = outcome["request_id"], outcome["status"]
        worker = outcome["worker_id"]
        if (
            type(latency) is type(payment) is float
            and math.isfinite(latency + payment)  # inf and nan propagate
            and type(request_id) is type(status) is str
            and (worker is None or type(worker) is str)
            and _plain(f"{request_id}{status}{worker or ''}")
        ):
            worker = "null" if worker is None else f'"{worker}"'
            return (
                f'{{"ok": true, "outcome": {{"latency_ms": {latency!r}, '
                f'"payment": {payment!r}, "request_id": "{request_id}", '
                f'"status": "{status}", "worker_id": {worker}}}, '
                f'"verb": "request"}}\n'
            ).encode()
    return "".join(_ENCODER(response, 0)).encode() + b"\n"


#: Verb slot of a line that is not a JSON object; its "payload" is the
#: error answer.
_MALFORMED = object()


def _parse(line: bytes) -> tuple[object, dict]:
    """A line's verb and payload (see :data:`_MALFORMED`)."""
    try:
        payload = json.loads(line)
    except ValueError as error:  # JSONDecodeError or UnicodeDecodeError
        problem = f"bad JSON: {error}"
    else:
        if isinstance(payload, dict):
            return payload.get("verb"), payload
        problem = "payload must be an object"
    return _MALFORMED, {"ok": False, "verb": None, "error": problem}


class _Responder:
    """Writes one connection's pipelined answers strictly in line order.

    Every dispatched line pushes its answer future; only the oldest has
    a done callback, which writes the ready prefix in one ``write``.  A
    failed or cancelled answer (a kill point fired, or the loop is
    shutting down) silences the connection for good: a dead process
    answers nothing further.
    """

    __slots__ = ("_writer", "_pending", "_waiter", "_silent")

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._pending: deque[asyncio.Future] = deque()
        self._waiter: asyncio.Future | None = None
        self._silent = False

    def push(self, answer: asyncio.Future) -> None:
        if not self._pending:
            answer.add_done_callback(self._flush)
        self._pending.append(answer)

    async def below(self, depth: int) -> None:
        """Return once fewer than ``depth`` answers are outstanding."""
        while len(self._pending) >= depth:
            self._waiter = asyncio.get_running_loop().create_future()
            await self._waiter

    def _flush(self, _: asyncio.Future) -> None:
        pending = self._pending
        chunks: list[bytes] = []
        while pending and pending[0].done():
            answer = pending.popleft()
            if answer.cancelled() or answer.exception() is not None:
                self._silent = True
            elif not self._silent:
                chunks.append(encode_response(answer.result()))
        if pending:
            pending[0].add_done_callback(self._flush)
        if chunks and not self._silent and not self._writer.is_closing():
            self._writer.write(b"".join(chunks))
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)


# -- the server --------------------------------------------------------------


class MatchingServer:
    """Serves a :class:`MatchingGateway` over JSONL/TCP, pipelined."""

    def __init__(
        self,
        gateway: MatchingGateway,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ):
        self.host = host
        self.port = port
        self.gateway = gateway
        self._server: asyncio.base_events.Server | None = None
        #: Open connections and the tasks serving them.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        # Fail-stop plumbing: when the gateway dies (induced kill point or
        # real engine failure), drop every connection and the listener so
        # clients observe exactly what a killed process looks like — EOF
        # mid-call, connection refused afterwards.
        gateway.on_crash = self._on_gateway_crash

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._server is None:
            raise ServiceError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Start the gateway and the listener; returns the bound address.

        ``port=0`` (the default) binds an ephemeral port — read it back
        from the return value.
        """
        await self.gateway.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self.address

    async def stop(self) -> None:
        """Close the listener, drop every connection and wait for their
        handlers (so none is left to be cancelled mid-read), then stop
        the gateway."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        handlers = list(self._connections.values())
        for writer in list(self._connections):
            writer.transport.abort()
        await asyncio.gather(*handlers, return_exceptions=True)
        await self.gateway.stop()

    def _on_gateway_crash(self, error: BaseException) -> None:
        """Tear the transport down like the process died (sync, in-loop)."""
        if self._server is not None:
            self._server.close()
            self._server = None
        for writer in list(self._connections):
            writer.transport.abort()
        self._connections.clear()

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[writer] = task
        try:
            await self._serve_pipelined(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-write; nothing to answer
        except InducedCrash:
            # The kill point fired inside this call: die without answering
            # (the crash teardown already aborted the transport).
            pass
        finally:
            self._connections.pop(writer, None)
            writer.close()

    async def _serve_pipelined(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        responder = _Responder(writer)
        transport = writer.transport
        while line := await reader.readline():
            verb, payload = _parse(line)
            if verb in PIPELINED_VERBS:
                if len(responder._pending) >= PIPELINE_WINDOW:
                    await responder.below(PIPELINE_WINDOW)
                # The task runs its submit up to the enqueue before any
                # later line's task starts (tasks start in creation order
                # and the gateway enqueues synchronously), so jobs reach
                # the decision queue in line order.
                responder.push(
                    asyncio.create_task(self._answer(verb, payload))
                )
            else:
                await responder.below(1)
                response = await self._answer(verb, payload)
                writer.write(encode_response(response))
            # Only a backed-up or closing transport has a drain to wait for.
            if transport.get_write_buffer_size() or transport.is_closing():
                await writer.drain()
        # End of input (possibly a half-close): answer what was read.
        await responder.below(1)

    async def _answer(self, verb: object, payload: dict) -> dict:
        if verb is _MALFORMED:
            return payload
        try:
            return await self._dispatch(verb, payload)
        except InducedCrash:
            # A dead process cannot answer: never downgrade a kill point
            # to an error answer.
            raise
        except (ReproError, ValueError, TypeError) as error:
            return {"ok": False, "verb": verb, "error": str(error)}

    async def _dispatch(self, verb: object, payload: dict) -> dict:
        gateway = self.gateway
        if verb == "ping":
            return {
                "ok": True,
                "verb": "ping",
                "clock": gateway.clock.now(),
                "virtual": gateway.clock.virtual,
            }
        if verb == "request":
            request = request_from_wire(
                payload.get("request") or {}, gateway.clock.now()
            )
            if gateway.clock.virtual:
                gateway.clock.advance_to(request.arrival_time)  # type: ignore[attr-defined]
            outcome = await gateway.submit_request(request)
            return {"ok": True, "verb": "request", "outcome": outcome.as_dict()}
        if verb == "worker":
            worker = worker_from_wire(
                payload.get("worker") or {}, gateway.clock.now()
            )
            if gateway.clock.virtual:
                gateway.clock.advance_to(worker.arrival_time)  # type: ignore[attr-defined]
            await gateway.submit_worker(worker)
            return {"ok": True, "verb": "worker", "worker_id": worker.worker_id}
        if verb == "shed":
            # Replay path only: re-apply a recorded shed decision from a
            # COMEVT1 stream without consulting this process's admission
            # state (repro.service.replay drives this for --tcp verifies).
            request = request_from_wire(
                payload.get("request") or {}, gateway.clock.now()
            )
            if gateway.clock.virtual:
                gateway.clock.advance_to(request.arrival_time)  # type: ignore[attr-defined]
            outcome = await gateway.replay_shed(request)
            return {"ok": True, "verb": "shed", "outcome": outcome.as_dict()}
        if verb == "outcome":
            request_id = str(payload.get("request_id", ""))
            outcome = gateway.outcome_of(request_id)
            return {
                "ok": True,
                "verb": "outcome",
                "request_id": request_id,
                "outcome": outcome.as_dict() if outcome is not None else None,
            }
        if verb == "stats":
            return {"ok": True, "verb": "stats", "stats": gateway.stats()}
        if verb == "snapshot":
            path = payload.get("path")
            if not path:
                raise ServiceError("snapshot verb needs a 'path' field")
            saved = await gateway.snapshot(str(path))
            return {"ok": True, "verb": "snapshot", "path": str(saved)}
        if verb == "drain":
            await gateway.drain()
            return {
                "ok": True,
                "verb": "drain",
                "metrics": gateway.metrics_dict(),
            }
        return {"ok": False, "verb": verb, "error": f"unknown verb {verb!r}"}
