"""Single-threaded load generator: one TCP connection, one ``select`` loop.

Why not asyncio: its epoll timeouts round up to whole milliseconds, which
made the generator itself 0.5-0.7 ms late at the median; ``select`` takes
microsecond timeouts and keeps the lateness near 0.1 ms.

The trace is sent in trace order.  Every request is a *send unit*
together with the worker arrivals that precede it, so the server sees
exactly the event order ``Simulator.run`` replays.  In an open loop the
k-th unit is due at ``t0 + k / rate``; latency runs from that due time to
the request's response line, so a stall counts against every request that
queued behind it.  Without a rate all units are due at ``t0`` (the
saturation push).  All lines are encoded before the clock starts.

A drive may be cut into segments of a fixed number of units.  At the end
of a segment the generator waits for every response, calls its ``pause``
hook (the benchmark calibrates the target's CPU there) and starts the
next segment on a fresh schedule, so timings never span a pause.
"""

from __future__ import annotations

import gc
import json
import select
import socket
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.core.events import EventKind
from repro.core.simulator import Scenario
from repro.service import request_to_wire, worker_to_wire

#: A drive that sees no response for this long gives up on the rest.
IDLE_TIMEOUT_S = 60.0
#: Head start between encoding and the first due time.
LEAD_NS = 20_000_000


@dataclass(frozen=True)
class Unit:
    """One send: a request line plus the worker lines riding with it."""

    data: bytes
    verbs: tuple[str, ...]
    request_id: str | None


@dataclass
class Drive:
    """What one drive measured, per unit, in ``perf_counter_ns``."""

    units: list[Unit]
    due_ns: list[int] = field(default_factory=list)
    sent_ns: list[int] = field(default_factory=list)
    recv_ns: list[int] = field(default_factory=list)
    #: Unit indices of each segment, in order.
    segments: list[range] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    drain: dict | None = None

    @property
    def requests(self) -> int:
        return sum(1 for unit in self.units if unit.request_id is not None)

    def latencies_ms(self, segment: range | None = None) -> list[float]:
        """Due time to response line, for every answered request (of one
        segment, or of the whole drive)."""
        return [
            (self.recv_ns[index] - self.due_ns[index]) / 1e6
            for index in (range(len(self.units)) if segment is None else segment)
            if self.units[index].request_id is not None and self.recv_ns[index]
        ]

    def lateness_ms(self) -> list[float]:
        """How late the generator released each unit."""
        return [(sent - due) / 1e6 for due, sent in zip(self.due_ns, self.sent_ns)]

    def elapsed_s(self, segment: range | None = None) -> float:
        """First due time to the last request's response line of a segment
        (0 for a segment of workers only); for the whole drive, the sum over
        its segments."""
        if segment is None:
            return sum(self.elapsed_s(part) for part in self.segments)
        stamps = [self.recv_ns[index] for index in segment if self.units[index].request_id is not None]
        return (max(stamps) - self.due_ns[segment.start]) / 1e9 if stamps else 0.0

    def records(self) -> list[dict]:
        """Per-request due/sent/received records, for joining with spans."""
        return [
            {"id": unit.request_id, "due_ns": due, "sent_ns": sent, "recv_ns": recv}
            for unit, due, sent, recv in zip(self.units, self.due_ns, self.sent_ns, self.recv_ns)
            if unit.request_id is not None
        ]


def _line(verb: str, **fields: object) -> bytes:
    return json.dumps({"verb": verb, **fields}, sort_keys=True).encode() + b"\n"


def encode_trace(scenario: Scenario) -> list[Unit]:
    """Pre-encode the trace as send units (trailing workers form the last)."""
    units: list[Unit] = []
    pending: list[bytes] = []
    for event in scenario.events:
        if event.kind is EventKind.WORKER:
            pending.append(_line("worker", worker=worker_to_wire(event.worker)))
            continue
        request = event.request
        pending.append(_line("request", request=request_to_wire(request)))
        units.append(Unit(b"".join(pending), ("worker",) * (len(pending) - 1) + ("request",), request.request_id))
        pending = []
    if pending:
        units.append(Unit(b"".join(pending), ("worker",) * len(pending), None))
    return units


def _check(line: bytes, verb: str, unit: Unit) -> str | None:
    """Why a response line is a failure, or None when it is a good answer."""
    try:
        response = json.loads(line)
    except json.JSONDecodeError:
        return f"unparseable response to {verb}"
    if response.get("ok") is not True or response.get("verb") != verb:
        return f"{verb} failed: {response.get('error')}"
    if verb == "request":
        outcome = response.get("outcome") or {}
        if outcome.get("request_id") != unit.request_id:
            return f"response for {outcome.get('request_id')} where {unit.request_id} was due"
        if outcome.get("status") == "shed":
            return f"request {unit.request_id} shed"
    return None


def drive(
    port: int,
    units: list[Unit],
    rate: float | None,
    segment: int | None = None,
    pause: Callable[[], None] | None = None,
    host: str = "127.0.0.1",
) -> Drive:
    """Send ``units`` (open loop at ``rate``, or back-to-back) in segments
    of ``segment`` units (default: one segment), then drain.

    The collector is off for the whole drive, so a full collection over
    the trace this process holds cannot pause the generator mid-drive.
    """
    gc.collect()
    gc.disable()
    try:
        return _drive(port, units, rate, segment or len(units), pause, host)
    finally:
        gc.enable()


def _drive(
    port: int, units: list[Unit], rate: float | None, segment: int, pause: Callable[[], None] | None, host: str
) -> Drive:
    result = Drive(units)
    total = len(units)
    result.due_ns = [0] * total
    result.sent_ns = [0] * total
    result.recv_ns = [0] * total
    result.segments = [range(first, min(first + segment, total)) for first in range(0, total, segment)]
    period = 1e9 / rate if rate else 0.0
    expected: deque[tuple[str, int]] = deque()
    answers: list[tuple[bytes, str, int]] = []
    outgoing = bytearray()
    incoming = b""
    remaining = 0
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        for number, part in enumerate(result.segments):
            if number and pause is not None:
                pause()
            start = perf_counter_ns() + LEAD_NS
            for index in part:
                result.due_ns[index] = start + int((index - part.start) * period)
            remaining = sum(len(units[index].verbs) for index in part)
            released = part.start
            last_progress = perf_counter_ns()
            while remaining:
                now = perf_counter_ns()
                while released < part.stop and result.due_ns[released] <= now:
                    unit = units[released]
                    outgoing += unit.data
                    result.sent_ns[released] = now
                    expected.extend((verb, released) for verb in unit.verbs)
                    released += 1
                if released < part.stop:
                    timeout = max(0.0, (result.due_ns[released] - perf_counter_ns()) / 1e9)
                else:
                    timeout = IDLE_TIMEOUT_S
                readable, writable, _ = select.select([sock], [sock] if outgoing else [], [], timeout)
                if writable:
                    del outgoing[: sock.send(outgoing)]
                if readable:
                    chunk = sock.recv(1 << 20)
                    stamp = perf_counter_ns()
                    if not chunk:
                        result.failures.append("server closed the connection")
                        break
                    last_progress = stamp
                    *lines, incoming = (incoming + chunk).split(b"\n")
                    for line in lines:
                        verb, index = expected.popleft()
                        answers.append((line, verb, index))
                        if verb == "request":
                            result.recv_ns[index] = stamp
                    remaining -= len(lines)
                elif expected and perf_counter_ns() - last_progress > IDLE_TIMEOUT_S * 1e9:
                    result.failures.append("no response within the idle timeout")
                    break
            if remaining:
                break
        # Responses are checked after the clock stops: parsing a burst of
        # them inside the loop would make the generator late.
        for line, verb, index in answers:
            failure = _check(line, verb, units[index])
            if failure is not None:
                result.failures.append(failure)
        missing = sum(len(unit.verbs) for unit in units) - len(answers)
        if missing:
            result.failures.extend(["missing response"] * missing)
            return result
        sock.setblocking(True)
        sock.settimeout(IDLE_TIMEOUT_S)
        sock.sendall(_line("drain"))
        reply = incoming
        while not reply.endswith(b"\n"):
            chunk = sock.recv(1 << 20)
            if not chunk:
                break
            reply += chunk
    try:
        response = json.loads(reply)
    except json.JSONDecodeError:
        response = {}
    if response.get("ok") is True:
        result.drain = response["metrics"]
    else:
        result.failures.append(f"drain failed: {response.get('error', 'no reply')}")
    return result
