"""The ``COMEVT1`` gateway event log: live ops telemetry that replays.

One append-only stream records everything a running
:class:`~repro.service.gateway.MatchingGateway` does — arrivals,
decisions with payment and platform attribution, shed requests, breaker
trips, crash/recovery markers, periodic metrics snapshots.  The stream
serves two masters at once:

* **live ops** — the dashboard (:mod:`repro.service.dashboard`) tails it
  over SSE and renders the map/heatmap/panel view;
* **replay** — the *canonical* subset of the stream is a complete,
  deterministic record of the run's inputs and outputs.  Re-driving the
  recorded arrivals through a fresh engine regenerates the canonical
  stream **byte-identically** (``com-repro replay --log FILE --verify``),
  which unifies the event log with the journal/trace/replay machinery.

Event taxonomy:

* :data:`CANONICAL_KINDS` (``meta`` / ``worker`` / ``decision`` /
  ``resolution`` / ``shed`` / ``drain``) — a pure function of the trace;
  these survive the canonical projection.  A ``decision`` event carries
  the full request wire entity alongside the outcome, so one event per
  request records both the arrival and what the engine did with it.
* :data:`OPS_KINDS` (``breaker`` / ``metrics`` / ``crash`` /
  ``recovered``) — operational annotations (wall-clock values, failure
  markers); stripped by :func:`canonical_projection`, which is what
  "byte-identical modulo crash markers" means.

Every record is one JSON object encoded by :func:`encode_canonical`
(sorted keys, compact separators) with a ``kind`` / ``seq`` / ``time``
envelope; the projection drops ``seq`` (a process-local counter that
restarts mid-stream numbering never disturbs) and any ``wall`` field
(reserved for wall-clock payloads).

On disk the stream is a :class:`RecordFile` — the one framed format the
event log and the ``COMWAL1`` journal (:mod:`repro.service.journal`)
share: a magic header, then CRC32-framed records.  A torn final frame is truncated on :meth:`EventLog.resume`;
corruption anywhere earlier raises :class:`~repro.errors.EventLogError`.

The write path mirrors the :class:`~repro.obs.probe.Probe` seam:
:class:`EventSink` is the no-op default (a couple of ``enabled`` flag
reads per decision — budgeted like the probe's disabled path), and
:class:`EventLog` is the live implementation with an in-memory ring for
SSE catch-up, bounded per-subscriber queues that drop (and count) on
backpressure, and counters mirrored into a
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import struct
import time
import zlib
from _json import make_encoder
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO

from repro.errors import EventLogError, ReproError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_FORMAT",
    "EVENT_MAGIC",
    "CANONICAL_KINDS",
    "OPS_KINDS",
    "EventSink",
    "NULL_EVENT_SINK",
    "EventLog",
    "GatewayEvent",
    "RecordFile",
    "canonical_projection",
    "encode_canonical",
    "read_events",
    "row_digest",
    "scan_records",
]

#: Schema tag carried by every stream's ``meta`` event.
EVENT_SCHEMA = "COMEVT1"
#: Bumped on incompatible envelope or file changes (2: framed records;
#: format 1 was line-delimited JSON and is refused).
EVENT_FORMAT = 2
#: File header of an event-log file.
EVENT_MAGIC = b"COMEVT1\n"

#: Kinds that are a deterministic function of the trace — the replayable
#: record.  :func:`canonical_projection` keeps exactly these.
CANONICAL_KINDS = frozenset(
    {"meta", "worker", "decision", "resolution", "shed", "drain"}
)
#: Operational kinds (wall-clock content, failure markers); informative
#: for dashboards, excluded from byte-identity comparisons.
OPS_KINDS = frozenset({"breaker", "metrics", "crash", "recovered"})

#: Envelope keys owned by the log itself; ``emit`` fields must not collide.
_ENVELOPE_KEYS = frozenset({"kind", "seq", "time"})


def json_encoder(key_separator: str, item_separator: str) -> make_encoder:
    """The C encoder ``json.dumps(..., sort_keys=True)`` builds per call,
    built once: ``"".join(encoder(payload, 0))`` is ``json.dumps``'s text.
    With no circular-reference markers, a cycle raises ``RecursionError``."""
    return make_encoder(
        markers=None, default=json.JSONEncoder().default, encoder=encode_basestring_ascii,
        indent=None, key_separator=key_separator, item_separator=item_separator,
        sort_keys=True, skipkeys=False, allow_nan=True,
    )


_CANONICAL_ENCODER = json_encoder(":", ",")


def encode_canonical(payload: object) -> bytes:
    """The one true event/row encoding: sorted keys, compact separators.

    Every byte-identity comparison in the event-log machinery (stream
    projections, metric-row digests) goes through this single encoder so
    there is exactly one way to serialise a record.
    """
    return "".join(_CANONICAL_ENCODER(payload, 0)).encode()


def row_digest(row: dict) -> str:
    """SHA-256 hex digest of a metric row's canonical encoding.

    The ``drain`` event carries this, which makes a recorded stream
    self-verifying: replay recomputes the digest from its own drained
    row, and the canonical byte comparison then covers the metrics too.
    """
    return hashlib.sha256(encode_canonical(row)).hexdigest()


@dataclass(frozen=True, slots=True)
class GatewayEvent:
    """One decoded event: the envelope plus its kind-specific fields."""

    seq: int
    kind: str
    time: float
    fields: dict

    def as_dict(self) -> dict:
        """The full JSON-ready record (what the file line holds)."""
        payload = {"kind": self.kind, "seq": self.seq, "time": self.time}
        payload.update(self.fields)
        return payload

    def canonical_dict(self) -> dict:
        """The record minus ``seq`` and any ``wall`` payload.

        ``seq`` is process-local (a recovered process resumes numbering,
        a replay restarts it); ``wall`` is reserved for wall-clock
        observations.  Neither may disturb byte-identity.
        """
        payload = {"kind": self.kind, "time": self.time}
        for key, value in self.fields.items():
            if key != "wall":
                payload[key] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "GatewayEvent":
        """Decode one record; raises :class:`EventLogError` if malformed."""
        try:
            seq = int(payload["seq"])
            kind = str(payload["kind"])
            at = float(payload["time"])
        except (KeyError, TypeError, ValueError) as error:
            raise EventLogError(
                f"event record missing or malformed envelope: {payload!r}"
            ) from error
        fields = {
            key: value
            for key, value in payload.items()
            if key not in _ENVELOPE_KEYS
        }
        return cls(seq=seq, kind=kind, time=at, fields=fields)


def canonical_projection(events: Iterable[GatewayEvent]) -> bytes:
    """The replay-comparable bytes of a stream.

    Keeps :data:`CANONICAL_KINDS` only, drops ``seq``/``wall``, encodes
    each record with :func:`encode_canonical`, one per line.  Two runs
    of the same trace — live vs replayed, crashed-and-recovered vs
    uninterrupted — must produce equal projections.
    """
    lines = [
        encode_canonical(event.canonical_dict())
        for event in events
        if event.kind in CANONICAL_KINDS
    ]
    if not lines:
        return b""
    return b"\n".join(lines) + b"\n"


_FRAME = struct.Struct(">II")


def scan_records(
    path: Path, magic: bytes, error: type[ReproError]
) -> tuple[list[GatewayEvent], int]:
    """Decode a :class:`RecordFile`; returns (records, intact byte length).

    Only the final frame may be torn (left out of the intact length); a
    missing header, an earlier CRC failure, an undecodable record or a
    gap in ``seq`` raises ``error``.  Payloads are ASCII JSON, so a byte
    below 0x20 after a damaged frame's header (the zero high byte of a
    next frame's length) proves the frame is not the last.
    """
    blob = path.read_bytes()
    if not blob.startswith(magic):
        if blob[:1] == b"{":
            raise error(
                f"{path}: line-delimited JSON is the COMEVT1 format-1 "
                f"layout; this build reads only framed records (format "
                f"{EVENT_FORMAT})"
            )
        raise error(
            f"{path}: not a {magic.decode().strip()} journal or event log"
        )
    records: list[GatewayEvent] = []
    offset = len(magic)
    while offset + _FRAME.size <= len(blob):
        length, checksum = _FRAME.unpack_from(blob, offset)
        body = offset + _FRAME.size
        payload = blob[body:body + length]
        if zlib.crc32(payload) != checksum or body + length > len(blob):
            tail = blob[body:]
            if body + length >= len(blob) and min(tail, default=32) >= 32:
                break  # torn tail: the last frame, partly written
            raise error(
                f"{path}: record at byte {offset} failed its CRC32 and is "
                f"not the last frame — mid-file corruption, not a torn tail"
            )
        try:
            record = GatewayEvent.from_dict(json.loads(payload))
        except (ValueError, EventLogError) as problem:
            raise error(f"{path}: record at byte {offset}: {problem}") from None
        if record.seq != len(records):
            raise error(
                f"{path}: record at byte {offset} has seq {record.seq}, "
                f"expected {len(records)} (the log is not contiguous)"
            )
        records.append(record)
        offset = body + length
    return records, offset


def read_events(path: str | Path) -> list[GatewayEvent]:
    """Read a recorded ``COMEVT1`` stream (a torn final frame tolerated)."""
    return scan_records(Path(path), EVENT_MAGIC, EventLogError)[0]


class RecordFile:
    """The one on-disk log format, shared by the event log and the
    journal: a ``magic`` header, then per record a big-endian ``u32``
    length and CRC32 and the payload, one event in
    :func:`encode_canonical` form with ``seq`` contiguous from 0.

    :meth:`append` buffers a frame and :meth:`commit` writes the buffer
    in one OS call; :func:`scan_records` reads the file back.  ``error``
    is the owning log's exception class.
    """

    __slots__ = ("path", "file", "error", "next_seq", "torn_bytes_dropped", "_buffer")

    def __init__(
        self,
        path: str | Path,
        file: IO[bytes],
        error: type[ReproError],
        next_seq: int = 0,
        torn_bytes_dropped: int = 0,
    ):
        self.path = Path(path)
        self.file = file
        self.error = error
        #: The ``seq`` the next appended record carries.
        self.next_seq = next_seq
        #: Bytes of torn tail :meth:`open` truncated (0 = clean tail).
        self.torn_bytes_dropped = torn_bytes_dropped
        self._buffer = bytearray()

    @classmethod
    def create(
        cls, path: str | Path, magic: bytes, error: type[ReproError]
    ) -> "RecordFile":
        """Start an empty file, its header flushed at once."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        file = Path(path).open("wb")
        file.write(magic)
        file.flush()
        return cls(path, file, error)

    @classmethod
    def open(
        cls, path: str | Path, magic: bytes, error: type[ReproError]
    ) -> tuple["RecordFile", list[GatewayEvent]]:
        """Reopen after a crash: truncate a torn final frame and return
        the records; appends continue after the last intact one."""
        records, intact = scan_records(Path(path), magic, error)
        file = Path(path).open("r+b")
        torn = file.seek(0, os.SEEK_END) - intact
        file.truncate(intact)
        file.seek(intact)
        return cls(path, file, error, len(records), torn), records

    def append(self, payload: bytes) -> None:
        """Frame and buffer one encoded record."""
        if self.file.closed:
            raise self.error(f"{self.path}: the log is closed")
        self._buffer += _FRAME.pack(len(payload), zlib.crc32(payload))
        self._buffer += payload
        self.next_seq += 1

    def commit(self) -> bool:
        """Write the buffered frames and flush them to the OS; ``False``
        when nothing was buffered."""
        if not self._buffer:
            return False
        self.file.write(self._buffer)
        self.file.flush()
        self._buffer.clear()
        return True

    def tear(self, payload: bytes) -> None:
        """Write the buffer plus half of ``payload``'s frame: the torn
        tail a crash mid-write leaves (a journal kill point)."""
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self._buffer += frame[: max(1, len(frame) // 2)]
        self.commit()

    def close(self) -> None:
        """Commit anything buffered and close the file (idempotent)."""
        if not self.file.closed:
            self.commit()
            self.file.close()


class EventSink:
    """The no-op default sink — the event-log analogue of ``NULL_PROBE``.

    Decision-path code guards every emission with ``sink.enabled``, so a
    gateway without an event log pays only attribute reads (budgeted at
    <= 5% of mean decision latency by the service benchmark's
    ``event_overhead.disabled`` gate).
    """

    __slots__ = ()

    enabled: bool = False

    def emit(self, kind: str, at: float, **fields: object) -> None:
        """Record one event (no-op here)."""
        return None

    def flush(self) -> None:
        """Push buffered bytes to the OS (no-op here)."""
        return None

    def close(self) -> None:
        """Flush and release the underlying file (no-op here)."""
        return None


#: Shared no-op sink; safe to share because it holds no state.
NULL_EVENT_SINK = EventSink()

#: Deferred file writes are encoded in batches of this many events.
_WRITE_BATCH = 256


class EventLog(EventSink):
    """The live sink: record file + in-memory ring + SSE subscriptions.

    ``path=None`` keeps the stream purely in memory (dashboard without
    persistence, golden runs in tests); ``ring=0`` makes the in-memory
    ring unbounded (needed when the ring *is* the record).  Subscriber
    queues are bounded: a slow consumer loses events (counted in
    :attr:`dropped` and ``service_events_dropped_total``) instead of
    stalling the decision loop — SSE clients resynchronise from the ring
    by ``seq``.
    """

    __slots__ = (
        "path",
        "next_seq",
        "emitted",
        "dropped",
        "guard",
        "_file",
        "_pending",
        "_ring",
        "_registry",
        "_counter",
        "_subscribers",
        "_observers",
        "_queue_limit",
        "_epoch",
        "_closed",
        "_write_scheduled",
    )

    enabled = True

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        registry: MetricsRegistry | None = None,
        ring: int = 4096,
        queue_limit: int = 1024,
    ):
        self.path = Path(path) if path is not None else None
        self.next_seq = 0
        #: Events emitted by this process (``next_seq`` counts the whole
        #: file after a resume; this counts our own lifetime only).
        self.emitted = 0
        #: Events dropped on subscriber backpressure.
        self.dropped = 0
        self._file: RecordFile | None = None
        if self.path is not None:
            self._file = RecordFile.create(self.path, EVENT_MAGIC, EventLogError)
        #: Write-behind buffer: events whose JSON encoding is deferred off
        #: the decision path until a batch boundary or :meth:`flush`.
        self._pending: list[GatewayEvent] = []
        self._ring: deque[GatewayEvent] = (
            deque(maxlen=ring) if ring > 0 else deque()
        )
        self._registry = registry
        self._counter = (
            registry.counter("service_events_total")
            if registry is not None
            else None
        )
        self._subscribers: list[asyncio.Queue] = []
        self._observers: list[Callable[[GatewayEvent], None]] = []
        self._queue_limit = queue_limit
        self._epoch = time.monotonic()
        self._closed = False
        #: Optional concurrency-sanitizer guard over the ring/pending
        #: buffers (set by the gateway when the sanitizer is enabled).
        self.guard = None
        #: True while a deferred batch write is parked on the event loop.
        self._write_scheduled = False

    @classmethod
    def resume(
        cls,
        path: str | Path,
        *,
        registry: MetricsRegistry | None = None,
    ) -> "EventLog":
        """Reopen a stream a crashed process left behind.

        Scans the file, truncates a torn final frame, seeds the ring
        with the recorded tail, and continues ``seq`` numbering where
        the file left off — the recovered gateway appends to the same
        stream (:func:`canonical_projection` is what stays comparable
        across the crash, not raw bytes).
        """
        file, recorded = RecordFile.open(path, EVENT_MAGIC, EventLogError)
        log = cls(path=None, registry=registry)
        log.path, log._file, log.next_seq = file.path, file, file.next_seq
        log._ring.extend(recorded)
        return log

    # -- the write path ------------------------------------------------------

    def emit(self, kind: str, at: float, **fields: object) -> None:
        """Append one event and fan it out (file, ring, subscribers).

        Synchronous and yield-free, so a batch of emissions from one
        decision is atomic with respect to other asyncio tasks.  File
        encoding is write-behind: the event lands in :attr:`_pending`
        and is encoded and framed at the next batch boundary / :meth:`flush`,
        keeping the decision path's per-event cost to appends and
        counters (the ``event_overhead`` benchmark gate).
        """
        if self._closed:
            return
        if self.guard is not None:
            self.guard.check()
        if not _ENVELOPE_KEYS.isdisjoint(fields):
            raise EventLogError(
                f"event fields may not shadow the envelope: {sorted(_ENVELOPE_KEYS & fields.keys())}"
            )
        event = GatewayEvent(self.next_seq, kind, at, fields)
        self.next_seq += 1
        self.emitted += 1
        if self._file is not None:
            self._pending.append(event)
            if len(self._pending) >= _WRITE_BATCH and not self._write_scheduled:
                self._schedule_write()
        self._ring.append(event)
        if self._counter is not None:
            self._counter.inc(kind=kind)
        for queue in self._subscribers:
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                self.dropped += 1
                if self._registry is not None:
                    self._registry.counter(
                        "service_events_dropped_total"
                    ).inc(reason="slow_subscriber")
        if self._registry is not None and self._subscribers:
            self._registry.gauge("service_event_lag").set(self.lag)
        for observer in self._observers:
            observer(event)

    def _schedule_write(self) -> None:
        """Park the batch encode+write on the event loop, off the decision.

        ``call_soon`` runs :meth:`_drain_scheduled` after the current
        callback (the decision that filled the batch) completes, so the
        decision's ack is never behind a 256-event encode.  The
        callback runs on the same loop, so file bytes stay in emission
        order and byte-identical to the inline path.  Outside any event
        loop (tests writing streams synchronously) the batch is encoded
        inline, as before.
        """
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self._write_pending()
            return
        self._write_scheduled = True
        loop.call_soon(self._drain_scheduled)

    def _drain_scheduled(self) -> None:
        self._write_scheduled = False
        if not self._closed:
            self._write_pending()

    def _write_pending(self) -> None:
        """Encode, frame and write the deferred batch in emission order."""
        if self._file is None:
            return
        for event in self._pending:
            self._file.append(encode_canonical(event.as_dict()))
        self._pending.clear()
        self._file.commit()

    def flush(self) -> None:
        """Encode the pending batch and push its frames to the OS."""
        if not self._closed:
            self._write_pending()

    def close(self) -> None:
        """Flush and release the file; further emissions are dropped."""
        if self._closed:
            return
        self._write_pending()
        self._closed = True
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- the read path -------------------------------------------------------

    def events(self, since: int = -1) -> list[GatewayEvent]:
        """Ring contents with ``seq > since`` (SSE catch-up)."""
        return [event for event in self._ring if event.seq > since]

    def subscribe(self) -> asyncio.Queue:
        """A bounded live queue of every future event."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=self._queue_limit)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Detach a queue from :meth:`subscribe`."""
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    def add_observer(self, observer: Callable[[GatewayEvent], None]) -> None:
        """Register a synchronous per-event callback (dashboard state).

        Observers run inline on the emitting (decision-loop) task; they
        must be cheap and must not raise.
        """
        self._observers.append(observer)

    # -- observability of the observer ---------------------------------------

    @property
    def lag(self) -> int:
        """Deepest subscriber backlog (0 with no subscribers)."""
        return max(
            (queue.qsize() for queue in self._subscribers), default=0
        )

    @property
    def events_per_second(self) -> float:
        """This process's emission rate over its lifetime (wall clock)."""
        elapsed = time.monotonic() - self._epoch
        return self.emitted / elapsed if elapsed > 0 else 0.0

    def stats(self) -> dict:
        """JSON-ready health row (the gateway ``stats`` verb's section)."""
        return {
            "path": str(self.path) if self.path is not None else None,
            "next_seq": self.next_seq,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "subscribers": len(self._subscribers),
            "lag": self.lag,
            "events_per_second": self.events_per_second,
        }
