"""The matching gateway: COM decisions served from a long-running process.

:class:`MatchingGateway` hosts the cooperative platforms — one
:class:`~repro.core.simulator.SimulationSession` holding the shared
:class:`~repro.core.exchange.CooperationExchange`, one algorithm instance
per platform, and all incentive machinery — behind a **serialized decision
queue**: every submitted arrival is processed one at a time, in submission
order, by a single consumer task.  Serialization is what makes the live
service equal to the paper's model (requests are decided one by one,
workers are claimed atomically) and what makes a virtual-clock trace
replay byte-identical to :meth:`repro.core.simulator.Simulator.run`.
The loop dequeues and decides one job at a time; the journal's group
commit defers acknowledgements, never decisions.

Layers around the session:

* **admission** (:mod:`repro.service.admission`) — requests are shed with
  an immediate ``shed`` outcome while the queue is at capacity;
* **clock** (:mod:`repro.service.clock`) — live arrivals are stamped with
  :meth:`~repro.service.clock.ServiceClock.now`; replays carry recorded
  timestamps under the virtual clock;
* **instrumentation** — queue depth, shed counts, per-decision outcome
  counts and end-to-end latency flow into a :class:`repro.obs.
  MetricsRegistry`, surfaced via :meth:`stats` (the ``stats`` protocol
  verb);
* **durability** (:mod:`repro.service.journal` /
  :mod:`repro.service.snapshot`) — with a :class:`~repro.service.journal.
  JournalConfig`, every accepted operation is appended to the ``COMWAL1``
  write-ahead journal *before its acknowledgement leaves the process*,
  periodic ``COMSNAP1`` checkpoints rotate atomically, duplicate
  submissions (client retries after a crash) are answered from the
  outcome log instead of re-entering the engine, and
  :func:`~repro.service.recovery.recover_gateway` rebuilds the exact
  pre-crash state;
* **kill points** (:mod:`repro.faults.crash`) — a :class:`~repro.faults.
  CrashPlan` dies deterministically at journal/checkpoint/ack boundaries;
  the gateway fail-stops (the decision loop terminates, pending callers
  see the failure, :attr:`on_crash` fires so transports can drop
  connections like a killed process would);
* **events** (:mod:`repro.obs.events`) — with an attached
  :class:`~repro.obs.events.EventLog`, every arrival, decision,
  resolution and shed is emitted to the ``COMEVT1`` stream on the
  decision loop *after* its journal append, so events never outrun
  durability; the canonical projection of the stream replays
  byte-identically (``com-repro replay --log FILE --verify``) and the live
  dashboard (:mod:`repro.service.dashboard`) tails it over SSE.

The gateway is asyncio-native and transport-agnostic; the JSONL-over-TCP
server in :mod:`repro.service.server` is one transport over it.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.base import Decision, DecisionKind
from repro.core.entities import Request, Worker
from repro.core.registry import algorithm_factory
from repro.core.simulator import (
    Scenario,
    SimulationResult,
    SimulationSession,
    Simulator,
    SimulatorConfig,
)
from repro.errors import ConfigurationError, ServiceError
from repro.faults.crash import CrashInjector, CrashPlan
from repro.obs import MetricsRegistry
from repro.obs.events import (
    EVENT_FORMAT,
    EVENT_SCHEMA,
    NULL_EVENT_SINK,
    EventLog,
    EventSink,
    row_digest,
)
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.clock import ServiceClock, VirtualClock
from repro.service.journal import JOURNAL_FORMAT, Journal, JournalConfig
from repro.service.snapshot import EncodedScenario, read_snapshot, write_snapshot
from repro.service.wire import request_to_wire, worker_to_wire
from repro.utils.timer import Stopwatch

__all__ = ["ServiceOutcome", "MatchingGateway"]

#: Outcome statuses beyond the engine's decision kinds.
STATUS_DEFERRED = "deferred"
STATUS_SHED = "shed"

#: Job kinds whose acknowledgement waits on a journal commit.
_JOURNALED_KINDS = frozenset(("worker", "decision", "shed"))

#: Group-commit cap: release acks at least every this many journaled jobs
#: even while the queue stays non-empty, bounding both ack latency under
#: sustained load and the batch a single ``interval`` fsync covers.
_GROUP_COMMIT_MAX = 64

#: Emit a periodic ``metrics`` ops event every this many canonical events.
_METRICS_EVENT_EVERY = 256


@dataclass(frozen=True, slots=True)
class ServiceOutcome:
    """One request's answer as seen by a service client.

    ``status`` is a :class:`~repro.core.base.DecisionKind` value
    (``serve_inner`` / ``serve_outer`` / ``reject``), ``deferred`` (parked
    with a batching algorithm; the final status arrives asynchronously and
    is visible via the ``outcome`` verb), or ``shed`` (rejected by
    admission control without entering the matching engine).
    """

    request_id: str
    status: str
    worker_id: str | None = None
    payment: float = 0.0
    #: End-to-end service latency (submission to answer), milliseconds.
    #: 0.0 for asynchronously resolved (flushed) outcomes.
    latency_ms: float = 0.0

    def as_dict(self) -> dict:
        """JSON-ready representation (the wire format)."""
        return {
            "request_id": self.request_id,
            "status": self.status,
            "worker_id": self.worker_id,
            "payment": self.payment,
            "latency_ms": self.latency_ms,
        }

    def matches(self, other: "ServiceOutcome") -> bool:
        """Same decision, ignoring the measured service latency.

        Recovery verifies each replayed decision against its journaled
        outcome with this — latency is a wall-clock observation, not
        matching state, and legitimately differs between the original
        run and its replay.
        """
        return (
            self.request_id == other.request_id
            and self.status == other.status
            and self.worker_id == other.worker_id
            and self.payment == other.payment
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceOutcome":
        """Rebuild from :meth:`as_dict` output."""
        return cls(
            request_id=payload["request_id"],
            status=payload["status"],
            worker_id=payload.get("worker_id"),
            payment=payload.get("payment", 0.0),
            latency_ms=payload.get("latency_ms", 0.0),
        )


def _retrieve_exception(task: asyncio.Task) -> None:
    if not task.cancelled():
        task.exception()


def _to_wire(entity: Worker | Request) -> dict:
    if isinstance(entity, Worker):
        return worker_to_wire(entity)
    return request_to_wire(entity)


def _outcome_from_decision(request: Request, decision: Decision) -> ServiceOutcome:
    if decision.kind is DecisionKind.DEFER:
        return ServiceOutcome(request.request_id, STATUS_DEFERRED)
    return ServiceOutcome(
        request_id=request.request_id,
        status=decision.kind.value,
        worker_id=decision.worker.worker_id if decision.worker else None,
        payment=decision.payment,
    )


class MatchingGateway:
    """Hosts one COM deployment (scenario + algorithm) as a service."""

    def __init__(
        self,
        scenario: Scenario | None = None,
        algorithm: str = "ramcom",
        config: SimulatorConfig | None = None,
        clock: ServiceClock | None = None,
        admission: AdmissionPolicy | None = None,
        session: SimulationSession | None = None,
        journal: JournalConfig | str | Path | None = None,
        crash_plan: CrashPlan | None = None,
        events: EventSink | str | Path | None = None,
    ):
        if session is None:
            if scenario is None:
                raise ConfigurationError(
                    "MatchingGateway needs a scenario (or a restored session)"
                )
            session = Simulator(config or SimulatorConfig()).session(
                scenario, algorithm_factory(algorithm)
            )
        self._session = session  # comlint: loop-owned
        self.config = session.config
        self.scenario = session.scenario
        self.clock = clock or VirtualClock()
        self.admission = AdmissionController(admission)
        self.registry = MetricsRegistry()
        # Concurrency sanitizer (repro.analysis.concurrency): the session
        # carries the monitor (None on the measured disabled path) and
        # the gateway guards its own loop-owned structures through the
        # same instance.  getattr: sessions unpickled from pre-monitor
        # snapshots lack the attribute.
        self._monitor = getattr(session, "concurrency_monitor", None)
        if self._monitor is not None:
            self._monitor.attach_registry(self.registry)
        self.result: SimulationResult | None = None
        self._outcomes: dict[str, ServiceOutcome] = {}
        self._queue: asyncio.Queue | None = None
        self._loop_task: asyncio.Task | None = None
        self._request_index: dict[str, Request] | None = None
        self._worker_index: dict[str, Worker] | None = None
        self._crash = CrashInjector(crash_plan)
        #: Set to the fatal error when the gateway fail-stops.
        self.crash_error: BaseException | None = None
        #: Called once (with the fatal error) when the gateway fail-stops;
        #: transports use it to drop connections like a killed process.
        self.on_crash: Callable[[BaseException], None] | None = None
        self.journal_config: JournalConfig | None = None
        self._journal: Journal | None = None
        self._journaled_workers: set[str] = set()
        #: Job futures of journaled arrivals still on the queue, by id:
        #: a duplicate submitted before the first is applied (a pipelined
        #: client's retry) waits on the first instead of re-entering.
        self._inflight_workers: dict[str, asyncio.Future] = {}
        self._inflight_requests: dict[str, asyncio.Future] = {}
        self._last_checkpoint_seq = 0
        #: The scenario section of this gateway's checkpoints, encoded at
        #: the first one (the session never mutates its scenario).
        self._encoded_scenario: EncodedScenario | None = None
        # COMEVT1 event stream (repro.obs.events).  The sink is a
        # gateway-level concern, never session state: the session gets
        # pickled into COMSNAP1 checkpoints and must stay free of file
        # handles.  All emission is flag-guarded on ``enabled``, so the
        # default NULL_EVENT_SINK costs attribute reads only.
        self._events: EventSink = NULL_EVENT_SINK
        #: The log this gateway opened from a path (closed on stop); a
        #: caller-supplied sink stays open for its caller to reuse.
        self._owned_events: EventLog | None = None
        #: Resolution events buffered until the triggering arrival's
        #: journal append succeeds (exactly-once across crash retries).
        self._pending_resolution_events: list[tuple[float, dict]] = []  # comlint: loop-owned
        self._breaker_trips_seen: dict[str, int] = {}
        self._canonical_events = 0
        session.on_resolution = self._record_resolution
        if journal is not None:
            if not isinstance(journal, JournalConfig):
                journal = JournalConfig(directory=journal)
            self._bootstrap_journal(journal)
        if events is not None:
            if not isinstance(events, EventSink):
                events = self._owned_events = EventLog(
                    events, registry=self.registry
                )
            self.attach_events(events)

    @classmethod
    def from_snapshot(
        cls,
        path: str | Path,
        clock: ServiceClock | None = None,
        admission: AdmissionPolicy | None = None,
    ) -> "MatchingGateway":
        """Rebuild a gateway from a :meth:`snapshot` checkpoint."""
        session, outcomes, _meta = read_snapshot(path)
        return cls._restored(
            session, outcomes, clock=clock, admission=admission
        )

    @classmethod
    def _restored(
        cls, session: SimulationSession, outcomes: dict, **kwargs: Any
    ) -> "MatchingGateway":
        """A gateway over a restored session and its outcome log."""
        gateway = cls(session=session, **kwargs)
        gateway._outcomes = {
            request_id: ServiceOutcome.from_dict(payload)
            for request_id, payload in outcomes.items()
        }
        return gateway

    # -- durability ----------------------------------------------------------

    def _bootstrap_journal(self, config: JournalConfig) -> None:
        """Start a fresh journal: birth record + the anchoring checkpoint.

        The initial checkpoint makes recovery unconditional — every
        journal is paired with at least one ``COMSNAP1`` snapshot, so
        :func:`~repro.service.recovery.recover_gateway` never needs the
        original constructor arguments.
        """
        self.journal_config = config
        self._journal = Journal.create(
            config.journal_path,
            fsync=config.fsync,
            fsync_interval=config.fsync_interval,
            crash=self._crash if self._crash.active else None,
        )
        if self._monitor is not None:
            self._journal.guard = self._monitor.guard("journal-buffer")
        try:
            self._journal.append("meta", 0.0, **self._meta(JOURNAL_FORMAT))
            self._write_checkpoint()
        except BaseException:
            # The constructor raises, so no caller gets a gateway to stop.
            self._journal.close()
            raise

    def _attach_journal(
        self,
        config: JournalConfig,
        journal: Journal,
        journaled_workers: set[str],
        last_checkpoint_seq: int,
    ) -> None:
        """Adopt a recovered journal (used by :mod:`repro.service.recovery`)."""
        self.journal_config = config
        self._journal = journal
        self._journaled_workers = set(journaled_workers)
        self._last_checkpoint_seq = last_checkpoint_seq
        if self._monitor is not None:
            journal.guard = self._monitor.guard("journal-buffer")

    def _write_checkpoint(self) -> None:
        """Rotate the ``COMSNAP1`` checkpoint and mark it in the journal.

        The journal is committed first: the snapshot's ``journal_seq``
        asserts that every earlier record is durable, which buffered
        (group-commit) appends would otherwise violate.
        """
        assert self._journal is not None and self.journal_config is not None
        self._journal.commit()
        if self._crash.active:
            self._crash.fire("checkpoint")
        journal_seq = self._journal.next_seq
        self._snapshot_to(
            self.journal_config.checkpoint_path,
            meta={"journal_seq": journal_seq, "journal_format": JOURNAL_FORMAT},
            durable=self.journal_config.fsync == "always",
        )
        self._journal.append(
            "checkpoint", self._session.last_event_time, journal_seq=journal_seq
        )
        self._journal.commit()
        self._last_checkpoint_seq = journal_seq
        self.registry.counter("service_checkpoints_total").inc()

    def _snapshot_to(
        self, path: Path, meta: dict | None, durable: bool = False
    ) -> Path:
        """Write a ``COMSNAP1`` snapshot, encoding the scenario only once."""
        if self._encoded_scenario is None:
            self._encoded_scenario = EncodedScenario(self.scenario)
        return write_snapshot(
            self._session,
            self._outcome_log(),
            path,
            meta=meta,
            scenario=self._encoded_scenario,
            durable=durable,
        )

    def _maybe_checkpoint(self) -> None:
        assert self._journal is not None and self.journal_config is not None
        cadence = self.journal_config.checkpoint_every
        if cadence > 0 and (
            self._journal.next_seq - self._last_checkpoint_seq >= cadence
        ):
            self._write_checkpoint()

    def _outcome_log(self) -> dict[str, dict]:
        return {
            request_id: outcome.as_dict()
            for request_id, outcome in self._outcomes.items()
        }

    def _notify_crash(self, error: BaseException) -> None:
        """Fail-stop: record the fatal error and tear transports down.

        Idempotent.  The journal file is left as the crash left it (a
        torn tail stays torn for recovery to truncate; closing may flush
        records whose acks never went out, which is fine — the journal
        is allowed to run ahead of acknowledgements, never behind) —
        only the descriptor is released so recovery can reopen the file.
        """
        if self.crash_error is not None:
            return
        self.crash_error = error
        if self._journal is not None:
            self._journal.close()
        if self._events.enabled:
            # Ops-only crash marker: canonical projections stay identical
            # "modulo crash markers" across crash->recover cycles.
            self._events.emit(
                "crash",
                self._session.last_event_time,
                error=type(error).__name__,
            )
            self._events.close()
        if self._loop_task is not None:
            if not self._loop_task.done():
                self._loop_task.cancel()
            # The loop dies re-raising the fatal error; the caller already
            # received it through its future, so mark it retrieved.
            self._loop_task.add_done_callback(_retrieve_exception)
        if self.on_crash is not None:
            self.on_crash(error)

    # -- the COMEVT1 event stream --------------------------------------------
    # Canonical events (worker / decision / resolution / shed / drain) are
    # emitted on the decision loop, *after* the same record's journal
    # append succeeds (_record), so the stream never runs ahead of
    # durability: a kill point inside an append loses the record AND the
    # event together, and the retry after recovery regenerates both
    # exactly once.  Ops events (breaker / metrics / crash / recovered)
    # annotate the stream but are stripped by the canonical projection.

    @property
    def events(self) -> EventSink:
        """The attached event sink (:data:`NULL_EVENT_SINK` by default)."""
        return self._events

    def attach_events(self, sink: EventSink, recovered: bool = False) -> None:
        """Attach an event sink; a fresh stream opens with a ``meta`` event.

        ``recovered=True`` (used by :func:`repro.service.recovery.
        recover_gateway` with a resumed log) marks the reattachment with
        an ops ``recovered`` event instead — the stream continues where
        the crashed process left it.
        """
        self._events = sink
        if self._monitor is not None and isinstance(sink, EventLog):
            sink.guard = self._monitor.guard("event-ring")
        if not sink.enabled:
            return
        if recovered:
            sink.emit(
                "recovered",
                self._session.last_event_time,
                checkpoint_seq=self._last_checkpoint_seq,
            )
            return
        if not isinstance(sink, EventLog) or sink.next_seq == 0:
            sink.emit("meta", 0.0, **self._meta(EVENT_FORMAT))

    def _meta(self, format: int) -> dict:
        """The ``meta`` record both logs open with, in log ``format``."""
        return {
            "schema": EVENT_SCHEMA,
            "format": format,
            "algorithm": self._session.algorithm_name,
            "scenario": self.scenario.name,
            "platforms": list(self.scenario.platform_ids),
        }

    def _record(
        self,
        kind: str,
        at: float,
        entity: Worker | Request | None,
        **fields: Any,
    ) -> None:
        """The one emission point: journal one record, then emit it.

        ``entity`` (``None`` for a resolution) is journaled as a bare
        ``ref`` when it IS the scenario's object — the checkpoint holds the
        scenario.  A resolution's event waits for its triggering arrival's
        append (if a kill point eats that append, the copy recovery+retry
        regenerates must be the stream's only one), then precedes it.
        """
        journal = self._journal
        if entity is None:  # a resolution
            if journal is not None:
                journal.append(kind, at, **fields)
                if self._events.enabled:
                    self._pending_resolution_events.append((at, fields))
            elif self._events.enabled:
                self._emit_canonical(kind, at, **fields)
            return
        if isinstance(entity, Worker):
            key, ref = "worker", entity.worker_id
            interned = (self._worker_index or {}).get(ref) is entity
        else:
            key, ref = "request", entity.request_id
            interned = (self._request_index or {}).get(ref) is entity
        wire = _to_wire(entity) if self._events.enabled else None
        if journal is not None:
            if not interned:
                journal.append(
                    kind, at, **{key: wire or _to_wire(entity)}, **fields
                )
            elif kind == "worker":
                journal.append_worker_ref(ref, at)
            elif kind == "decision":
                journal.append_request_ref(ref, at, **fields)
            else:
                journal.append(kind, at, ref=ref, **fields)
        if wire is not None:
            self._flush_resolution_events()
            self._emit_canonical(kind, at, **{key: wire}, **fields)

    def _emit_canonical(self, kind: str, at: float, **fields: object) -> None:
        """Emit one canonical event plus the periodic metrics snapshot."""
        self._events.emit(kind, at, **fields)
        self._canonical_events += 1
        if self._canonical_events % _METRICS_EVENT_EVERY == 0:
            self._events.emit(
                "metrics",
                self._session.last_event_time,
                snapshot=self.registry.snapshot().as_dict(),
            )

    def _flush_resolution_events(self) -> None:
        """Emit resolutions buffered behind their arrival's journal append."""
        for at, fields in self._pending_resolution_events:
            self._emit_canonical("resolution", at, **fields)
        self._pending_resolution_events.clear()

    def _maybe_emit_breaker(self) -> None:
        """Diff cumulative breaker trips; emit an ops event per increase."""
        for platform_id, trips in self._session.breaker_trips().items():
            if trips > self._breaker_trips_seen.get(platform_id, 0):
                self._breaker_trips_seen[platform_id] = trips
                self._events.emit(
                    "breaker",
                    self._session.last_event_time,
                    platform=platform_id,
                    trips=trips,
                )

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the decision loop is consuming the queue."""
        return self._loop_task is not None and not self._loop_task.done()

    async def start(self) -> "MatchingGateway":
        """Start the decision loop (idempotent)."""
        if self.running:
            return self
        self._queue = asyncio.Queue()
        self._loop_task = asyncio.create_task(self._decision_loop())
        return self

    async def stop(self) -> None:
        """Stop the decision loop without finalizing the simulation."""
        if self._loop_task is None:
            return
        if not self._loop_task.done():
            assert self._queue is not None
            await self._queue.put(("stop", None, self._new_future()))
        await asyncio.gather(self._loop_task, return_exceptions=True)
        self._loop_task = None
        if self._journal is not None:
            self._journal.close()
        if self._owned_events is not None:
            self._owned_events.close()
        elif self._events.enabled:
            self._events.flush()

    def _new_future(self) -> asyncio.Future:
        return asyncio.get_running_loop().create_future()

    def _enqueue(self, kind: str, payload: object) -> asyncio.Future:
        """Put one job on the decision queue; returns its future.

        Synchronous on purpose: the queue is unbounded, so a job enters
        it the moment its submit call starts, before the caller first
        suspends.  Callers that start submissions in order (a pipelined
        connection, a window of tasks) therefore enqueue in that order —
        the ordering the byte-identical replay rests on.
        """
        assert self._queue is not None
        future = self._new_future()
        self._queue.put_nowait((kind, payload, future))
        return future

    def _ensure_running(self) -> None:
        if self.crash_error is not None:
            raise ServiceError("gateway crashed") from self.crash_error
        if self._loop_task is None:
            raise ServiceError("gateway not started; call start() first")
        if self._loop_task.done():
            error = self._loop_task.exception()
            if error is not None:
                raise ServiceError("gateway decision loop failed") from error
            raise ServiceError("gateway already stopped")

    # -- the serialized decision loop ---------------------------------------

    async def _decision_loop(self) -> None:
        assert self._queue is not None
        monitor = self._monitor
        if monitor is not None:
            # Claim every guarded structure for this task explicitly:
            # construction / recovery / event attachment may have run
            # inside some other task (first-touch would mis-claim), and
            # a restarted loop re-claims from its dead predecessor.
            monitor.guard("session").bind()
            monitor.guard("journal-buffer").bind()
            monitor.guard("event-ring").bind()
        # Journaled jobs whose acks await the next group commit.
        pending_acks: list[tuple[asyncio.Future, object]] = []
        try:
            while True:
                kind, payload, future = await self._queue.get()
                try:
                    if kind == "stop":
                        self._release_acks(pending_acks)
                        if not future.done():
                            future.set_result(None)
                        return
                    if pending_acks and kind not in _JOURNALED_KINDS:
                        # Control jobs (finalize / snapshot) must not
                        # overtake queued acknowledgements.
                        self._release_acks(pending_acks)
                    if monitor is None:
                        result = self._process(kind, payload)
                    else:
                        with monitor.measure_stall(kind):
                            result = self._process(kind, payload)
                    if self._journal is not None and kind in _JOURNALED_KINDS:
                        # Group commit: the ack waits until the journal
                        # flush that covers this batch.  A serialized
                        # caller (queue empty after every job) degrades to
                        # batch size one — commit-per-record, as before.
                        pending_acks.append((future, result))
                        if (
                            self._queue.empty()
                            or len(pending_acks) >= _GROUP_COMMIT_MAX
                        ):
                            self._release_acks(pending_acks)
                            self._maybe_checkpoint()
                    elif not future.done():
                        future.set_result(result)
                except BaseException as error:
                    # Fail-stop: the caller sees the error through its
                    # future and the loop dies with the same exception, so
                    # a broken engine cannot silently keep answering.
                    if not future.done():
                        future.set_exception(error)
                    self._fail_acks(pending_acks, error)
                    self._notify_crash(error)
                    raise
                self.registry.gauge("service_queue_depth").set(
                    self._queue.qsize()
                )
        finally:
            error = self.crash_error or ServiceError("gateway stopped")
            self._fail_acks(pending_acks, error)
            self._abort_pending()

    def _release_acks(
        self, pending_acks: list[tuple[asyncio.Future, object]]
    ) -> None:
        """Commit the journal once, then release the batch's acks in order.

        The ``ack`` kill point fires once per journaled job, after the
        covering commit and before that job's future resolves — a crash
        mid-batch leaves the suffix journaled-but-unacknowledged, which
        recovery replays and dedup absorbs on retry.
        """
        if not pending_acks:
            return
        assert self._journal is not None
        self._journal.commit()
        crash_active = self._crash.active
        for future, result in pending_acks:
            if crash_active:
                self._crash.fire("ack")
            if not future.done():
                future.set_result(result)
        pending_acks.clear()

    @staticmethod
    def _fail_acks(
        pending_acks: list[tuple[asyncio.Future, object]],
        error: BaseException,
    ) -> None:
        """Fail every unreleased ack (their operations never completed)."""
        for future, __ in pending_acks:
            if not future.done():
                future.set_exception(error)
        pending_acks.clear()

    def _abort_pending(self) -> None:
        """Fail any jobs still queued when the loop exits."""
        if self._queue is None:
            return
        while not self._queue.empty():
            __, __, future = self._queue.get_nowait()
            if not future.done():
                future.set_exception(ServiceError("gateway stopped"))

    def _process(self, kind: str, payload: object) -> Any:
        """Apply one job: the decision loop's step and recovery's re-drive
        (which runs before the journal and events are attached)."""
        if kind == "worker":
            assert isinstance(payload, Worker)
            self._session.submit_worker(payload)
            self._record("worker", payload.arrival_time, payload)
            if self._journal is not None:
                self._journaled_workers.add(payload.worker_id)
            return None
        if kind == "decision":
            assert isinstance(payload, Request)
            decision = self._session.submit_request(payload)
            outcome = _outcome_from_decision(payload, decision)
            self._outcomes[payload.request_id] = outcome
            self.registry.counter("service_decisions_total").inc(
                platform=payload.platform_id, status=outcome.status
            )
            # One record per request: the arrival (full wire entity or
            # ref, enough to re-drive the engine) and the decision it
            # produced travel together.
            self._record(
                "decision",
                payload.arrival_time,
                payload,
                platform=payload.platform_id,
                status=outcome.status,
                worker=outcome.worker_id,
                payment=outcome.payment,
            )
            if self._events.enabled:
                self._maybe_emit_breaker()
            return outcome
        if kind == "shed":
            request, outcome = payload  # type: ignore[misc]
            assert isinstance(request, Request)
            assert isinstance(outcome, ServiceOutcome)
            self._outcomes[outcome.request_id] = outcome
            self._record(
                "shed", request.arrival_time, request, status=STATUS_SHED
            )
            return outcome
        if kind == "finalize":
            self.result = self._session.finalize()
            if self._events.enabled:
                self._flush_resolution_events()
                self._emit_canonical(
                    "drain",
                    self._session.last_event_time,
                    metrics_sha256=row_digest(self.metrics_dict()),
                )
                self._events.flush()
            return self.result
        if kind == "snapshot":
            meta = None
            if self._journal is not None:
                self._journal.commit()
                meta = {
                    "journal_seq": self._journal.next_seq,
                    "journal_format": JOURNAL_FORMAT,
                }
            return self._snapshot_to(Path(str(payload)), meta)
        raise ServiceError(f"unknown gateway job kind {kind!r}")

    def _record_resolution(self, request: Request, decision: Decision) -> None:  # comlint: loop-entry
        """Session hook: a deferred request resolved asynchronously.

        Only ever fires inside :meth:`_process` (flushes happen while an
        arrival is applied on the decision loop), hence the loop-entry
        marker anchoring the ASY004 call graph.
        """
        outcome = _outcome_from_decision(request, decision)
        self._outcomes[request.request_id] = outcome
        self.registry.counter("service_decisions_total").inc(
            platform=request.platform_id, status=f"flushed_{outcome.status}"
        )
        # Runs inside _process, so the resolution lands in both logs just
        # before the arrival that triggered it — a re-drive regenerates
        # it at exactly that point.
        self._record(
            "resolution",
            self._session.last_event_time,
            None,
            request=request.request_id,
            platform=request.platform_id,
            status=outcome.status,
            worker=outcome.worker_id,
            payment=outcome.payment,
        )

    # -- replay interning ----------------------------------------------------
    # A submitted entity that matches its canonical object in the gateway's
    # scenario (by field equality) is replaced with it, so the matching
    # state shares storage with the trace.  Entities arrive as copies —
    # wire-decoded over TCP, or submitted after a snapshot restore whose
    # session holds pickled copies.  An interned entity is journaled as a
    # bare id ref, and a checkpoint encodes it as a memo reference into the
    # scenario pickled once, which keeps the journal and the checkpoints
    # small.  The memory metric counts items and does not depend on it.

    def _canonical_request(self, request: Request) -> Request:
        if self._request_index is None:
            self._request_index = {
                canonical.request_id: canonical
                for canonical in self.scenario.events.requests
            }
        canonical = self._request_index.get(request.request_id)
        return canonical if canonical == request else request

    def _canonical_worker(self, worker: Worker) -> Worker:
        if self._worker_index is None:
            self._worker_index = {
                canonical.worker_id: canonical
                for canonical in self.scenario.events.workers
            }
        canonical = self._worker_index.get(worker.worker_id)
        return canonical if canonical == worker else worker

    # -- the service surface -------------------------------------------------

    async def submit_worker(self, worker: Worker) -> None:
        """Deliver one worker arrival (never shed — workers add capacity).

        With journaling enabled, re-submitting an already-journaled
        worker id (a client retry after a crash) is an acknowledged
        no-op — the arrival was durably applied the first time.
        """
        self._ensure_running()
        if self._journal is not None:
            first = self._inflight_workers.get(worker.worker_id)
            if first is not None or worker.worker_id in self._journaled_workers:
                self.registry.counter("service_dedup_total").inc(
                    platform=worker.platform_id, entity="worker"
                )
                if first is not None:
                    # Acknowledge the duplicate once the first is durable.
                    await asyncio.shield(first)
                return
        worker = self._canonical_worker(worker)
        self.registry.counter("service_workers_total").inc(
            platform=worker.platform_id
        )
        future = self._enqueue("worker", worker)
        await self._settle(self._inflight_workers, worker.worker_id, future)

    async def _settle(
        self, inflight: dict[str, asyncio.Future], key: str, future: asyncio.Future
    ) -> object:
        """Await an arrival's job; while it is queued, a journaled gateway
        lists it in ``inflight`` for duplicates to wait on."""
        if self._journal is None:
            return await future
        inflight[key] = future
        try:
            return await future
        finally:
            del inflight[key]

    async def submit_request(self, request: Request) -> ServiceOutcome:
        """Deliver one request; returns its outcome (or ``shed``).

        End-to-end latency (admission to answer) is recorded in the
        ``service_latency_seconds`` histogram and on the returned outcome.

        With journaling enabled, a request id that already has a durable
        non-``shed`` outcome (a client retry after a crash) is answered
        from the outcome log without re-entering the engine — retries
        never double-apply.  A duplicate of a request still on the queue
        waits for the first one's decision and answers it.  A previously
        *shed* request is not deduped: shedding means it never entered
        the engine, so a retry is a legitimate new attempt.
        """
        self._ensure_running()
        assert self._queue is not None
        request_id = request.request_id
        if self._journal is not None:
            recorded = self._outcomes.get(request_id)
            first = self._inflight_requests.get(request_id)
            if first is not None or (
                recorded is not None and recorded.status != STATUS_SHED
            ):
                self.registry.counter("service_dedup_total").inc(
                    platform=request.platform_id, entity="request"
                )
                if first is None:
                    return recorded
                decided = await asyncio.shield(first)
                return self._outcomes.get(request_id, decided)
        request = self._canonical_request(request)
        watch = Stopwatch().start()
        if not self.admission.admit(self._queue.qsize()):
            self.registry.counter("service_shed_total").inc(
                platform=request.platform_id
            )
            self.registry.counter("service_decisions_total").inc(
                platform=request.platform_id, status=STATUS_SHED
            )
            outcome = ServiceOutcome(
                request.request_id, STATUS_SHED, latency_ms=watch.stop() * 1e3
            )
            self._outcomes[request.request_id] = outcome
            if self._journal is not None or self._events.enabled:
                # Durably record / emit the shed answer (on the decision
                # loop, so the append and the event serialize with
                # decision records) before the caller sees it.
                await self._enqueue("shed", (request, outcome))
            return outcome
        future = self._enqueue("decision", request)
        self.registry.gauge("service_queue_depth").set(self._queue.qsize())
        outcome = await self._settle(self._inflight_requests, request_id, future)
        elapsed = watch.stop()
        self.registry.histogram("service_latency_seconds").observe(
            elapsed, platform=request.platform_id
        )
        outcome = ServiceOutcome(
            outcome.request_id,
            outcome.status,
            outcome.worker_id,
            outcome.payment,
            elapsed * 1e3,
        )
        self._outcomes[request.request_id] = outcome
        return outcome

    async def replay_shed(self, request: Request) -> ServiceOutcome:
        """Re-apply a recorded ``shed`` event without consulting admission.

        The replay driver (:mod:`repro.service.replay`) calls this for
        every ``shed`` record in a ``COMEVT1`` stream: the original run's
        load decided the shed; replaying must reproduce it regardless of
        the replaying gateway's own queue depth.  Mirrors the live shed
        path's outcome bookkeeping and decision counters (not the
        admission counters — no admission decision happened here).
        """
        self._ensure_running()
        assert self._queue is not None
        request = self._canonical_request(request)
        self.registry.counter("service_shed_total").inc(
            platform=request.platform_id
        )
        self.registry.counter("service_decisions_total").inc(
            platform=request.platform_id, status=STATUS_SHED
        )
        outcome = ServiceOutcome(request.request_id, STATUS_SHED)
        await self._enqueue("shed", (request, outcome))
        return outcome

    async def drain(self) -> SimulationResult:
        """Finalize the simulation and stop the loop; returns the result.

        Equivalent to the batch engine's end-of-stream step: batching
        algorithms flush, still-deferred requests auto-reject, and the
        :class:`SimulationResult` is measured.  After draining, the
        gateway answers no further arrivals.
        """
        self._ensure_running()
        result = await self._enqueue("finalize", None)
        await self.stop()
        return result

    async def snapshot(self, path: str | Path) -> Path:
        """Checkpoint the full matching state to ``path``.

        Runs on the decision loop, so the snapshot sits *between*
        decisions — never mid-claim.  Restore with :meth:`from_snapshot`.
        """
        self._ensure_running()
        return await self._enqueue("snapshot", path)

    def outcome_of(self, request_id: str) -> ServiceOutcome | None:
        """The recorded outcome of a request (None if unknown)."""
        return self._outcomes.get(request_id)

    def metrics_dict(self) -> dict:
        """The drained run's metric row (requires :meth:`drain` first).

        This is the golden-equivalence surface: under the virtual clock it
        is byte-identical to the dict computed from ``Simulator.run`` on
        the same scenario/config.
        """
        if self.result is None:
            raise ServiceError("gateway not drained; no result to report")
        from repro.experiments.reporting import result_row

        return result_row(self.result)

    def stats(self) -> dict:
        """Live service statistics (the ``stats`` protocol verb)."""
        latency = self.registry.histogram("service_latency_seconds")
        pooled_count = sum(
            series.count for series in latency.series().values()
        )
        journal: dict | None = None
        if self.journal_config is not None:
            journal = {
                "path": str(self.journal_config.journal_path),
                "fsync": self.journal_config.fsync,
                "records": (
                    self._journal.next_seq if self._journal is not None else 0
                ),
                "commits": (
                    self._journal.commits if self._journal is not None else 0
                ),
                "last_checkpoint_seq": self._last_checkpoint_seq,
            }
        events: dict | None = None
        if isinstance(self._events, EventLog):
            events = self._events.stats()
        return {
            "algorithm": self._session.algorithm_name,
            "scenario": self.scenario.name,
            "platforms": list(self.scenario.platform_ids),
            "running": self.running,
            "crashed": self.crash_error is not None,
            "drained": self.result is not None,
            "pending": self._queue.qsize() if self._queue is not None else 0,
            "decided": pooled_count,
            "clock": {"virtual": self.clock.virtual, "now": self.clock.now()},
            "admission": {
                "max_pending": self.admission.policy.max_pending,
                "offered": self.admission.offered,
                "admitted": self.admission.admitted,
                "shed": self.admission.shed,
                "shed_rate": self.admission.shed_rate,
            },
            "journal": journal,
            "events": events,
            "concurrency": (
                self._monitor.stats() if self._monitor is not None else None
            ),
            "metrics": self.registry.snapshot().as_dict(),
        }
