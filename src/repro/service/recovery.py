"""Crash recovery: checkpoint + journal suffix → the pre-crash gateway.

:func:`recover_gateway` is the restart path of a journaled deployment.
It needs nothing but the journal directory — the initial checkpoint
written at journal bootstrap guarantees a ``COMSNAP1`` anchor always
exists — and proceeds in four steps:

1. load the latest checkpoint (atomic rotation means it is always a
   complete, CRC-verified snapshot; a crash mid-rotation leaves the
   previous one) and refuse one anchoring another journal format;
2. open the journal, truncating any torn tail left by a crash
   mid-append; refuse it unless it reaches the checkpoint's
   ``journal_seq`` and its ``meta`` passes the check a ``COMEVT1``
   replay runs (:func:`~repro.service.replay.validate_meta`);
3. decode the suffix with replay's arrival decoder
   (:func:`~repro.service.replay.recorded_arrivals`) and apply each
   arrival through ``MatchingGateway._process`` — the decision loop's
   own step — before the journal and events are attached, so nothing
   is recorded twice; every re-driven decision is **verified against
   the journaled outcome** (any divergence raises
   :class:`~repro.errors.JournalError`: the journal no longer describes
   this engine, and serving from it would silently corrupt results);
4. hand the journal back with the dedup state (journaled worker ids)
   rebuilt from the *full* record set, so client retries of
   pre-checkpoint operations are still absorbed;
5. with an event log, complete its stream from the journal: a killed
   process loses the log's write-behind buffer but never a committed
   record, so the events the file lacks are emitted from the journal
   (refusing a file that is not a prefix of it) before the ``recovered``
   marker.

The recovered gateway is byte-identical to the crashed one: continuing
the same trace and draining yields the same metrics row and canonical
event stream as an uninterrupted run — pinned by
``tests/test_service_journal.py`` at every kill-point boundary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.entities import Worker
from repro.errors import JournalError, ServiceError
from repro.faults.crash import CrashPlan
from repro.obs.events import (
    CANONICAL_KINDS,
    EVENT_FORMAT,
    EventLog,
    GatewayEvent,
    canonical_projection,
    read_events,
)
from repro.service.admission import AdmissionPolicy
from repro.service.clock import ServiceClock
from repro.service.gateway import MatchingGateway, _to_wire
from repro.service.journal import JOURNAL_FORMAT, Journal, JournalConfig
from repro.service.replay import recorded_arrivals, validate_meta
from repro.service.snapshot import read_snapshot
from repro.utils.timer import Stopwatch

__all__ = ["RecoveryReport", "recover_gateway"]


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What recovery did, for operators and the soak harness."""

    #: Journal seq the checkpoint covered up to (replay started here).
    checkpoint_seq: int
    #: Total intact records in the journal at open.
    journal_records: int
    #: Suffix records replayed through the engine / outcome log.
    records_replayed: int
    #: Bytes of torn tail truncated from the journal (0 = clean tail).
    torn_bytes_dropped: int
    #: Wall-clock seconds from checkpoint load to ready gateway.
    recovery_seconds: float

    def as_dict(self) -> dict:
        return asdict(self)


def recover_gateway(
    journal: JournalConfig | str | Path,
    clock: ServiceClock | None = None,
    admission: AdmissionPolicy | None = None,
    crash_plan: CrashPlan | None = None,
    events: str | Path | None = None,
) -> tuple[MatchingGateway, RecoveryReport]:
    """Rebuild the gateway a crashed process left in ``journal``.

    ``journal`` is the crashed gateway's :class:`JournalConfig`, or its
    directory with the default durability settings (as for
    :class:`MatchingGateway`).  Returns the recovered (not yet started)
    gateway and a :class:`RecoveryReport`.  ``crash_plan`` arms kill
    points in the *recovered* process — the soak harness uses this to
    chain crash→recover cycles; the injector starts from boundary zero,
    like a freshly restarted binary.  ``events`` resumes the crashed process's
    ``COMEVT1`` stream (:meth:`~repro.obs.events.EventLog.resume`), or
    starts one when the file is absent: the torn tail is truncated, the
    journaled events the file lacks are emitted (step 5), an ops
    ``recovered`` marker is appended, and the recovered gateway continues
    the stream — the journal-suffix replay itself emits nothing.  Raises
    :class:`~repro.errors.JournalError` when the journal is corrupt
    mid-file, foreign to the checkpoint or of another format, diverges
    from the engine, or does not extend the event file, and
    :class:`~repro.errors.ServiceError` when the checkpoint is damaged.
    """
    config = (
        journal if isinstance(journal, JournalConfig) else JournalConfig(journal)
    )
    watch = Stopwatch().start()
    if not config.checkpoint_path.exists():
        # Bootstrap writes journal-then-checkpoint; a crash between the
        # two strands a journal with no anchor.  Nothing was ever
        # acknowledged from such a process, so discarding is lossless.
        raise ServiceError(
            f"{config.checkpoint_path}: no checkpoint — the process died "
            f"during bootstrap before any operation was acknowledged; "
            f"remove the journal directory and start fresh"
        )
    session, outcomes, meta = read_snapshot(config.checkpoint_path)
    if meta.get("journal_format") != JOURNAL_FORMAT:
        raise JournalError(
            f"{config.checkpoint_path}: anchors a journal of format "
            f"{meta.get('journal_format')!r}; this build reads format "
            f"{JOURNAL_FORMAT}"
        )
    checkpoint_seq = int(meta.get("journal_seq", 0))
    gateway = MatchingGateway._restored(
        session,
        outcomes,
        clock=clock,
        admission=admission,
        crash_plan=crash_plan,
    )
    journal, records = Journal.open(
        config.journal_path,
        fsync=config.fsync,
        fsync_interval=config.fsync_interval,
        crash=gateway._crash if gateway._crash.active else None,
    )
    try:
        if checkpoint_seq > len(records):
            raise JournalError(
                f"{config.journal_path}: checkpoint covers journal seq "
                f"{checkpoint_seq} but the journal holds {len(records)} "
                f"records — journal and checkpoint are from different "
                f"histories"
            )
        validate_meta(
            records,
            session.scenario,
            session.algorithm_name,
            JOURNAL_FORMAT,
            config.journal_path,
            JournalError,
        )
        journaled_workers = {
            entity.worker_id
            for kind, entity, recorded in recorded_arrivals(
                records[:checkpoint_seq], session.scenario, JournalError
            )
            if isinstance(entity, Worker)
        }
        for kind, entity, recorded in recorded_arrivals(
            records[checkpoint_seq:], session.scenario, JournalError
        ):
            if isinstance(entity, Worker):
                journaled_workers.add(entity.worker_id)
            payload = (entity, recorded) if kind == "shed" else entity
            outcome = gateway._process(kind, payload)
            if recorded is not None and not outcome.matches(recorded):
                raise JournalError(
                    f"replay diverged: request {recorded.request_id!r} "
                    f"decided {outcome.as_dict()!r} but the journal "
                    f"recorded {recorded.as_dict()!r} — the journal does "
                    f"not describe this engine state"
                )
        # Opened only after the suffix replay, so the replay emits nothing.
        log = None if events is None else _resume_events(events, gateway, records)
    except BaseException:
        journal.close()
        raise
    gateway._attach_journal(
        config, journal, journaled_workers, last_checkpoint_seq=checkpoint_seq
    )
    if log is not None:
        gateway.attach_events(log, recovered=True)
        gateway._owned_events = log
    report = RecoveryReport(
        checkpoint_seq=checkpoint_seq,
        journal_records=len(records),
        records_replayed=len(records) - checkpoint_seq,
        torn_bytes_dropped=journal.torn_bytes_dropped,
        recovery_seconds=watch.stop(),
    )
    return gateway, report


def _resume_events(
    path: str | Path, gateway: MatchingGateway, records: list[GatewayEvent]
) -> EventLog:
    """Reopen (or start) the event log and emit the journaled events it
    lacks, after a ``meta`` if it has none.

    The journal holds every canonical event but ``meta`` and ``drain``
    (a ``ref`` for a scenario entity); the file's must be a prefix of
    them.  Trailing resolutions wait for their arrival, as live; one
    journaled twice (before a crash that ate its arrival, then on the
    retry) counts once.
    """
    path = Path(path)
    if not path.exists():
        EventLog(path).close()  # an empty stream to resume
    on_file = read_events(path)
    trace = gateway.scenario.events
    entities = {("worker", worker.worker_id): worker for worker in trace.workers}
    entities.update((("request", req.request_id), req) for req in trace.requests)
    journaled: list[GatewayEvent] = []
    resolved: set[object] = set()
    for record in records:
        fields = dict(record.fields)
        if record.kind == "resolution":
            if fields.get("request") in resolved:
                continue
            resolved.add(fields.get("request"))
        elif record.kind in ("meta", "checkpoint"):
            continue
        elif "ref" in fields:
            key = "worker" if record.kind == "worker" else "request"
            fields[key] = _to_wire(entities[key, fields.pop("ref")])
        journaled.append(GatewayEvent(record.seq, record.kind, record.time, fields))
    canonical = [
        event for event in on_file if event.kind in CANONICAL_KINDS - {"meta", "drain"}
    ]
    if canonical_projection(canonical) != canonical_projection(
        journaled[: len(canonical)]
    ):
        raise JournalError(
            f"{path}: the event log is not a prefix of the journal — they "
            f"record different histories"
        )
    missing = journaled[len(canonical):]
    while missing and missing[-1].kind == "resolution":
        missing.pop()
    log = EventLog.resume(path, registry=gateway.registry)
    if not any(event.kind == "meta" for event in on_file):
        log.emit("meta", 0.0, **gateway._meta(EVENT_FORMAT))
    for event in missing:
        log.emit(event.kind, event.time, **event.fields)
    return log
