"""The write-ahead event journal (``COMWAL1``) behind the gateway.

A snapshot alone makes recovery *coarse*: every decision since the last
checkpoint dies with the process.  The journal closes that window — the
gateway appends one durable record per accepted operation **before the
acknowledgement leaves the process**, so the set of acknowledged
decisions is always a prefix of the journal, and crash recovery (latest
checkpoint + journal suffix replayed through the deterministic engine)
reproduces the pre-crash state byte-for-byte.

File layout
-----------

The event log's :class:`~repro.obs.events.RecordFile` under a
``COMWAL1\\n`` header, each record one ``COMEVT1`` event.  The kinds are
the event log's canonical kinds, with the same field names, plus one
journal-only kind:

``meta``
    journal birth certificate, the event ``meta`` fields (``format`` is
    :data:`JOURNAL_FORMAT`);
``worker`` / ``decision``
    one accepted arrival — either the full entity in wire-dict shape or,
    when the arrival is the scenario's own canonical entity (replay
    interning), just a ``ref`` carrying its id (the checkpoint already
    holds the scenario, and the slim record keeps the ack critical path
    cheap); a decision also carries the decided outcome (``platform``,
    ``status``, ``worker``, ``payment``), which recovery verifies its
    re-driven decision against;
``resolution``
    a deferred request resolved asynchronously on a batch flush
    (re-driving regenerates these — the record exists so the outcome log
    survives a crash without replay);
``shed``
    a request refused by admission control (``request`` or ``ref``,
    ``status``); it never entered the engine, so recovery restores its
    answer without deciding it again;
``checkpoint``
    journal only: a ``COMSNAP1`` checkpoint landed; records before
    ``journal_seq`` are covered by the snapshot and recovery re-drives
    only the suffix.

Durability knobs
----------------

Appends are buffered and made durable by :meth:`Journal.commit` — the
gateway **group-commits**, flushing once per decision batch before any
of the batch's acknowledgements leave the process, so the per-record
cost on the ack critical path is encoding alone.  The ``fsync`` policy
decides what a commit does beyond flushing to the OS: ``"always"``
fsyncs every commit (no acknowledged decision can be lost even to an OS
crash), ``"interval"`` fsyncs once at least ``fsync_interval`` records
have accumulated since the last sync (bounded loss window on OS crash;
nothing acknowledged is lost on process crash — the common case —
because acks are only released after the flush), ``"never"`` leaves
syncing to the OS.  The threshold counts records, not wall seconds, so
the sync schedule is a function of the trace and its batching, never of
the clock.  Checkpoints follow the same promise: under ``"always"`` a
rotated ``COMSNAP1`` file is fsynced before its atomic rename and its
directory after it, so an OS crash cannot leave a torn checkpoint behind
a journal that needs it; ``"interval"`` and ``"never"`` only flush
checkpoints to the OS.

Torn tails
----------

A crash mid-append leaves a partial final frame, which :meth:`Journal.
open` truncates; corruption before it raises
:class:`~repro.errors.JournalError` (:func:`~repro.obs.events.scan_records`).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, JournalError
from repro.faults.crash import CrashInjector
from repro.obs.events import (
    GatewayEvent,
    RecordFile,
    encode_canonical,
    scan_records,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.analysis.concurrency import OwnershipGuard

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_MAGIC",
    "FSYNC_POLICIES",
    "JournalConfig",
    "Journal",
    "scan_journal",
]

#: Bump when the record schema changes (2: records are COMEVT1 events).
JOURNAL_FORMAT = 2

JOURNAL_MAGIC = b"COMWAL1\n"

#: Accepted ``JournalConfig.fsync`` values.
FSYNC_POLICIES = ("always", "interval", "never")


def _plain(text: str) -> bool:
    """True when ``text`` embeds in a JSON string without any escaping."""
    return (
        text.isascii()
        and text.isprintable()
        and '"' not in text
        and "\\" not in text
    )


@dataclass(frozen=True)
class JournalConfig:
    """Durability configuration for a journaled gateway.

    Attributes
    ----------
    directory:
        Where the journal (``events.walog``) and its rotating checkpoint
        (``checkpoint.snap``) live.
    fsync / fsync_interval:
        The fsync policy (see module docstring).  ``interval`` counts
        records, so the sync schedule is deterministic.
    checkpoint_every:
        Write a ``COMSNAP1`` checkpoint every this many journal records
        (0 disables periodic checkpoints; the initial checkpoint that
        anchors recovery is always written).  Checkpoints bound recovery
        *replay time*, not data loss — the journal alone bounds loss.
        Each one pickles the session's state on the decision path (the
        scenario is encoded once per gateway and reused; see
        :mod:`repro.service.snapshot`), so the default cadence is coarse:
        replaying a few thousand records takes well under a second at
        engine speed, while checkpointing every few hundred would
        dominate serving cost.
    """

    directory: str | Path
    fsync: str = "interval"
    fsync_interval: int = 256
    checkpoint_every: int = 4096

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync policy must be one of {FSYNC_POLICIES}, "
                f"got {self.fsync!r}"
            )
        if self.fsync_interval < 1:
            raise ConfigurationError(
                f"fsync_interval must be >= 1, got {self.fsync_interval}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )

    @property
    def journal_path(self) -> Path:
        return Path(self.directory) / "events.walog"

    @property
    def checkpoint_path(self) -> Path:
        return Path(self.directory) / "checkpoint.snap"


def scan_journal(path: str | Path) -> list[GatewayEvent]:
    """Read every intact record of a journal (read-only; tolerates a torn
    tail without modifying the file)."""
    return scan_records(Path(path), JOURNAL_MAGIC, JournalError)[0]


class Journal:
    """An append-only ``COMWAL1`` event log.

    Create fresh with :meth:`create`, or re-open an existing file with
    :meth:`open` (which performs torn-tail truncation and returns the
    surviving records for replay).  The framing is the shared
    :class:`~repro.obs.events.RecordFile`; the journal adds the fsync
    policy, the hot-path ref encoders and the crash kill points.
    ``crash`` wires a deterministic :class:`~repro.faults.CrashInjector`
    into the append path for the recovery drills — ``None`` (the
    default) appends unconditionally.
    """

    def __init__(
        self,
        records: RecordFile,
        fsync: str,
        fsync_interval: int,
        crash: CrashInjector | None = None,
    ):
        self._records = records
        self.path = records.path
        #: Bytes of torn tail :meth:`open` truncated (0 = clean tail).
        self.torn_bytes_dropped = records.torn_bytes_dropped
        self._fsync = fsync
        self._fsync_interval = fsync_interval
        self._since_sync = 0
        #: Commits that wrote records, since this handle was opened; with
        #: :attr:`next_seq` it shows how many records a commit covers.
        self.commits = 0
        self._crash = crash
        #: Optional concurrency-sanitizer guard over the append buffer
        #: (:class:`repro.analysis.concurrency.OwnershipGuard`); set by
        #: the gateway when the sanitizer is enabled, ``None`` costs one
        #: ``is None`` test per append.
        self.guard: "OwnershipGuard | None" = None
        #: The flush seam's background fsync worker (lazily created) and
        #: the first error it hit, surfaced on the next commit/close.
        self._sync_executor: ThreadPoolExecutor | None = None
        self._sync_error: OSError | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        fsync: str = "interval",
        fsync_interval: int = 256,
        crash: CrashInjector | None = None,
    ) -> "Journal":
        """Start a brand-new journal; refuses to clobber an existing one."""
        if Path(path).exists():
            raise JournalError(
                f"{path}: journal already exists — recover from it (or "
                f"remove it) instead of overwriting"
            )
        records = RecordFile.create(path, JOURNAL_MAGIC, JournalError)
        return cls(records, fsync, fsync_interval, crash)

    @classmethod
    def open(
        cls,
        path: str | Path,
        fsync: str = "interval",
        fsync_interval: int = 256,
        crash: CrashInjector | None = None,
    ) -> tuple["Journal", list[GatewayEvent]]:
        """Re-open after a crash: truncate any torn tail, return records.

        The returned journal appends after the last intact record; the
        returned list is everything that survived, for recovery replay.
        """
        records, recorded = RecordFile.open(path, JOURNAL_MAGIC, JournalError)
        return cls(records, fsync, fsync_interval, crash), recorded

    # -- appending -----------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the next append will carry."""
        return self._records.next_seq

    def append(self, kind: str, at: float, **fields: object) -> int:
        """Frame and buffer one event record; returns its sequence number.

        The arguments mirror :meth:`repro.obs.events.EventLog.emit`.  The
        record is *not* durable until :meth:`commit` flushes the buffer.
        Callers must commit before acknowledging anything the record
        covers — the gateway group-commits, so one flush (and one policy
        fsync) covers every record of a decision batch.
        """
        return self._append_encoded(
            encode_canonical(
                {"kind": kind, "seq": self._records.next_seq, "time": at, **fields}
            )
        )

    def append_worker_ref(self, ref: str, at: float) -> int:
        """Hot-path append of a ``worker`` ref record.

        Produces the same JSON :meth:`append` would (pinned by the
        round-trip tests) without the generic encoder — ref records are
        the bulk of a replayed trace's journal and sit on the
        acknowledgement critical path, where ``json.dumps`` and kwargs
        packing are ~5x the cost of an f-string.  A value that would need
        JSON escaping falls back to the generic path.
        """
        if not (type(at) is float and math.isfinite(at) and _plain(ref)):
            return self.append("worker", at, ref=ref)
        return self._append_encoded(
            (
                f'{{"kind":"worker","ref":"{ref}","seq":{self._records.next_seq},'
                f'"time":{at!r}}}'
            ).encode()
        )

    def append_request_ref(
        self,
        ref: str,
        at: float,
        platform: str,
        status: str,
        worker: str | None,
        payment: float,
    ) -> int:
        """Hot-path append of a ``decision`` ref record (see
        :meth:`append_worker_ref`)."""
        if not (
            type(at) is float
            and type(payment) is float
            and math.isfinite(at + payment)  # inf and nan propagate
            and _plain(f"{ref}{platform}{status}{worker or ''}")
        ):
            return self.append(
                "decision",
                at,
                ref=ref,
                platform=platform,
                status=status,
                worker=worker,
                payment=payment,
            )
        encoded_worker = "null" if worker is None else f'"{worker}"'
        return self._append_encoded(
            (
                f'{{"kind":"decision","payment":{payment!r},'
                f'"platform":"{platform}","ref":"{ref}",'
                f'"seq":{self._records.next_seq},"status":"{status}",'
                f'"time":{at!r},"worker":{encoded_worker}}}'
            ).encode()
        )

    def _append_encoded(self, encoded: bytes) -> int:
        if self.guard is not None:
            self.guard.check()
        if self._crash is not None and self._crash.active:
            # Kill points, in pipeline order: die with the record unwritten,
            # or die mid-write leaving the torn tail recovery must absorb.
            self._crash.fire("journal_append")
            if self._crash.fires_next("journal_torn"):
                self._records.tear(encoded)
            self._crash.fire("journal_torn")
        seq = self._records.next_seq
        self._records.append(encoded)
        self._since_sync += 1
        return seq

    def commit(self) -> None:
        """Write buffered records to the OS in one call; fsync per policy.

        Once this returns, every appended record survives a process
        crash (and, under the ``always`` policy, an OS crash too).  The
        ``interval`` policy's periodic fdatasync runs on the flush
        seam's background worker — it only narrows the OS-crash loss
        window, which is advisory under that policy, so the decision
        loop never blocks on it (a millisecond-class stall per interval
        otherwise).  A failed background sync is re-raised here as
        :class:`~repro.errors.JournalError` before anything further is
        acknowledged.  No-op when nothing was appended since the last
        commit.
        """
        if self._sync_error is not None:
            self._raise_sync_error()
        if not self._records.commit():
            return
        self.commits += 1
        if self._fsync == "always":
            # Synchronous by contract: the ack that follows this commit
            # promises OS-crash durability.
            self.sync()
        elif (
            self._fsync == "interval"
            and self._since_sync >= self._fsync_interval
        ):
            self._schedule_sync()

    def sync(self) -> None:
        """fdatasync the journal file (no-op when closed)."""
        if not self._records.file.closed:
            os.fdatasync(self._records.file.fileno())
        self._since_sync = 0

    def _schedule_sync(self) -> None:
        """Queue one fdatasync on the single background sync worker.

        The counter resets at scheduling time so the cadence stays a
        pure function of the record stream; the worker is one thread,
        so syncs apply in submission order and :meth:`close` joins them
        all with one ``shutdown(wait=True)``.
        """
        self._since_sync = 0
        if self._sync_executor is None:
            self._sync_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="journal-sync"
            )
        self._sync_executor.submit(
            self._background_sync, self._records.file.fileno()
        )

    def _background_sync(self, fileno: int) -> None:
        try:
            os.fdatasync(fileno)
        except OSError as error:
            # Worker thread: park the failure for the next commit/close
            # on the decision loop to re-raise (never swallowed).
            self._sync_error = error

    def _raise_sync_error(self) -> None:
        error = self._sync_error
        self._sync_error = None
        raise JournalError(
            f"{self.path}: background fdatasync failed"
        ) from error

    def close(self) -> None:
        """Flush and close; further appends raise :class:`JournalError`.

        Joins any in-flight background fsync first, so the descriptor
        is never closed under a running sync.
        """
        if self._sync_executor is not None:
            self._sync_executor.shutdown(wait=True)
            self._sync_executor = None
        self._records.close()
        if self._sync_error is not None:
            self._raise_sync_error()
