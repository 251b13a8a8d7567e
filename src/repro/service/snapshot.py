"""Checkpoint / restore of the full matching state.

A long-running gateway must survive graceful shutdowns and recover from
crashes without violating the paper's constraints — in particular the
*invariable* constraint (a decided request is never re-matched) means the
service cannot simply replay its input from scratch after a restart: it
must resume from the exact matching state it had reached.

A snapshot is a pickle of the live :class:`~repro.core.simulator.
SimulationSession` — the exchange's waiting lists, every platform's
ledger and algorithm state (including RamCOM's threshold draw and all RNG
stream positions), the reentry/departure queues, deferred requests, the
Eq.-4 acceptance histories, and the resilience layer's fault-injection
cursor when a :class:`~repro.faults.plan.FaultPlan` is active (snapshots
compose with :mod:`repro.faults`: a restored session continues the
recorded fault schedule deterministically).  Restoring and continuing the
stream therefore produces byte-identical results to an uninterrupted run
— pinned by ``tests/test_service.py``.

The file is the ``COMSNAP1`` magic, an 8-byte big-endian payload length,
the payload's CRC32, then the payload.  The payload (format 3) is two
pickles back to back, read by one :class:`pickle.Unpickler` with two
``load()`` calls:

1. the session's :class:`~repro.core.simulator.Scenario` — the input
   trace, the behaviour oracle and the platform list;
2. the envelope ``{"format", "session", "outcomes", "meta"}``, pickled
   with a memo seeded from the first pickle, so every scenario object
   the state reaches (the scenario itself, its events, requests,
   workers, points, id strings and oracle) is a memo reference and
   restores as the *same* object the restored scenario holds.

The scenario is about half of a session and never changes, so a gateway
encodes it once (:class:`EncodedScenario`: the bytes, their CRC and the
pickler memo) and each checkpoint pickles only the state.  That rests on
one rule: **a scenario is never mutated once encoded** — the engine
treats it as read-only input (reentry clones resolve to their base
worker in the oracle instead of registering there).  A mutation would
leave the cached bytes stale and the memo pointing at objects the
encoded scenario does not describe.  The CRC covers both sections; it is
computed as ``zlib.crc32(state, scenario_crc)``, so the scenario bytes
are never re-read, and the sections are written one after the other,
never concatenated in memory.

Writes are **atomic** — the file goes to a sibling tempfile first and
lands via :func:`os.replace`, so a crash mid-checkpoint can never destroy
the previous checkpoint (the rotation the journal's crash-recovery path
relies on).  With ``durable=True`` (the gateway passes it under the
journal's ``fsync="always"``) the tempfile is fsynced before the replace
and the directory after it, so the rotation also survives an OS crash;
otherwise the checkpoint is only flushed to the OS.  Reads verify the
length and checksum before unpickling, so a truncated or bit-flipped file
is rejected with a clear :class:`~repro.errors.ServiceError` instead of
an unpickling traceback.  Snapshots are point-in-time artifacts for
operational recovery, not a long-term archival format (they are tied to
the package version like any pickle, and another format number is
refused).  Telemetry bundles hold live tracer state and are not
checkpointed — snapshot a gateway running with ``telemetry=None``.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from pathlib import Path

from repro.core.simulator import Scenario, SimulationSession
from repro.errors import ServiceError

__all__ = ["SNAPSHOT_FORMAT", "EncodedScenario", "write_snapshot", "read_snapshot"]

#: Bump when the envelope layout changes (3: scenario and state are two
#: memo-sharing pickles).
SNAPSHOT_FORMAT = 3

_MAGIC = b"COMSNAP1\n"
#: 8-byte payload length + 4-byte CRC32, both big-endian.
_FRAME = struct.Struct(">QI")
_HEADER_SIZE = len(_MAGIC) + _FRAME.size


class EncodedScenario:
    """A scenario pickled once: the first section of every checkpoint.

    Holds the pickle bytes, their CRC32 and the pickler's memo, which
    seeds the state pickle of each checkpoint (:meth:`pickle_state`).
    The memo keeps every encoded object alive, so its ``id()`` keys stay
    valid for as long as this encoding is.
    """

    __slots__ = ("scenario", "payload", "crc", "_memo")

    def __init__(self, scenario: Scenario):
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dump(scenario)
        self.scenario = scenario
        self.payload = buffer.getvalue()
        self.crc = zlib.crc32(self.payload)
        self._memo = pickler.memo

    def pickle_state(self, envelope: dict) -> bytes:
        """``envelope`` pickled with scenario objects as memo references."""
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.memo = self._memo
        pickler.dump(envelope)
        return buffer.getvalue()


def write_snapshot(
    session: SimulationSession,
    outcomes: dict[str, dict],
    path: str | Path,
    meta: dict | None = None,
    scenario: EncodedScenario | None = None,
    durable: bool = False,
) -> Path:
    """Checkpoint ``session`` (plus served-outcome log) to ``path``.

    Must be called between decisions (the gateway schedules snapshots on
    its serialized decision loop, which guarantees this).  ``meta``
    carries small JSON-able bookkeeping alongside the state — the journal
    records its replay position (``journal_seq``) there.  ``scenario`` is
    the session's scenario already encoded (a gateway keeps one per
    lifetime); without it the scenario is encoded for this call.
    ``durable`` fsyncs the file and its directory around the atomic
    rename.  The session's resolution hook is transport state, not
    matching state — it is stripped for the dump and reattached by the
    restoring gateway.
    """
    if session.config.telemetry is not None:
        raise ServiceError(
            "snapshots require telemetry=None (live tracer state does not "
            "checkpoint); run the gateway without a telemetry bundle"
        )
    if scenario is None:
        scenario = EncodedScenario(session.scenario)
    elif scenario.scenario is not session.scenario:
        raise ServiceError("the encoded scenario is not the session's scenario")
    path = Path(path)
    hook = session.on_resolution
    session.on_resolution = None
    try:
        state = scenario.pickle_state(
            {
                "format": SNAPSHOT_FORMAT,
                "session": session,
                "outcomes": dict(outcomes),
                "meta": dict(meta) if meta else {},
            }
        )
    finally:
        session.on_resolution = hook
    path.parent.mkdir(parents=True, exist_ok=True)
    # Atomic rotation: a crash before the replace leaves the previous
    # checkpoint untouched; a crash after it leaves the new one complete.
    staging = path.with_name(path.name + ".tmp")
    with staging.open("wb") as file:
        file.write(
            _MAGIC
            + _FRAME.pack(
                len(scenario.payload) + len(state),
                zlib.crc32(state, scenario.crc),
            )
        )
        file.write(scenario.payload)
        file.write(state)
        if durable:
            file.flush()
            os.fsync(file.fileno())
    os.replace(staging, path)
    if durable:
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    return path


def read_snapshot(
    path: str | Path,
) -> tuple[SimulationSession, dict[str, dict], dict]:
    """Load a checkpoint; returns ``(session, outcome_log, meta)``.

    Rejects anything that is not a complete, intact snapshot of this
    format — wrong magic, truncated payload, checksum mismatch,
    undecodable pickle, another format number — with a
    :class:`ServiceError` naming the problem.
    """
    path = Path(path)
    blob = path.read_bytes()
    if not blob.startswith(_MAGIC):
        raise ServiceError(f"{path}: not a COM service snapshot")
    if len(blob) < _HEADER_SIZE:
        raise ServiceError(f"{path}: snapshot truncated inside the header")
    length, checksum = _FRAME.unpack_from(blob, len(_MAGIC))
    payload = memoryview(blob)[_HEADER_SIZE:]
    if len(payload) != length:
        raise ServiceError(
            f"{path}: snapshot truncated ({len(payload)} of {length} "
            f"payload bytes present)"
        )
    if zlib.crc32(payload) != checksum:
        raise ServiceError(f"{path}: snapshot payload failed its checksum")
    stream = io.BytesIO(blob)
    stream.seek(_HEADER_SIZE)
    unpickler = pickle.Unpickler(stream)
    try:
        scenario = unpickler.load()
        # Anything else is not format 3 (a format-2 file is one pickle,
        # the envelope); the format check below names it.
        envelope = unpickler.load() if isinstance(scenario, Scenario) else scenario
    except Exception as error:
        raise ServiceError(f"{path}: snapshot payload does not unpickle") from error
    if not isinstance(envelope, dict) or envelope.get("format") != SNAPSHOT_FORMAT:
        got = envelope.get("format") if isinstance(envelope, dict) else None
        raise ServiceError(
            f"{path}: snapshot format {got!r} != {SNAPSHOT_FORMAT} "
            f"(rebuild the snapshot with this version)"
        )
    session = envelope["session"]
    if not isinstance(session, SimulationSession) or session.scenario is not scenario:
        raise ServiceError(f"{path}: snapshot payload is not a session")
    return session, envelope.get("outcomes", {}), envelope.get("meta", {})
