"""Exception hierarchy for the COM reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch a single base type.  More specific subclasses exist for the
distinct failure domains (model construction, simulation, matching
constraints, workload configuration, experiment harness).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ConfigurationError(ReproError):
    """An object was constructed with invalid or inconsistent parameters."""


class ConstraintViolationError(ReproError):
    """A matching violated one of the COM constraints (Definition 2.6).

    Raised by the constraint checker when validating a matching; carries the
    name of the violated constraint for precise test assertions.
    """

    def __init__(self, constraint: str, message: str):
        super().__init__(f"{constraint}: {message}")
        self.constraint = constraint


class SimulationError(ReproError):
    """The online simulator reached an inconsistent state.

    Carries optional structured context (simulation time, platform,
    request and worker ids) so failures raised mid-replay are
    diagnosable; whatever is provided is appended to the message.
    """

    def __init__(
        self,
        message: str,
        *,
        time: float | None = None,
        platform_id: str | None = None,
        request_id: str | None = None,
        worker_id: str | None = None,
    ):
        self.sim_time = time
        self.platform_id = platform_id
        self.request_id = request_id
        self.worker_id = worker_id
        context = [
            f"{label}={value}"
            for label, value in (
                ("t", time),
                ("platform", platform_id),
                ("request", request_id),
                ("worker", worker_id),
            )
            if value is not None
        ]
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)


class SanitizerViolation(SimulationError):
    """The runtime constraint sanitizer caught an invalid decision.

    Raised by :class:`repro.analysis.ConstraintSanitizer` (enabled via
    ``SimulatorConfig(sanitize=True)`` or ``COM_REPRO_SANITIZE=1``) the
    moment an assignment would break a Definition-2.6 constraint,
    waiting-list consistency, or ledger/revenue conservation — naming the
    violated constraint plus the request / worker / sim-time context.
    """

    def __init__(
        self,
        constraint: str,
        message: str,
        *,
        time: float | None = None,
        platform_id: str | None = None,
        request_id: str | None = None,
        worker_id: str | None = None,
    ):
        super().__init__(
            f"{constraint}: {message}",
            time=time,
            platform_id=platform_id,
            request_id=request_id,
            worker_id=worker_id,
        )
        self.constraint = constraint


class ConcurrencyViolation(SimulationError):
    """The concurrency sanitizer caught a cross-task mutation.

    Raised by :class:`repro.analysis.concurrency.ConcurrencyMonitor`
    (enabled via ``SimulatorConfig(sanitize_concurrency=True)``,
    ``serve --sanitize-concurrency`` or ``COM_REPRO_SANITIZE_CONCURRENCY=1``)
    when a structure owned by the gateway's decision loop — the session,
    the journal buffer, the event ring — is mutated from an asyncio task
    other than its recorded owner without an explicit
    :meth:`~repro.analysis.concurrency.OwnershipGuard.handoff`.
    """

    def __init__(
        self,
        structure: str,
        message: str,
        *,
        owner: str | None = None,
        intruder: str | None = None,
    ):
        context = [
            f"{label}={value}"
            for label, value in (("owner", owner), ("intruder", intruder))
            if value is not None
        ]
        suffix = f" [{', '.join(context)}]" if context else ""
        super().__init__(f"{structure}: {message}{suffix}")
        self.structure = structure
        self.owner = owner
        self.intruder = intruder


class ExchangeUnavailableError(SimulationError):
    """The cooperation exchange (or every reachable peer) is down.

    Raised by :class:`repro.faults.ResilientExchange` when an outage or an
    open circuit breaker leaves a platform with no cooperative view; the
    platform must fall back to inner-only (degraded-mode) matching.
    """


class ClaimConflictError(SimulationError):
    """A worker claim failed permanently (lost race, dropout, retries spent).

    The request that triggered the claim is rejected; the worker either
    stays available for later requests (transient lost-claim race) or is
    gone for good (mid-assignment dropout).
    """


class WorkloadError(ReproError):
    """A workload generator was asked for an impossible configuration."""


class ServiceError(ReproError):
    """The serving layer (:mod:`repro.service`) was misused or failed.

    Covers gateway lifecycle errors (submitting to a stopped gateway,
    querying a result before draining), protocol violations on the JSONL
    wire, and snapshot format mismatches.
    """


class JournalError(ServiceError):
    """The write-ahead event journal (``COMWAL1``) was misused or corrupt.

    Raised by :mod:`repro.service.journal` on framing violations that are
    *not* a recoverable torn tail — a foreign or mismatched file header,
    an out-of-sequence record, an append to a closed journal — and by
    recovery when a replayed decision diverges from its journaled outcome
    (which indicates the journal was produced by an incompatible engine
    version, not a crash).
    """


class EventLogError(ReproError):
    """The ``COMEVT1`` event log (:mod:`repro.obs.events`) is corrupt.

    Raised when a recorded event stream cannot be decoded — a damaged
    frame *before* the tail (a torn final frame is expected after a
    crash and silently truncated), a record missing its required
    ``kind``/``seq``/``time`` envelope, a sequence discontinuity, or a
    file of another format.
    """


class InducedCrash(ReproError):
    """A deterministic kill point fired (:class:`repro.faults.CrashPlan`).

    Simulates a fail-stop process crash at an exact, reproducible
    boundary (the Nth journal append / checkpoint / ack).  The gateway's
    decision loop dies with this exception and the server drops its
    connections without answering, exactly as a killed process would —
    the crash-recovery tests and the ``com-repro soak`` harness then
    exercise journal recovery against it.
    """


class GraphError(ReproError):
    """A graph algorithm received malformed input."""


class UnknownAlgorithmError(ReproError, KeyError):
    """An algorithm name was not found in the registry."""

    def __init__(self, name: str, known: list[str]):
        super().__init__(
            f"unknown algorithm {name!r}; registered algorithms: {sorted(known)}"
        )
        self.name = name
        self.known = sorted(known)
