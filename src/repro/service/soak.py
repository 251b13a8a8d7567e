"""Chaos soak: sustained real-time load through crash→recover cycles.

The crash-recovery property tests pin byte-identity at *individual* kill
points; the soak harness exercises the whole durability story end to end
the way an unlucky deployment would meet it — a journaled gateway under
paced :class:`~repro.service.clock.RealTimeClock` load, killed again and
again at seeded kill points (every channel: lost appends, torn tails,
checkpoint deaths, swallowed acks), recovered with
:func:`~repro.service.recovery.recover_gateway`, and driven on by a
client that simply retries the in-flight arrival, trusting request-ID
dedup to absorb duplicates.

Every run executes with the :class:`~repro.analysis.ConstraintSanitizer`
enabled, so any replay that re-matched a decided request, double-claimed
a worker or broke revenue conservation dies loudly as a
:class:`~repro.errors.SanitizerViolation` instead of skewing a metric.
The final acceptance is total: after the last cycle the drained metrics
row must be **byte-identical** to an uninterrupted
:meth:`~repro.core.simulator.Simulator.run` of the same trace — zero
lost decisions, zero duplicated decisions, however many times the
process died.

Run it from the CLI: ``com-repro soak --cycles 3``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.registry import algorithm_factory
from repro.core.simulator import Scenario, Simulator, SimulatorConfig
from repro.errors import ConfigurationError, InducedCrash
from repro.faults.crash import CrashPlan
from repro.obs.events import encode_canonical
from repro.service.clock import RealTimeClock
from repro.service.gateway import MatchingGateway
from repro.service.journal import JournalConfig
from repro.service.recovery import RecoveryReport, recover_gateway
from repro.utils.rng import derive_rng
from repro.utils.timer import Stopwatch

__all__ = ["SoakConfig", "SoakReport", "run_soak"]

#: Kill channels the soak rotates through, cycle by cycle.  Cycle 0 is
#: always ``ack`` (the only channel with no boundaries during journal
#: bootstrap, so the first kill is guaranteed to land mid-trace).
_CHANNEL_ROTATION = ("ack", "journal_append", "journal_torn", "checkpoint")


@dataclass(frozen=True)
class SoakConfig:
    """Tunables for one soak run."""

    #: Crash→recover cycles to induce (the acceptance floor is 3).
    cycles: int = 3
    #: Seed for the kill-point draw (independent of the workload seed).
    seed: int = 0
    #: Real-time clock compression: recorded seconds per wall second.
    #: 0 disables pacing (events pushed back-to-back — still under a
    #: real-time clock, just an unthrottled one).
    speed: float = 0.0
    fsync: str = "interval"
    fsync_interval: int = 16
    #: Small cadence so checkpoint-channel kills have boundaries to hit.
    checkpoint_every: int = 32
    #: Record a ``COMEVT1`` stream alongside the journal and verify,
    #: after the final drain, that replaying it reproduces the run
    #: byte-identically modulo the crash/recovery markers.
    events: bool = True

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ConfigurationError(
                f"cycles must be >= 0, got {self.cycles}"
            )
        if self.speed < 0:
            raise ConfigurationError(
                f"speed must be >= 0, got {self.speed}"
            )


@dataclass(frozen=True)
class SoakReport:
    """What a soak run did and whether the durability story held."""

    events_submitted: int
    induced_crashes: int
    #: Arrivals re-submitted after a crash (the client retry path).
    retries: int
    recoveries: tuple[RecoveryReport, ...]
    #: Drained row == uninterrupted ``Simulator.run`` row, byte for byte.
    metrics_identical: bool
    metrics_row: dict
    sanitizer_enabled: bool
    wall_seconds: float
    #: Canonical events in the recorded ``COMEVT1`` stream (0 when the
    #: event log was disabled).
    event_count: int = 0
    #: Recorded stream's canonical projection == an uninterrupted
    #: replay's, byte for byte (None when the event log was disabled).
    events_identical: bool | None = None
    #: The concurrency sanitizer (ownership guards + stall detector)
    #: was live for the run — always true for a soak.
    concurrency_enabled: bool = False
    #: Event-loop stalls the final lifetime's monitor observed.
    loop_stalls: int = 0

    @property
    def max_recovery_seconds(self) -> float:
        return max(
            (report.recovery_seconds for report in self.recoveries),
            default=0.0,
        )

    def as_dict(self) -> dict:
        return {
            "events_submitted": self.events_submitted,
            "induced_crashes": self.induced_crashes,
            "retries": self.retries,
            "recoveries": [report.as_dict() for report in self.recoveries],
            "max_recovery_seconds": self.max_recovery_seconds,
            "metrics_identical": self.metrics_identical,
            "sanitizer_enabled": self.sanitizer_enabled,
            "wall_seconds": self.wall_seconds,
            "event_count": self.event_count,
            "events_identical": self.events_identical,
            "concurrency_enabled": self.concurrency_enabled,
            "loop_stalls": self.loop_stalls,
            "metrics_row": self.metrics_row,
        }


def _plan_for_cycle(
    cycle: int, rng: random.Random, remaining: int, checkpoint_every: int
) -> CrashPlan | None:
    """Arm the next kill point, guaranteed to fire within ``remaining`` ops.

    Every accepted arrival crosses one ``journal_append``, one
    ``journal_torn`` and one ``ack`` boundary, so an index below
    ``remaining`` always fires.  ``checkpoint`` boundaries are sparse
    (one per ``checkpoint_every`` records); index 0 — the recovered
    process's first checkpoint — fires iff enough trace remains, else
    the cycle falls back to ``ack``.
    """
    if remaining < 4:
        return None
    channel = _CHANNEL_ROTATION[cycle % len(_CHANNEL_ROTATION)]
    if channel == "checkpoint":
        if remaining > checkpoint_every * 2:
            return CrashPlan.at("checkpoint", 0)
        channel = "ack"
    # Cap at remaining - 2: a retried arrival the dedup absorbs crosses
    # no ack boundary, so the new lifetime may see one fewer than
    # ``remaining`` — the cap keeps the kill inside the trace regardless.
    return CrashPlan.at(channel, 1 + rng.randrange(remaining - 2))


async def run_soak(
    scenario: Scenario,
    directory: str | Path,
    algorithm: str = "ramcom",
    config: SimulatorConfig | None = None,
    soak: SoakConfig | None = None,
) -> SoakReport:
    """Drive ``scenario`` through ``soak.cycles`` crash→recover cycles.

    Raises :class:`~repro.errors.SanitizerViolation` if any replay
    breaks a matching invariant, and :class:`~repro.errors.JournalError`
    if recovery diverges from the journal — a passing soak means the
    crash model held under fire.
    """
    soak = soak or SoakConfig()
    base = config or SimulatorConfig()
    # Sanitize every decision (constraints AND concurrency — the soak is
    # exactly where cross-task races would surface) and keep the row a
    # pure function of the trace (engine-side wall-clock reads off) so
    # the golden compare is exact.
    config = replace(
        base,
        sanitize=True,
        sanitize_concurrency=True,
        measure_response_time=False,
    )
    golden_result = Simulator(config).run(scenario, algorithm_factory(algorithm))
    from repro.experiments.metrics import AlgorithmMetrics
    from repro.experiments.reporting import metrics_to_dict

    golden_row = metrics_to_dict(AlgorithmMetrics.from_simulation(golden_result))

    journal_config = JournalConfig(
        directory=directory,
        fsync=soak.fsync,
        fsync_interval=soak.fsync_interval,
        checkpoint_every=soak.checkpoint_every,
    )
    rng = derive_rng(soak.seed, "service.soak.kill-points")
    events = list(scenario.events)
    clock = RealTimeClock(speed=soak.speed) if soak.speed > 0 else None
    event_log_path = (
        Path(directory) / "events.comevt" if soak.events else None
    )
    watch = Stopwatch().start()

    cycle = 0
    plan = _plan_for_cycle(
        cycle, rng, len(events), soak.checkpoint_every
    ) if soak.cycles > 0 else None
    gateway = MatchingGateway(
        scenario,
        algorithm,
        config,
        clock=clock,
        journal=journal_config,
        crash_plan=plan,
        events=event_log_path,
    )
    await gateway.start()

    submitted = 0
    retries = 0
    crashes = 0
    recoveries: list[RecoveryReport] = []
    index = 0
    while index < len(events):
        event = events[index]
        if clock is not None:
            await clock.sleep_until(event.time)
        try:
            if event.worker is not None:
                await gateway.submit_worker(event.worker)
            else:
                assert event.request is not None
                await gateway.submit_request(event.request)
        except InducedCrash:
            # The process "died" mid-call.  Recover from disk, then
            # retry the same arrival — exactly what a reconnecting
            # client would do; dedup absorbs it if it was journaled.
            crashes += 1
            cycle += 1
            next_plan = (
                _plan_for_cycle(
                    cycle, rng, len(events) - index, soak.checkpoint_every
                )
                if cycle < soak.cycles
                else None
            )
            gateway, report = recover_gateway(
                directory,
                fsync=soak.fsync,
                fsync_interval=soak.fsync_interval,
                checkpoint_every=soak.checkpoint_every,
                clock=clock,
                crash_plan=next_plan,
                events=event_log_path,
            )
            recoveries.append(report)
            await gateway.start()
            retries += 1
            continue
        submitted += 1
        index += 1

    result = await gateway.drain()
    assert result is not None
    row = gateway.metrics_dict()
    identical = encode_canonical(row) == encode_canonical(golden_row)

    event_count = 0
    events_identical: bool | None = None
    if event_log_path is not None:
        # The stream the crashing run recorded must replay to the same
        # canonical bytes as an uninterrupted run of the same trace —
        # "byte-identical modulo crash markers" (ops events stripped).
        from repro.service.replay import replay_event_log

        replay_report = await replay_event_log(
            event_log_path, scenario, algorithm, config
        )
        event_count = replay_report.canonical_events
        events_identical = replay_report.stream_identical

    return SoakReport(
        events_submitted=submitted,
        induced_crashes=crashes,
        retries=retries,
        recoveries=tuple(recoveries),
        metrics_identical=identical,
        metrics_row=row,
        sanitizer_enabled=True,
        wall_seconds=watch.stop(),
        event_count=event_count,
        events_identical=events_identical,
        concurrency_enabled=True,
        loop_stalls=(
            len(gateway._monitor.stalls) if gateway._monitor is not None else 0
        ),
    )
