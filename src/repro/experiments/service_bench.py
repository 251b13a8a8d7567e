"""Service benchmark: throughput, latency, journal and event overhead.

Measures the serving layer the way an operator would size it: a synthetic
trace replayed through a :class:`~repro.service.gateway.MatchingGateway`
four ways —

``gateway``
    in-process, no durability: the serialized decision loop alone;
``gateway_journal``
    in-process with the ``COMWAL1`` write-ahead journal on (default
    ``interval`` fsync policy) — the cost of crash safety;
``gateway_events``
    in-process with the ``COMEVT1`` event log on (file-backed
    :class:`~repro.obs.events.EventLog`) — the cost of live ops;
``tcp``
    the full JSONL-over-TCP stack on loopback.

Each section records sustained requests/sec and p50/p95/p99 end-to-end
latency.  The ``journal_overhead`` and ``event_overhead`` sections carry
**self-relative throughput ratios** (instrumented req/s ÷ plain req/s,
measured in the same run on the same machine, hence machine-independent)
which :func:`check_service_regression` gates against the budgets:
journaling may cost at most 15% of throughput, an enabled event log at
most 15%, and the *disabled* event path (the ``sink.enabled`` flag
checks every deployment pays) at most 5% of mean decision latency —
measured the same way as ``benchmarks/bench_telemetry_overhead.py``,
by micro-timing the flag-check shape against the null sink.
``com-repro bench --service --check BENCH_service.json`` runs the
gates; the repo-root ``BENCH_service.json`` is the checked-in reference.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from repro.core import SimulatorConfig
from repro.core.events import EventKind
from repro.core.simulator import Scenario
from repro.service import (
    GatewayClient,
    JournalConfig,
    MatchingGateway,
    MatchingServer,
)
from repro.utils.timer import Stopwatch
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

__all__ = [
    "EVENT_DISABLED_BUDGET",
    "EVENT_OVERHEAD_BUDGET",
    "JOURNAL_OVERHEAD_BUDGET",
    "run_service_benchmark",
    "render_service_report",
    "check_service_regression",
]

#: Journaling may cost at most this fraction of unjournaled throughput.
JOURNAL_OVERHEAD_BUDGET = 0.15

#: A file-backed event log may cost at most this fraction of throughput.
EVENT_OVERHEAD_BUDGET = 0.15

#: With no sink attached, the event seam's flag checks may cost at most
#: this fraction of mean per-decision latency.
EVENT_DISABLED_BUDGET = 0.05

#: ``sink.enabled`` touchpoints a decision pays with events off: the
#: decision-loop emit guard, the resolution-hook guard, the admission
#: shed guard, and the periodic flush guard.
_EVENT_FLAG_CHECKS_PER_DECISION = 4


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _build(requests: int, workers: int) -> tuple[Scenario, SimulatorConfig]:
    scenario = SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=requests, worker_count=workers, horizon_seconds=7200.0
        )
    ).build(seed=5)
    config = SimulatorConfig(measure_response_time=False)
    return scenario, config


def _section(decided: int, elapsed: float, latencies: list[float]) -> dict:
    return {
        "requests": decided,
        "elapsed_seconds": elapsed,
        "requests_per_second": decided / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "p99": _percentile(latencies, 0.99),
        },
    }


#: Concurrent in-flight submissions while driving a gateway — models a
#: pipelined client population (and is what lets the journal group-commit).
_PIPELINE_WINDOW = 64


async def _drive_gateway(gateway: MatchingGateway, scenario: Scenario) -> dict:
    """Replay the trace with a bounded pipeline of in-flight submissions.

    Tasks are created in event order and the queue is unbounded, so jobs
    reach the decision loop in exactly trace order — the pipeline changes
    scheduling, never matching semantics.  This mirrors a live deployment
    (many connected clients, one serialized decision loop) rather than a
    lock-step caller that leaves the loop idle between events.
    """
    await gateway.start()
    latencies: list[float] = []
    watch = Stopwatch().start()
    decided = 0
    window: list[asyncio.Task] = []

    async def _settle() -> None:
        nonlocal decided
        for outcome in await asyncio.gather(*window):
            if outcome is not None:
                latencies.append(outcome.latency_ms)
                decided += 1
        window.clear()

    for event in scenario.events:
        gateway.clock.advance_to(event.time)  # type: ignore[attr-defined]
        if event.kind is EventKind.WORKER:
            window.append(
                asyncio.create_task(gateway.submit_worker(event.worker))
            )
        else:
            window.append(
                asyncio.create_task(gateway.submit_request(event.request))
            )
        if len(window) >= _PIPELINE_WINDOW:
            await _settle()
    await _settle()
    elapsed = watch.stop()
    await gateway.drain()
    return _section(decided, elapsed, latencies)


async def _bench_gateway(scenario: Scenario, config: SimulatorConfig) -> dict:
    """In-process: the decision loop without transport overhead."""
    gateway = MatchingGateway(scenario=scenario, algorithm="ramcom", config=config)
    return await _drive_gateway(gateway, scenario)


async def _bench_gateway_journaled(
    scenario: Scenario, config: SimulatorConfig, directory: str | Path
) -> dict:
    """In-process with the write-ahead journal on (interval fsync)."""
    gateway = MatchingGateway(
        scenario=scenario,
        algorithm="ramcom",
        config=config,
        journal=JournalConfig(directory=directory),
    )
    return await _drive_gateway(gateway, scenario)


async def _bench_gateway_events(
    scenario: Scenario, config: SimulatorConfig, directory: str | Path
) -> dict:
    """In-process with the ``COMEVT1`` event log writing to a file."""
    gateway = MatchingGateway(
        scenario=scenario,
        algorithm="ramcom",
        config=config,
        events=Path(directory) / "events.comevt",
    )
    return await _drive_gateway(gateway, scenario)


def _disabled_event_check_seconds(iterations: int = 200_000) -> float:
    """Per-touchpoint cost of the disabled event path's flag check.

    The seam with no sink attached is exactly ``if sink.enabled:`` on
    :data:`~repro.obs.events.NULL_EVENT_SINK` (``enabled`` is a class
    attribute reading ``False``) — time that shape directly, the same
    technique ``benchmarks/bench_telemetry_overhead.py`` uses for probes.
    """
    from repro.obs.events import NULL_EVENT_SINK

    sink = NULL_EVENT_SINK
    watch = Stopwatch().start()
    for _ in range(iterations):
        if sink.enabled:  # pragma: no cover - never taken
            sink.emit("decision", 0.0)
    return watch.stop() / iterations


async def _bench_tcp(scenario: Scenario, config: SimulatorConfig) -> dict:
    """Full stack: JSONL codec + loopback TCP + the decision loop."""
    server = MatchingServer(
        MatchingGateway(scenario=scenario, algorithm="ramcom", config=config)
    )
    host, port = await server.start()
    latencies: list[float] = []
    decided = 0
    try:
        async with GatewayClient(host, port) as client:
            watch = Stopwatch().start()
            for event in scenario.events:
                if event.kind is EventKind.WORKER:
                    await client.submit_worker(event.worker)
                else:
                    outcome = await client.submit_request(event.request)
                    latencies.append(outcome.latency_ms)
                    decided += 1
            elapsed = watch.stop()
            await client.drain()
    finally:
        await server.stop()
    return _section(decided, elapsed, latencies)


#: Paired repetitions of the two in-process sections.  Shared-machine
#: noise only ever *slows* a run, so the reported row is the fastest rep
#: and the overhead ratio is the best adjacent plain/journaled pair —
#: the least-contaminated observation of the true durability cost.
_BENCH_REPS = 5


def run_service_benchmark(quick: bool = False) -> dict:
    """The full payload (all modes); ``quick`` shrinks the trace for CI."""
    import tempfile

    requests, workers = (300, 100) if quick else (2000, 500)
    scenario, config = _build(requests, workers)
    gateway_row: dict = {}
    journal_row: dict = {}
    events_row: dict = {}
    journal_ratios: list[float] = []
    event_ratios: list[float] = []

    def _keep_best(best: dict, candidate: dict) -> dict:
        if (
            not best
            or candidate["requests_per_second"]
            > best["requests_per_second"]
        ):
            return candidate
        return best

    for __ in range(_BENCH_REPS):
        # Paired back-to-back so drift (thermal, noisy neighbours) hits
        # both sides of each ratio sample alike.
        plain = asyncio.run(_bench_gateway(scenario, config))
        with tempfile.TemporaryDirectory() as tmp:
            journaled = asyncio.run(
                _bench_gateway_journaled(scenario, config, tmp)
            )
        with tempfile.TemporaryDirectory() as tmp:
            evented = asyncio.run(
                _bench_gateway_events(scenario, config, tmp)
            )
        if plain["requests_per_second"] > 0:
            journal_ratios.append(
                journaled["requests_per_second"]
                / plain["requests_per_second"]
            )
            event_ratios.append(
                evented["requests_per_second"]
                / plain["requests_per_second"]
            )
        gateway_row = _keep_best(gateway_row, plain)
        journal_row = _keep_best(journal_row, journaled)
        events_row = _keep_best(events_row, evented)
    decision_seconds = (
        gateway_row["elapsed_seconds"] / gateway_row["requests"]
        if gateway_row.get("requests")
        else 0.0
    )
    disabled_fraction = (
        _EVENT_FLAG_CHECKS_PER_DECISION
        * _disabled_event_check_seconds()
        / decision_seconds
        if decision_seconds > 0
        else 0.0
    )
    return {
        "benchmark": "service",
        "schema": 5,
        "mode": "quick" if quick else "full",
        "gateway": gateway_row,
        "gateway_journal": journal_row,
        "gateway_events": events_row,
        "journal_overhead": {
            # Self-relative (both sides of each pair measured back to
            # back on the same machine), so the ratio is comparable
            # across machines and robust to one-sided noise.  Capped at
            # 1.0: an instrumented run outpacing plain is noise, and a
            # >1.0 reference would poison the drift gate's floor.
            "throughput_ratio": min(1.0, max(journal_ratios))
            if journal_ratios
            else 0.0,
            "budget": JOURNAL_OVERHEAD_BUDGET,
        },
        "event_overhead": {
            "throughput_ratio": min(1.0, max(event_ratios))
            if event_ratios
            else 0.0,
            "budget": EVENT_OVERHEAD_BUDGET,
            "disabled": {
                # Flag-check cost as a fraction of mean decision latency
                # — what a deployment without --events pays for the seam.
                "fraction": disabled_fraction,
                "budget": EVENT_DISABLED_BUDGET,
                "flag_checks_per_decision": _EVENT_FLAG_CHECKS_PER_DECISION,
            },
        },
        "tcp": asyncio.run(_bench_tcp(scenario, config)),
    }


def render_service_report(payload: dict) -> str:
    lines = [f"service benchmark ({payload['mode']})"]
    for section in (
        "gateway",
        "gateway_journal",
        "gateway_events",
        "tcp",
    ):
        row = payload.get(section)
        if row is None:
            continue
        latency = row["latency_ms"]
        lines.append(
            f"  {section:15s} {row['requests_per_second']:>9.0f} req/s   "
            f"p50 {latency['p50']:.3f} ms   p95 {latency['p95']:.3f} ms   "
            f"p99 {latency['p99']:.3f} ms   ({row['requests']} requests)"
        )
    overhead = payload["journal_overhead"]
    lines.append(
        f"  journal overhead: {1.0 - overhead['throughput_ratio']:.1%} of "
        f"throughput (budget {overhead['budget']:.0%})"
    )
    events = payload.get("event_overhead")
    if events is not None:
        disabled = events["disabled"]
        lines.append(
            f"  event overhead:   {1.0 - events['throughput_ratio']:.1%} of "
            f"throughput enabled (budget {events['budget']:.0%}); "
            f"disabled path {disabled['fraction']:.2%} of decision latency "
            f"(budget {disabled['budget']:.0%})"
        )
    return "\n".join(lines)


def check_service_regression(
    result: dict,
    reference_path: str | Path,
    tolerance: float = JOURNAL_OVERHEAD_BUDGET,
) -> list[str]:
    """Gate the instrumentation costs; returns human-readable failures.

    All gates run on machine-independent self-relative numbers: the
    journal and enabled-event-log throughput ratios must stay within
    their budgets and must not fall more than the budget below the
    checked-in reference's ratios (drift guard); the disabled event
    path's flag-check cost must stay within its fraction of mean
    decision latency.  Absolute req/s are reported but never gated on.
    """
    failures: list[str] = []
    reference = json.loads(Path(reference_path).read_text())

    def _gate_ratio(section: str, what: str, budget: float) -> None:
        measured = result[section]["throughput_ratio"]
        floor = 1.0 - budget
        if measured < floor:
            failures.append(
                f"{section}: {what} throughput is {measured:.3f}x plain, "
                f"below the {floor:.3f}x budget "
                f"({what} may cost at most {budget:.0%})"
            )
        reference_ratio = reference.get(section, {}).get("throughput_ratio")
        if reference_ratio is not None:
            drift_floor = reference_ratio * (1.0 - budget)
            if measured < drift_floor:
                failures.append(
                    f"{section}: ratio {measured:.3f}x fell below "
                    f"{drift_floor:.3f}x (reference {reference_ratio:.3f}x "
                    f"- {budget:.0%} tolerance)"
                )

    _gate_ratio("journal_overhead", "journaled", tolerance)
    events = result.get("event_overhead")
    if events is not None:
        _gate_ratio("event_overhead", "event-logged", events["budget"])
        disabled = events["disabled"]
        if disabled["fraction"] > disabled["budget"]:
            failures.append(
                f"event_overhead: disabled-path flag checks cost "
                f"{disabled['fraction']:.2%} of mean decision latency, "
                f"over the {disabled['budget']:.0%} budget"
            )
    return failures
