"""Cluster benchmark: sharded throughput at 1/2/4/8 shards.

Measures the cluster the way an operator would size it: one dense
synthetic trace routed through :func:`~repro.cluster.server.local_cluster`
at each shard count, with the sanitizer on so every measured run also
proves the cluster-wide Def. 2.5/2.6 invariants held.

Two numbers per shard count:

``inline``
    wall-clock throughput of the whole cluster driven in one process on
    one event loop — router + shards share a single core, so this row
    shows the *coordination overhead* of sharding (forward fan-out,
    routing), not parallel speedup.  It may go down as shards go up;
    that is expected and never gated.

``parallel model``
    each shard's recorded arrival substream (exactly what the router
    sent it, forwarded re-drives included) is re-driven through a fresh
    solitary gateway and timed in isolation.  In a real deployment every
    shard is its own process, so cluster wall time is the *slowest
    shard's* time — the critical path.  ``modeled_speedup`` is the
    1-shard time over that critical path: the honest parallel speedup a
    balanced plan buys, measurable on any host because each shard is
    timed alone.  Load imbalance and forwarding duplicates are exactly
    what pull it below ideal ``N``x.

``python benchmarks/bench_cluster.py --quick --check BENCH_cluster.json`` gates the
modeled 4-shard speedup against :data:`SCALING_FLOOR` (2.5x) plus a
drift guard against the checked-in reference, and a conservation floor:
the cluster must complete at least :data:`CONSERVATION_FLOOR` of the
single-shard match count (cross-shard forwarding is what keeps border
requests from being lost to the partition).
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from repro.cluster.plan import ShardPlan, reach_from_events
from repro.cluster.server import drive_cluster, local_cluster
from repro.core import SimulatorConfig
from repro.core.simulator import Scenario
from repro.obs.events import EventLog, GatewayEvent
from repro.service.clock import VirtualClock
from repro.service.gateway import MatchingGateway
from repro.service.replay import REDRIVE_VERBS, recorded_arrivals
from repro.utils.timer import Stopwatch
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

__all__ = [
    "SCALING_FLOOR",
    "CONSERVATION_FLOOR",
    "run_cluster_benchmark",
    "render_cluster_report",
    "check_cluster_regression",
]

#: Modeled 4-shard speedup (1-shard time / 4-shard critical path) must
#: reach at least this — a balanced plan on 4 shards cuts the slowest
#: shard's work well past half.
SCALING_FLOOR = 2.5

#: The cluster must complete at least this fraction of the 1-shard match
#: count at every shard count (forwarding recovers border matches).
CONSERVATION_FLOOR = 0.8

#: Shard counts measured, in order; quick mode drops the last.
_SHARD_COUNTS = (1, 2, 4, 8)

#: Isolated per-shard drives repeated this many times; the kept time is
#: the fastest (shared-machine noise only ever slows a run).
_DRIVE_REPS = 3

#: Plan grid cell edge the bench partitions with — fine cells so the
#: density plan can track the synthetic city's hotspots and cooperation
#: (1 km worker radius) stays local to shard borders.
_CELL_KM = 1.0


def _build(requests: int, workers: int) -> tuple[Scenario, SimulatorConfig]:
    """A balanced-supply city trace with *local* cooperation reach.

    Workers match requests 1:1 so most decisions serve at home, and the
    1 km service radius keeps reject forwarding confined to actual shard
    borders — the regime sharding is for.  The synthetic city is
    spatially skewed (hotspots), which is why the bench partitions with
    the density-aware plan rather than uniform stripes.
    """
    scenario = SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=requests,
            worker_count=workers,
            radius_km=1.0,
            city_km=8.0,
            horizon_seconds=7200.0,
        )
    ).build(seed=11)
    config = SimulatorConfig(measure_response_time=False)
    return scenario, config


#: Concurrent in-flight submissions while driving a shard in isolation —
#: the same pipelined client population the service bench models, so the
#: serialized decision loop is never left idle between arrivals.
_PIPELINE_WINDOW = 64


async def _drive_substream(
    substream: list[GatewayEvent],
    scenario: Scenario,
    config: SimulatorConfig,
    algorithm: str,
) -> tuple[float, int]:
    """Time one shard's substream through a fresh solitary gateway.

    Tasks are created in substream order and the gateway queue is
    unbounded, so jobs reach the decision loop in exactly the order the
    router sent them — the pipeline changes scheduling, never matching
    semantics.
    """
    clock = VirtualClock()
    gateway = MatchingGateway(
        scenario, algorithm, config, clock=clock, events=EventLog(ring=0)
    )
    decided = 0
    window: list[asyncio.Task] = []
    await gateway.start()
    watch = Stopwatch().start()
    try:
        for kind, entity, __ in recorded_arrivals(substream, scenario):
            clock.advance_to(entity.arrival_time)
            window.append(
                asyncio.create_task(
                    getattr(gateway, REDRIVE_VERBS[kind])(entity)
                )
            )
            if kind == "decision":
                decided += 1
            if len(window) >= _PIPELINE_WINDOW:
                await asyncio.gather(*window)
                window.clear()
        if window:
            await asyncio.gather(*window)
            window.clear()
        await gateway.drain()
    finally:
        elapsed = watch.stop()
        if gateway.running:
            await gateway.stop()
    return elapsed, decided


async def _bench_shard_count(
    scenario: Scenario,
    config: SimulatorConfig,
    shard_count: int,
    algorithm: str,
) -> dict:
    """One shard count: inline cluster run + isolated per-shard times."""
    reach = reach_from_events(scenario.events)
    plan = ShardPlan.from_density(
        scenario.events, shard_count, _CELL_KM, reach_km=reach
    )
    router, logs, _clock = local_cluster(
        scenario, plan, algorithm=algorithm, config=config, sanitize=True
    )
    await router.start()
    try:
        watch = Stopwatch().start()
        result = await drive_cluster(router, scenario.events)
        inline_elapsed = watch.stop()
    finally:
        await router.stop()
    substreams = [
        [event for event in log.events() if event.kind != "meta"]
        for log in logs
    ]
    shard_times: list[float] = []
    decided_per_shard: list[int] = []
    for substream in substreams:
        best = float("inf")
        decided = 0
        for __ in range(_DRIVE_REPS):
            elapsed, decided = await _drive_substream(
                substream, scenario, config, algorithm
            )
            best = min(best, elapsed)
        shard_times.append(best)
        decided_per_shard.append(decided)
    critical_path = max(shard_times) if shard_times else 0.0
    total_decisions = sum(decided_per_shard)
    completed = sum(result.row["completed"].values())
    return {
        "shards": shard_count,
        "completed": completed,
        "forwards": result.forwards,
        "cross_shard_serves": result.cross_shard_serves,
        "inline": {
            "elapsed_seconds": inline_elapsed,
            "requests_per_second": (
                result.row.get("completed_total", completed) / inline_elapsed
                if inline_elapsed > 0
                else 0.0
            ),
        },
        "shard_seconds": shard_times,
        "shard_decisions": decided_per_shard,
        "critical_path_seconds": critical_path,
        "decisions_per_second": (
            total_decisions / critical_path if critical_path > 0 else 0.0
        ),
    }


def run_cluster_benchmark(quick: bool = False, algorithm: str = "ramcom") -> dict:
    """The full payload: one section per shard count plus the scaling row."""
    import os

    requests, workers = (400, 400) if quick else (1600, 1600)
    scenario, config = _build(requests, workers)
    counts = _SHARD_COUNTS[:-1] if quick else _SHARD_COUNTS
    sections: dict[str, dict] = {}
    for count in counts:
        sections[str(count)] = asyncio.run(
            _bench_shard_count(scenario, config, count, algorithm)
        )
    base = sections["1"]["critical_path_seconds"]
    scaling: dict[str, float] = {}
    for count in counts[1:]:
        path = sections[str(count)]["critical_path_seconds"]
        scaling[str(count)] = base / path if path > 0 else 0.0
    return {
        "benchmark": "cluster",
        "schema": 1,
        "mode": "quick" if quick else "full",
        "algorithm": algorithm,
        "cpus": os.cpu_count() or 1,
        "trace": {"requests": requests, "workers": workers},
        "sanitized": True,
        "shard_counts": list(counts),
        "sections": sections,
        "scaling": {
            # 1-shard critical path over each N-shard critical path: the
            # parallel speedup a real N-process deployment realizes.
            "modeled_speedup": scaling,
            "floor": SCALING_FLOOR,
            "conservation_floor": CONSERVATION_FLOOR,
        },
    }


def render_cluster_report(payload: dict) -> str:
    lines = [
        f"cluster benchmark ({payload['mode']}, "
        f"{payload['trace']['requests']} requests, sanitizer on)"
    ]
    for count in payload["shard_counts"]:
        row = payload["sections"][str(count)]
        speedup = payload["scaling"]["modeled_speedup"].get(str(count))
        modeled = f"   modeled {speedup:.2f}x" if speedup is not None else ""
        lines.append(
            f"  {count} shard(s): critical path "
            f"{row['critical_path_seconds'] * 1000:>8.1f} ms   "
            f"{row['decisions_per_second']:>8.0f} dec/s   "
            f"completed {row['completed']:>4d}   "
            f"forwards {row['forwards']:>4d}{modeled}"
        )
    lines.append(
        f"  gate: modeled 4-shard speedup >= "
        f"{payload['scaling']['floor']:.1f}x, completion >= "
        f"{payload['scaling']['conservation_floor']:.0%} of 1-shard"
    )
    return "\n".join(lines)


def check_cluster_regression(
    result: dict,
    reference_path: str | Path,
    tolerance: float = 0.15,
) -> list[str]:
    """Gate scaling and conservation; returns human-readable failures.

    The modeled speedup is built from per-shard times measured in
    isolation on the same host, so the ratio is machine-independent —
    it is gated against the absolute :data:`SCALING_FLOOR` and, with
    ``tolerance`` slack, against the checked-in reference's ratio.
    Absolute decisions/sec are reported but never gated on.
    """
    failures: list[str] = []
    reference = json.loads(Path(reference_path).read_text())
    speedups = result["scaling"]["modeled_speedup"]
    floor = result["scaling"]["floor"]
    # Quick mode runs a trace small enough that scheduler noise moves the
    # critical path by ~10%; it gates against the floor with the same
    # slack as the reference drift, while full mode gates strictly.
    if result.get("mode") == "quick":
        floor *= 1.0 - tolerance
    measured_4 = speedups.get("4")
    if measured_4 is None:
        failures.append("scaling: no 4-shard section in the bench payload")
    elif measured_4 < floor:
        failures.append(
            f"scaling: modeled 4-shard speedup is {measured_4:.2f}x, below "
            f"the {floor:.2f}x floor (shard plan too imbalanced or "
            f"forwarding duplicating too much work)"
        )
    reference_4 = (
        reference.get("scaling", {}).get("modeled_speedup", {}).get("4")
    )
    if measured_4 is not None and reference_4 is not None:
        drift_floor = reference_4 * (1.0 - tolerance)
        if measured_4 < drift_floor:
            failures.append(
                f"scaling: modeled 4-shard speedup {measured_4:.2f}x fell "
                f"below {drift_floor:.2f}x (reference {reference_4:.2f}x - "
                f"{tolerance:.0%} tolerance)"
            )
    conservation = result["scaling"]["conservation_floor"]
    base_completed = result["sections"]["1"]["completed"]
    for count in result["shard_counts"]:
        completed = result["sections"][str(count)]["completed"]
        if base_completed > 0 and completed < conservation * base_completed:
            failures.append(
                f"conservation: {count}-shard cluster completed "
                f"{completed}/{base_completed} matches, below the "
                f"{conservation:.0%} floor — cross-shard forwarding is "
                f"losing border requests"
            )
    return failures
