"""The four benchmark workloads and the trace they run on.

Every workload runs the roadmap's synthetic city: ``R`` requests and
``R * 4 / 15`` workers over two platforms, with the city side scaled so
that ``R / city_km**2`` stays at ``3000 / 6**2``, reentry on and an
1800-second service time.

The hotspot layout of the city is fixed (the layout of trace seed 17);
the ``--seed`` argument draws everything else: arrival times, locations
within the hotspots, values and worker histories.  With a free layout the
five random hotspot centres alone swing DemCOM's cooperative share by 3x
and its throughput by a quarter from one seed to the next, which no
regression bound could absorb.  For seed 17 the trace is exactly
``SyntheticWorkload(config).build(17)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.simulator import Scenario, SimulatorConfig
from repro.utils.rng import SeedSequence
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig, synthetic

LAYOUT_SEED = 17
BASE_REQUESTS = 3000
BASE_CITY_KM = 6.0

#: Batch workloads cycle over this many traces drawn from one ``--seed``,
#: so a run averages over inputs; few enough that even RamCOM, at 1.3-2 s
#: a replay, replays each trace several times in a run.
BATCH_TRACES = 2

#: Every run uses this algorithm seed.  RamCOM draws its value threshold
#: ``e^k``, ``k ~ U{1..5}``, per platform from it, which decides whether 0%
#: or 100% of a platform's requests reach the pricer; seed 3 draws k = 3 on
#: both platforms (70% of requests below the threshold).  Letting the seed
#: vary would make a run's cost a lottery over k.
ALGORITHM_SEED = 3


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    why: str
    #: Open-loop arrival rate (requests per second); None for batch.
    rate: float | None = None

    @property
    def served(self) -> bool:
        return self.rate is not None


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "ramcom-batch",
            "ramcom",
            why="Simulator.run RamCOM on 3000-request traces: the MER pricer is "
            "two thirds of the time; journal, events and transport do nothing",
        ),
        Workload(
            "demcom-batch",
            "demcom",
            why="Simulator.run DemCOM on the same traces: inner queries, decision "
            "apply and the finalize memory walk dominate; the pricer does nothing",
        ),
        Workload(
            "ramcom-serve",
            "ramcom",
            why="RamCOM served over TCP with journal and events, open loop at 250 req/s: "
            "the engine sets latency; the open loop writes only the set-up checkpoint",
            rate=250.0,
        ),
        Workload(
            "demcom-serve",
            "demcom",
            why="DemCOM served over TCP, open loop at 500 req/s: transport, journal, "
            "events and periodic checkpoint stalls carry the load",
            rate=500.0,
        ),
    )
}


def trace_config(requests: int) -> SyntheticWorkloadConfig:
    """The synthetic-city knobs for a trace of ``requests`` requests."""
    return SyntheticWorkloadConfig(
        request_count=requests,
        worker_count=requests * 4 // 15,
        city_km=BASE_CITY_KM * math.sqrt(requests / BASE_REQUESTS),
    )


def build_trace(requests: int, seed: int) -> Scenario:
    """One trace: ``SyntheticWorkload.build(seed)`` with the hotspot layout
    of :data:`LAYOUT_SEED`.

    The library draws the layout through the module global
    ``complementary_hotspots``; for the length of the build that global
    is swapped for one that ignores the seed's stream and uses the fixed
    layout stream instead.
    """
    layout = SeedSequence(LAYOUT_SEED).child("synthetic").rng("hotspots")
    draw_hotspots = synthetic.complementary_hotspots

    def fixed_layout(box, count, skew, rng):
        return draw_hotspots(box, count, skew, layout)

    synthetic.complementary_hotspots = fixed_layout
    try:
        return SyntheticWorkload(trace_config(requests)).build(seed)
    finally:
        synthetic.complementary_hotspots = draw_hotspots


def batch_trace_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th batch trace of a run (index 0 is ``seed``)."""
    return seed + index * 1_000_003


def sim_config(**overrides: object) -> SimulatorConfig:
    """The engine configuration every workload shares (the ``serve`` defaults:
    python payment backend, no micro-batching)."""
    settings: dict = dict(
        seed=ALGORITHM_SEED,
        worker_reentry=True,
        service_duration=1800.0,
        measure_response_time=False,
        payment_backend="python",
    )
    settings.update(overrides)
    return SimulatorConfig(**settings)
