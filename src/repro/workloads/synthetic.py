"""Synthetic workloads — the Table-IV scalability sweeps.

The paper's synthetic datasets draw equal numbers of requests and workers
for each of the two cooperative platforms (sampled from RDC11 / RYC11,
keeping real locations and arrival times).  Our generator reproduces the
same knobs over the simulated city model:

* ``|R|`` in {500, 1000, **2500**, 5k, 10k, 20k, 50k, 100k} (total, split
  evenly between the two platforms),
* ``|W|`` in {100, 200, **500**, 1k, 2.5k, 5k, 10k, 20k},
* ``rad`` in {0.5, 1, 1.5, 2, 2.5} km,
* value distribution in {real, normal},

with bold values the defaults, exactly as Table IV.  Locations follow the
complementary-hotspot city (Fig. 2's imbalance), arrivals the diurnal
two-peak day.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.behavior.worker_model import BehaviorOracle
from repro.core.events import EventStream
from repro.core.simulator import Scenario
from repro.errors import ConfigurationError
from repro.geo.bbox import BoundingBox
from repro.utils.rng import SeedSequence
from repro.workloads.arrival import DiurnalArrivals, UniformArrivals
from repro.workloads.builders import (
    BehaviorConfig,
    populate_platform,
    register_behaviors,
)
from repro.workloads.spatial import complementary_hotspots
from repro.workloads.value_models import make_value_model

__all__ = ["SyntheticWorkloadConfig", "SyntheticWorkload"]

#: Table IV sweep values (totals across both platforms).
REQUEST_SWEEP = (500, 1000, 2500, 5000, 10_000, 20_000, 50_000, 100_000)
WORKER_SWEEP = (100, 200, 500, 1000, 2500, 5000, 10_000, 20_000)
RADIUS_SWEEP = (0.5, 1.0, 1.5, 2.0, 2.5)
DEFAULT_REQUESTS = 2500
DEFAULT_WORKERS = 500

#: Hotspot centres per synthetic city.
HOTSPOT_COUNT = 5


@dataclass
class SyntheticWorkloadConfig:
    """Knobs of one synthetic scenario (Table IV)."""

    request_count: int = DEFAULT_REQUESTS
    worker_count: int = DEFAULT_WORKERS
    radius_km: float = 1.0
    value_distribution: str = "real"
    #: City square side (km); the paper samples from the full Chengdu box.
    city_km: float = 20.0
    #: Fig.-2 imbalance between the platforms' worker/request densities.
    skew: float = 0.45
    arrival: str = "diurnal"
    horizon_seconds: float = 86_400.0
    history_length: int = 50
    platform_ids: tuple[str, str] = ("A", "B")
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)
    #: Optional worker shift length (seconds); None = wait all day.
    shift_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.request_count < 2 or self.worker_count < 2:
            raise ConfigurationError("need at least one request/worker per platform")
        if len(self.platform_ids) != 2:
            raise ConfigurationError("synthetic workloads model two platforms")
        if self.arrival not in ("diurnal", "uniform"):
            raise ConfigurationError(f"unknown arrival process {self.arrival!r}")


class SyntheticWorkload:
    """Builds :class:`~repro.core.simulator.Scenario` objects from a config."""

    def __init__(self, config: SyntheticWorkloadConfig | None = None):
        self.config = config or SyntheticWorkloadConfig()

    def build(self, seed: int = 0) -> Scenario:
        """Generate one scenario deterministically from ``seed``."""
        config = self.config
        seeds = SeedSequence(seed).child("synthetic")
        box = BoundingBox.square(config.city_km)
        value_model = make_value_model(config.value_distribution)
        if config.arrival == "diurnal":
            arrivals = DiurnalArrivals(config.horizon_seconds)
            # Drivers go on duty ahead of the demand peaks they serve.
            worker_arrivals: UniformArrivals | DiurnalArrivals = DiurnalArrivals(
                config.horizon_seconds,
                peak_hours=(7.0, 17.0),
                base_level=0.8,
            )
        else:
            arrivals = UniformArrivals(config.horizon_seconds)
            worker_arrivals = arrivals

        patterns = complementary_hotspots(
            box, HOTSPOT_COUNT, config.skew, seeds.rng("hotspots")
        )
        first, second = config.platform_ids
        pattern_map = {first: patterns["A"], second: patterns["B"]}

        populations = []
        per_platform_workers = config.worker_count // 2
        per_platform_requests = config.request_count // 2
        for platform_id in config.platform_ids:
            worker_pattern, request_pattern = pattern_map[platform_id]
            populations.append(
                populate_platform(
                    platform_id=platform_id,
                    worker_count=per_platform_workers,
                    request_count=per_platform_requests,
                    worker_pattern=worker_pattern,
                    request_pattern=request_pattern,
                    arrivals=arrivals,
                    value_model=value_model,
                    worker_arrivals=worker_arrivals,
                    radius_km=config.radius_km,
                    history_length=config.history_length,
                    seeds=seeds,
                    behavior=config.behavior,
                    shift_seconds=config.shift_seconds,
                )
            )

        oracle = BehaviorOracle(seed=seeds.derived_seed("oracle"))
        register_behaviors(oracle, populations)
        workers = [worker for pop in populations for worker in pop.workers]
        requests = [request for pop in populations for request in pop.requests]
        name = (
            f"synthetic-R{config.request_count}-W{config.worker_count}"
            f"-rad{config.radius_km}-{config.value_distribution}"
        )
        return Scenario(
            events=EventStream.from_entities(workers, requests),
            oracle=oracle,
            platform_ids=list(config.platform_ids),
            value_upper_bound=value_model.upper_bound,
            name=name,
        )
