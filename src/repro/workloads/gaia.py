"""Simulated DiDi/Yueche city traces — the Table-III stand-ins.

The paper evaluates on proprietary ride-hailing traces (DiDi GAIA and a
Yueche dump) from Chengdu and Xi'an, Oct/Nov 2016.  Those traces are not
redistributable and unavailable offline, so — per the substitution rule in
DESIGN.md — this module generates city traces matched on every statistic
the COM algorithms actually consume:

* per-company daily request/worker counts (Table III rows, scalable),
* the request/worker ratio (Chengdu ~10, Xi'an ~21-24 — the paper's
  "worker-scarce Xi'an" contrast),
* a hotspot-skewed spatial layout with complementary imbalance between the
  two companies (Fig. 2),
* a two-peak diurnal arrival profile,
* a fare-like value distribution (mean ~=19-20 CNY, hard ceiling 100).

Scaling: ``scale`` multiplies entity counts and shrinks all spatial lengths
by ``sqrt(scale)`` **except the service radius**, so the expected number of
workers inside a request's service disk — the quantity that drives matching
behaviour — is invariant across scales.  Tables V-VII run at a reduced
scale by default (documented in EXPERIMENTS.md); pass ``scale=1.0`` to
regenerate full-size instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.behavior.worker_model import BehaviorOracle
from repro.core.events import EventStream
from repro.core.simulator import Scenario
from repro.errors import ConfigurationError
from repro.geo.bbox import BoundingBox
from repro.utils.rng import SeedSequence
from repro.workloads.arrival import DiurnalArrivals
from repro.workloads.builders import (
    BehaviorConfig,
    populate_platform,
    register_behaviors,
)
from repro.workloads.spatial import complementary_hotspots
from repro.workloads.value_models import RealFareModel

__all__ = ["CityTraceConfig", "CityTraceGenerator"]

#: Hotspot centres per city trace.
HOTSPOT_COUNT = 6


@dataclass(frozen=True)
class CityTraceConfig:
    """Full-scale description of one two-company city-month trace pair."""

    name: str
    #: company id -> average daily request count (Table III's |R|).
    requests_per_platform: dict[str, int]
    #: company id -> average daily worker count (Table III's |W|).
    workers_per_platform: dict[str, int]
    radius_km: float = 1.0
    city_km: float = 20.0
    skew: float = 0.45
    history_length: int = 50
    horizon_seconds: float = 86_400.0
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)

    def __post_init__(self) -> None:
        if set(self.requests_per_platform) != set(self.workers_per_platform):
            raise ConfigurationError("request/worker platform ids must match")
        if len(self.requests_per_platform) != 2:
            raise ConfigurationError("city traces model exactly two companies")
        if self.radius_km <= 0 or self.city_km <= 0:
            raise ConfigurationError("radius and city size must be positive")

    @property
    def platform_ids(self) -> list[str]:
        """The two company ids, in declaration order."""
        return list(self.requests_per_platform.keys())


class CityTraceGenerator:
    """Generates scenarios from a :class:`CityTraceConfig`."""

    def __init__(self, config: CityTraceConfig):
        self.config = config

    def build(self, seed: int = 0, scale: float = 1.0) -> Scenario:
        """Build one day's trace at ``scale`` (entity counts x scale,
        spatial lengths x sqrt(scale), radius unchanged)."""
        if not 0 < scale <= 1.0:
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        config = self.config
        length_factor = math.sqrt(scale)
        side_km = max(config.radius_km * 2.0, config.city_km * length_factor)
        box = BoundingBox.square(side_km)
        sigma_km = max(0.15, 1.2 * length_factor)
        seeds = SeedSequence(seed).child(f"gaia/{config.name}")
        value_model = RealFareModel()
        arrivals = DiurnalArrivals(config.horizon_seconds)
        # Drivers go on duty ahead of the demand peaks they serve.
        worker_arrivals = DiurnalArrivals(
            config.horizon_seconds,
            peak_hours=(7.0, 17.0),
            base_level=0.8,
        )

        patterns = complementary_hotspots(
            box,
            HOTSPOT_COUNT,
            config.skew,
            seeds.rng("hotspots"),
            sigma_km=sigma_km,
        )
        first, second = config.platform_ids
        pattern_map = {first: patterns["A"], second: patterns["B"]}

        populations = []
        for platform_id in config.platform_ids:
            worker_pattern, request_pattern = pattern_map[platform_id]
            worker_count = max(1, round(config.workers_per_platform[platform_id] * scale))
            request_count = max(1, round(config.requests_per_platform[platform_id] * scale))
            populations.append(
                populate_platform(
                    platform_id=platform_id,
                    worker_count=worker_count,
                    request_count=request_count,
                    worker_pattern=worker_pattern,
                    request_pattern=request_pattern,
                    arrivals=arrivals,
                    value_model=value_model,
                    worker_arrivals=worker_arrivals,
                    radius_km=config.radius_km,
                    history_length=config.history_length,
                    seeds=seeds,
                    behavior=config.behavior,
                )
            )

        oracle = BehaviorOracle(seed=seeds.derived_seed("oracle"))
        register_behaviors(oracle, populations)
        workers = [worker for pop in populations for worker in pop.workers]
        requests = [request for pop in populations for request in pop.requests]
        return Scenario(
            events=EventStream.from_entities(workers, requests),
            oracle=oracle,
            platform_ids=config.platform_ids,
            value_upper_bound=value_model.upper_bound,
            name=f"{config.name}@{scale:g}",
        )
