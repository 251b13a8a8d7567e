"""Service-time models — how long an assignment occupies a worker.

The baseline model (the tables' default) occupies every worker for a
constant ``service_duration``.  Realistically a taxi engagement is
*pickup travel* (worker → request location at street speed) plus the
*trip itself* (correlated with the fare: longer rides cost more).
:class:`TravelAwareServiceTime` lets the simulator's reentry scheduling
use that structure: pickup at ``speed_kmh`` + a fare-proportional trip
duration with multiplicative jitter.

Durations are deterministic per (worker, request) via the usual labelled
RNG derivation, so reentry timing — like everything else — is a pure
function of the experiment seed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.entities import Request, Worker
from repro.errors import ConfigurationError
from repro.utils.rng import derive_rng

__all__ = ["ServiceTimeModel", "TravelAwareServiceTime"]


class ServiceTimeModel(ABC):
    """Maps one assignment to the seconds it occupies the worker."""

    @abstractmethod
    def duration(self, worker: Worker, request: Request, seed: int) -> float:
        """Occupation time in seconds (must be positive)."""


class TravelAwareServiceTime(ServiceTimeModel):
    """Pickup travel + fare-proportional trip duration.

    Parameters
    ----------
    speed_kmh:
        Street speed for the pickup leg (km/h).
    seconds_per_value:
        Trip seconds per unit of fare — the fare proxies trip length
        (e.g. ~60 s/CNY makes a 20-CNY ride a ~20-minute engagement).
    jitter:
        Multiplicative lognormal-ish noise on the trip leg (fraction);
        0 disables it.
    minimum_seconds:
        Floor on the total engagement (boarding, payment, ...).
    """

    def __init__(
        self,
        speed_kmh: float = 25.0,
        seconds_per_value: float = 60.0,
        jitter: float = 0.15,
        minimum_seconds: float = 180.0,
    ):
        if speed_kmh <= 0:
            raise ConfigurationError(f"speed must be positive, got {speed_kmh}")
        if seconds_per_value < 0 or jitter < 0 or minimum_seconds <= 0:
            raise ConfigurationError("invalid service-time parameters")
        self.speed_kmh = speed_kmh
        self.seconds_per_value = seconds_per_value
        self.jitter = jitter
        self.minimum_seconds = minimum_seconds

    def duration(self, worker: Worker, request: Request, seed: int) -> float:
        pickup_km = worker.location.distance_to(request.location)
        pickup_seconds = pickup_km / self.speed_kmh * 3600.0
        trip_seconds = request.value * self.seconds_per_value
        if self.jitter > 0:
            rng = derive_rng(
                seed, f"service/{worker.worker_id}/{request.request_id}"
            )
            trip_seconds *= max(0.25, rng.gauss(1.0, self.jitter))
        return max(self.minimum_seconds, pickup_seconds + trip_seconds)

    def __repr__(self) -> str:
        return (
            f"TravelAwareServiceTime(speed={self.speed_kmh:g}km/h, "
            f"{self.seconds_per_value:g}s/value)"
        )
