"""Problem entities: requests and crowd workers.

Definitions 2.1-2.3 of the paper.  A request is ``<t, l_r, v_r>``; a worker
is ``<t, l_w, rad_w>`` plus, in this implementation, the identity of the
home platform — "inner" vs "outer" (Definitions 2.2/2.3) is *relative* to
the platform handling a request, so it is not a property of the worker but
of the (worker, platform) pair: a worker is inner for the platform whose
id equals its ``platform_id``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.geo.point import Point

__all__ = ["Request", "Worker"]


@dataclass(frozen=True, slots=True)
class Request:
    """A user request (Definition 2.1): ``r = <t, l_r, v_r>``.

    Attributes
    ----------
    request_id:
        Globally unique id (unique across platforms).
    platform_id:
        The platform the user submitted the request to (its *target*
        platform).
    arrival_time:
        Arrival timestamp ``t`` (seconds from epoch of the scenario).
    location:
        ``l_r`` — the pickup location in the planar city model (km).
    value:
        ``v_r`` — what the requester pays the platform on completion.
    """

    request_id: str
    platform_id: str
    arrival_time: float
    location: Point
    value: float

    def __reduce__(self):
        # Positional: pickling skips dataclasses' per-object __getstate__.
        return (
            Request,
            (
                self.request_id,
                self.platform_id,
                self.arrival_time,
                self.location,
                self.value,
            ),
        )

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ConfigurationError(
                f"request {self.request_id}: value must be positive, got {self.value}"
            )
        if self.arrival_time < 0:
            raise ConfigurationError(
                f"request {self.request_id}: arrival_time must be >= 0"
            )


@dataclass(frozen=True, slots=True)
class Worker:
    """A crowd worker (Definitions 2.2/2.3): ``w = <t, l_w, rad_w>``.

    Attributes
    ----------
    worker_id:
        Globally unique id (unique across platforms).
    platform_id:
        The worker's home platform.
    arrival_time:
        When the worker joined the waiting list.
    location:
        Current location (km).
    service_radius:
        ``rad_w`` — the worker serves requests within this radius (km).
    shareable:
        Whether the home platform exposes this worker to cooperative
        platforms through the exchange (Definition 2.3).  Experiments keep
        this True; the ablation benches flip it.
    departure_time:
        Optional end of the worker's shift: once reached, a still-waiting
        worker leaves every waiting list (extension; the paper's workers
        wait indefinitely).  ``None`` means no departure.
    """

    worker_id: str
    platform_id: str
    arrival_time: float
    location: Point
    service_radius: float
    shareable: bool = field(default=True)
    departure_time: float | None = field(default=None)

    def __reduce__(self):
        # Positional: pickling skips dataclasses' per-object __getstate__.
        return (
            Worker,
            (
                self.worker_id,
                self.platform_id,
                self.arrival_time,
                self.location,
                self.service_radius,
                self.shareable,
                self.departure_time,
            ),
        )

    def __post_init__(self) -> None:
        if self.service_radius <= 0:
            raise ConfigurationError(
                f"worker {self.worker_id}: service_radius must be positive, "
                f"got {self.service_radius}"
            )
        if self.arrival_time < 0:
            raise ConfigurationError(
                f"worker {self.worker_id}: arrival_time must be >= 0"
            )
        if self.departure_time is not None and self.departure_time < self.arrival_time:
            raise ConfigurationError(
                f"worker {self.worker_id}: departure_time precedes arrival"
            )

    def on_shift_at(self, time: float) -> bool:
        """True iff the worker is within their shift window at ``time``."""
        if time < self.arrival_time:
            return False
        return self.departure_time is None or time <= self.departure_time

    def can_reach(self, request: Request) -> bool:
        """Range constraint: request location inside the service disk."""
        return self.location.within(request.location, self.service_radius)

    def arrived_before(self, request: Request) -> bool:
        """Time constraint: worker waiting when the request arrives."""
        return self.arrival_time <= request.arrival_time
