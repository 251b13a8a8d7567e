"""Arrival events and streams.

The COM problem is *online*: workers and requests arrive sequentially in one
interleaved order (the paper's Table II).  :class:`EventStream` holds such an
order, the global order the simulator consumes.

Tie-breaking: events at the same timestamp are ordered workers-first (a
worker arriving "at the same instant" as a request may serve it — matching
the paper's example where w_1 at t_1 serves r_1 at t_3 and keeping the time
constraint `arrival_time <= request.arrival_time` consistent), then by id
for determinism.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.core.entities import Request, Worker
from repro.errors import ConfigurationError

__all__ = ["EventKind", "ArrivalEvent", "EventStream"]


class EventKind(enum.Enum):
    """What arrived."""

    WORKER = "worker"
    REQUEST = "request"


@dataclass(frozen=True, slots=True)
class ArrivalEvent:
    """One arrival: a worker or a request, at a timestamp."""

    time: float
    kind: EventKind
    worker: Worker | None = None
    request: Request | None = None

    def __reduce__(self):
        # Positional: pickling skips dataclasses' per-object __getstate__.
        return (ArrivalEvent, (self.time, self.kind, self.worker, self.request))

    def __post_init__(self) -> None:
        if self.kind is EventKind.WORKER and self.worker is None:
            raise ConfigurationError("WORKER event without a worker")
        if self.kind is EventKind.REQUEST and self.request is None:
            raise ConfigurationError("REQUEST event without a request")

    @classmethod
    def of_worker(cls, worker: Worker) -> "ArrivalEvent":
        """Wrap a worker arrival."""
        return cls(time=worker.arrival_time, kind=EventKind.WORKER, worker=worker)

    @classmethod
    def of_request(cls, request: Request) -> "ArrivalEvent":
        """Wrap a request arrival."""
        return cls(time=request.arrival_time, kind=EventKind.REQUEST, request=request)

    def sort_key(self) -> tuple[float, int, str]:
        """Stable global ordering: time, workers before requests, id."""
        if self.kind is EventKind.WORKER:
            assert self.worker is not None
            return (self.time, 0, self.worker.worker_id)
        assert self.request is not None
        return (self.time, 1, self.request.request_id)


class EventStream:
    """A time-ordered sequence of arrival events.

    Construction sorts defensively; iteration yields events in order.
    """

    def __init__(self, events: Iterable[ArrivalEvent] = ()):
        self._events: list[ArrivalEvent] = sorted(events, key=ArrivalEvent.sort_key)

    @classmethod
    def from_entities(
        cls, workers: Sequence[Worker], requests: Sequence[Request]
    ) -> "EventStream":
        """Build a stream from worker and request collections."""
        events = [ArrivalEvent.of_worker(worker) for worker in workers]
        events.extend(ArrivalEvent.of_request(request) for request in requests)
        return cls(events)

    def __iter__(self) -> Iterator[ArrivalEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index: int) -> ArrivalEvent:
        return self._events[index]

    @property
    def workers(self) -> list[Worker]:
        """All worker arrivals, in order."""
        return [e.worker for e in self._events if e.kind is EventKind.WORKER]

    @property
    def requests(self) -> list[Request]:
        """All request arrivals, in order."""
        return [e.request for e in self._events if e.kind is EventKind.REQUEST]

    def reordered(self, order: Sequence[int]) -> "EventStream":
        """A stream with the same events in a caller-chosen order.

        Used by the competitive-ratio experiments, which enumerate arrival
        orders.  Timestamps are rewritten to 0..n-1 so the new order is also
        the new time order.
        """
        if sorted(order) != list(range(len(self._events))):
            raise ConfigurationError("order must be a permutation of event indices")
        events = []
        for new_time, index in enumerate(order):
            event = self._events[index]
            if event.kind is EventKind.WORKER:
                assert event.worker is not None
                worker = Worker(
                    worker_id=event.worker.worker_id,
                    platform_id=event.worker.platform_id,
                    arrival_time=float(new_time),
                    location=event.worker.location,
                    service_radius=event.worker.service_radius,
                    shareable=event.worker.shareable,
                )
                events.append(ArrivalEvent.of_worker(worker))
            else:
                assert event.request is not None
                request = Request(
                    request_id=event.request.request_id,
                    platform_id=event.request.platform_id,
                    arrival_time=float(new_time),
                    location=event.request.location,
                    value=event.request.value,
                )
                events.append(ArrivalEvent.of_request(request))
        return EventStream(events)
