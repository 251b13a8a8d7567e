"""Tests for entities (Definitions 2.1-2.3) and arrival streams."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.entities import Request, Worker
from repro.core.events import ArrivalEvent, EventKind, EventStream
from repro.core.matching import AssignmentKind, MatchRecord
from repro.errors import ConfigurationError
from repro.geo.point import Point

from conftest import make_request, make_worker


class TestRequest:
    def test_value_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            make_request(value=0.0)
        with pytest.raises(ConfigurationError):
            make_request(value=-1.0)

    def test_negative_arrival_raises(self):
        with pytest.raises(ConfigurationError):
            make_request(t=-1.0)

    def test_frozen(self):
        request = make_request()
        with pytest.raises(AttributeError):
            request.value = 5.0  # type: ignore[misc]


class TestWorker:
    def test_radius_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            make_worker(radius=0.0)

    def test_can_reach_boundary(self):
        worker = make_worker(x=0, y=0, radius=1.0)
        assert worker.can_reach(make_request(x=1.0, y=0.0))
        assert not worker.can_reach(make_request(x=1.01, y=0.0))

    def test_arrived_before(self):
        worker = make_worker(t=5.0)
        assert worker.arrived_before(make_request(t=5.0))
        assert worker.arrived_before(make_request(t=6.0))
        assert not worker.arrived_before(make_request(t=4.0))

    def test_default_shareable(self):
        assert make_worker().shareable


class TestArrivalEvent:
    def test_kind_payload_consistency(self):
        with pytest.raises(ConfigurationError):
            ArrivalEvent(time=0.0, kind=EventKind.WORKER)
        with pytest.raises(ConfigurationError):
            ArrivalEvent(time=0.0, kind=EventKind.REQUEST)

    def test_constructors(self):
        worker = make_worker(t=3.0)
        event = ArrivalEvent.of_worker(worker)
        assert event.time == 3.0 and event.kind is EventKind.WORKER

    def test_sort_key_workers_first_on_tie(self):
        worker = make_worker("w", t=1.0)
        request = make_request("r", t=1.0)
        assert ArrivalEvent.of_worker(worker).sort_key() < ArrivalEvent.of_request(
            request
        ).sort_key()


class TestEventStream:
    def test_orders_by_time(self):
        workers = [make_worker("w1", t=5.0), make_worker("w2", t=1.0)]
        requests = [make_request("r1", t=3.0)]
        stream = EventStream.from_entities(workers, requests)
        times = [event.time for event in stream]
        assert times == sorted(times)

    def test_paper_table2_order(self):
        """The arrival order of the paper's Table II round-trips."""
        ids = ["w1", "w2", "r1", "w3", "r2", "r3", "w4", "r4", "w5", "r5"]
        workers, requests = [], []
        for t, entity_id in enumerate(ids, start=1):
            if entity_id.startswith("w"):
                workers.append(make_worker(entity_id, t=float(t)))
            else:
                requests.append(make_request(entity_id, t=float(t)))
        stream = EventStream.from_entities(workers, requests)
        observed = [
            (e.worker.worker_id if e.kind is EventKind.WORKER else e.request.request_id)
            for e in stream
        ]
        assert observed == ids

    def test_workers_requests_accessors(self):
        stream = EventStream.from_entities(
            [make_worker("w", t=0)], [make_request("r", t=1)]
        )
        assert [w.worker_id for w in stream.workers] == ["w"]
        assert [r.request_id for r in stream.requests] == ["r"]

    def test_len_and_getitem(self):
        stream = EventStream.from_entities([make_worker()], [make_request()])
        assert len(stream) == 2
        assert stream[0].kind is EventKind.WORKER

    def test_reordered_rewrites_times(self):
        stream = EventStream.from_entities(
            [make_worker("w", t=0)], [make_request("r", t=1)]
        )
        flipped = stream.reordered([1, 0])
        assert flipped[0].kind is EventKind.REQUEST
        assert flipped[0].time == 0.0
        assert flipped[1].time == 1.0

    def test_reordered_requires_permutation(self):
        stream = EventStream.from_entities([make_worker()], [make_request()])
        with pytest.raises(ConfigurationError):
            stream.reordered([0, 0])

    def test_reordered_preserves_payloads(self):
        worker = make_worker("w", x=3.3, radius=2.0)
        request = make_request("r", value=7.5)
        stream = EventStream.from_entities([worker], [request])
        flipped = stream.reordered([1, 0])
        assert flipped.workers[0].location == Point(3.3, 0.0)
        assert flipped.workers[0].service_radius == 2.0
        assert flipped.requests[0].value == 7.5



def _records() -> list:
    worker = make_worker("w", "B", 2.0, x=0.25)
    shifted = Worker("s", "A", 1.0, Point(0.5, 0.5), 2.0, False, 9.0)
    request = make_request("r", "A", 4.0, x=0.75, value=8.0)
    return [
        Point(1.5, -2.25),
        request,
        worker,
        shifted,
        ArrivalEvent.of_worker(worker),
        ArrivalEvent.of_request(request),
        MatchRecord(request, worker, AssignmentKind.OUTER, 3.5, 4.0, 0.5),
        MatchRecord(request, shifted, AssignmentKind.INNER, decision_time=4.0),
    ]


class TestRecordRoundTrips:
    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    @pytest.mark.parametrize(
        "round_trip",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_round_trip_is_equal_and_same_type(self, record, round_trip):
        restored = round_trip(record)
        assert type(restored) is type(record)
        assert restored == record
