"""Tests for waiting lists and the cooperation exchange."""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exchange import CooperationExchange
from repro.core.simulator import SimulationSession
from repro.core.waiting_list import WaitingList
from repro.errors import ExchangeUnavailableError, SimulationError
from repro.faults import FaultInjector, FaultPlan, OutageWindow, ResilientExchange
from repro.geo import BoundingBox, RoadNetwork

from conftest import make_request, make_worker


class TestWaitingList:
    def test_add_and_len(self):
        waiting = WaitingList()
        waiting.add(make_worker("w1"))
        assert len(waiting) == 1
        assert "w1" in waiting

    def test_duplicate_add_raises(self):
        waiting = WaitingList()
        waiting.add(make_worker("w1"))
        with pytest.raises(SimulationError):
            waiting.add(make_worker("w1"))

    def test_remove_returns_worker(self):
        waiting = WaitingList()
        worker = make_worker("w1")
        waiting.add(worker)
        assert waiting.remove("w1") is worker
        assert len(waiting) == 0

    def test_remove_missing_raises(self):
        with pytest.raises(SimulationError):
            WaitingList().remove("ghost")

    def test_iteration_in_arrival_order(self):
        waiting = WaitingList()
        for worker_id, t in (("a", 3.0), ("b", 1.0), ("c", 2.0)):
            waiting.add(make_worker(worker_id, t=t))
        # Insertion order is the simulator's arrival order.
        assert [w.worker_id for w in waiting] == ["a", "b", "c"]

    def test_eligible_filters_time(self):
        waiting = WaitingList()
        waiting.add(make_worker("early", t=0.0))
        waiting.add(make_worker("late", t=10.0, x=0.1))
        eligible = waiting.eligible_for(make_request(t=5.0))
        assert [w.worker_id for w in eligible] == ["early"]

    def test_eligible_filters_range(self):
        waiting = WaitingList()
        waiting.add(make_worker("near", x=0.5, radius=1.0))
        waiting.add(make_worker("far", x=5.0, radius=1.0))
        eligible = waiting.eligible_for(make_request(x=0.0))
        assert [w.worker_id for w in eligible] == ["near"]

    def test_eligible_respects_per_worker_radius(self):
        waiting = WaitingList()
        waiting.add(make_worker("small", x=2.0, radius=1.0))
        waiting.add(make_worker("big", x=2.0, radius=3.0))
        eligible = waiting.eligible_for(make_request(x=0.0))
        assert [w.worker_id for w in eligible] == ["big"]

    def test_eligible_sorted_by_distance(self):
        waiting = WaitingList()
        waiting.add(make_worker("far", x=0.9))
        waiting.add(make_worker("near", x=0.1))
        eligible = waiting.eligible_for(make_request(x=0.0))
        assert [w.worker_id for w in eligible] == ["near", "far"]

    def test_clear(self):
        waiting = WaitingList()
        waiting.add(make_worker("w"))
        waiting.clear()
        assert len(waiting) == 0
        assert waiting.eligible_for(make_request()) == []


def _brute_force(waiting: WaitingList, request) -> list:
    """Scan every waiting worker with the entity predicates; the oracle for
    the fused one-pass query."""
    eligible = []
    for worker in waiting.workers():
        if not worker.arrived_before(request) or not worker.can_reach(request):
            continue
        if waiting.road_network is None:
            distance = worker.location.distance_to(request.location)
        else:
            distance = waiting.road_network.distance(
                worker.location, request.location
            )
            if distance > worker.service_radius:
                continue
        eligible.append((distance, worker.worker_id, worker))
    eligible.sort(key=lambda entry: (entry[0], entry[1]))
    return eligible


@lru_cache(maxsize=1)
def _road_network() -> RoadNetwork:
    return RoadNetwork.grid(
        BoundingBox.square(4.0), spacing_km=0.5, blocked_fraction=0.2, seed=3
    )


#: Cell edges (multiples of both cell sizes) and mirrored offsets, so points
#: land on cell boundaries, exactly on a radius, and at equal distances.
_EDGES = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]


def _coordinate(low: float, high: float):
    return st.one_of(
        st.sampled_from([v for v in _EDGES if low <= v <= high]),
        st.floats(min_value=low, max_value=high),
    )


@st.composite
def _pools(draw, road: bool):
    """A waiting list, some departures and returns, and a request.

    Coordinates mix cell edges with arbitrary floats; radii include the
    edge spacings, so a worker one radius from an edge-aligned request is
    exactly on its disk boundary; arrival times straddle the request's.
    A departed worker may come back as a ``@reentry`` clone at the same
    point with a later arrival time, as the simulator's reentry does, so
    a grid entry that kept the departed worker's fields would show.
    """
    low, high = (0.0, 4.0) if road else (-3.0, 4.0)
    cell = draw(st.sampled_from([0.5, 1.0, 1.3]))
    waiting = WaitingList(
        cell_size_km=cell, road_network=_road_network() if road else None
    )
    count = draw(st.integers(min_value=0, max_value=25))
    for index in range(count):
        waiting.add(
            make_worker(
                f"w{draw(st.integers(0, 99)):02d}-{index}",
                t=draw(st.sampled_from([0.0, 1.0, 2.0, 3.0])),
                x=draw(_coordinate(low, high)),
                y=draw(_coordinate(low, high)),
                radius=draw(
                    st.one_of(
                        st.sampled_from([0.5, 1.0, 1.5, 2.5]),
                        st.floats(min_value=0.05, max_value=3.0),
                    )
                ),
            )
        )
    # Departures shrink the live radius bound the grid scan stops at.
    if count:
        departed = draw(st.lists(st.sampled_from(waiting.workers()), unique=True))
        for worker in departed:
            waiting.remove(worker.worker_id)
        for worker in departed:
            if draw(st.booleans()):
                later = worker.arrival_time + draw(st.sampled_from([0.5, 1.0, 2.5]))
                waiting.add(SimulationSession._reentered_worker(worker, later))
    request = make_request(
        t=2.0, x=draw(_coordinate(low, high)), y=draw(_coordinate(low, high))
    )
    return waiting, request


class TestFusedEligibilityQuery:
    """``eligible_with_distance`` (one pass over the grid buckets) against a
    scan of every waiting worker."""

    @given(_pools(road=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, case):
        waiting, request = case
        assert waiting.eligible_with_distance(request) == _brute_force(
            waiting, request
        )

    @given(_pools(road=True))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_on_roads(self, case):
        waiting, request = case
        assert waiting.eligible_with_distance(request) == _brute_force(
            waiting, request
        )

    def test_equal_distances_tie_break_by_id(self):
        waiting = WaitingList()
        for worker_id, x, y in (("d", 1.0, 0.0), ("b", -1.0, 0.0), ("c", 0.0, 1.0)):
            waiting.add(make_worker(worker_id, x=x, y=y, radius=1.0))
        waiting.add(make_worker("a", x=0.0, y=-1.0, radius=1.0))
        entries = waiting.eligible_with_distance(make_request(x=0.0, y=0.0))
        # Each worker sits exactly on its own radius, on a cell edge.
        assert [(d, worker_id) for d, worker_id, _ in entries] == [
            (1.0, "a"),
            (1.0, "b"),
            (1.0, "c"),
            (1.0, "d"),
        ]

    def test_late_arrivals_are_excluded(self):
        waiting = WaitingList()
        waiting.add(make_worker("on-time", t=1.0, x=0.2))
        waiting.add(make_worker("late", t=1.0000001, x=0.1))
        entries = waiting.eligible_with_distance(make_request(t=1.0))
        assert [worker_id for _, worker_id, _ in entries] == ["on-time"]


_PLATFORMS = ["A", "B", "C"]


@st.composite
def _exchanges(draw):
    """Three platforms whose workers share grid points (so distances tie
    across platforms), with mixed shareable flags, and a request.  The
    area is small and the radii large, so most requests see workers of
    several platforms."""
    cell = draw(st.sampled_from([0.5, 1.0, 1.3]))
    exchange = CooperationExchange(_PLATFORMS, cell_size_km=cell)
    count = draw(st.integers(min_value=0, max_value=30))
    for index in range(count):
        platform = draw(st.sampled_from(_PLATFORMS))
        exchange.worker_arrives(
            make_worker(
                f"{platform.lower()}{draw(st.integers(0, 99)):02d}-{index}",
                platform,
                t=draw(st.sampled_from([0.0, 1.0, 3.0])),
                x=draw(_coordinate(0.0, 2.0)),
                y=draw(_coordinate(0.0, 2.0)),
                radius=draw(
                    st.one_of(
                        st.sampled_from([1.0, 1.5, 2.5]),
                        st.floats(min_value=0.05, max_value=3.0),
                    )
                ),
                shareable=draw(st.booleans()),
            )
        )
    request = make_request(
        t=2.0, x=draw(_coordinate(0.0, 2.0)), y=draw(_coordinate(0.0, 2.0))
    )
    return exchange, request


def _brute_force_outer(exchange, platform_id, request, peers) -> list[str]:
    """Shareable eligible workers of the consulted peers, sorted by
    ``(distance, worker_id)``."""
    consulted = _PLATFORMS if peers is None else peers
    entries = []
    for peer_id in consulted:
        if peer_id != platform_id:
            entries += _brute_force(exchange.inner_list(peer_id), request)
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return [worker_id for _, worker_id, worker in entries if worker.shareable]


class TestOuterQueryOrder:
    """``outer_candidates`` against a brute-force sort over the consulted
    peers, for every kind of ``peers`` subset."""

    @given(
        _exchanges(),
        st.sampled_from(_PLATFORMS),
        st.one_of(
            st.none(),
            st.sampled_from([[], ["B"], _PLATFORMS, ["A", "C"]]),
            st.lists(st.sampled_from(_PLATFORMS), unique=True),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, case, platform_id, peers):
        exchange, request = case
        outer = exchange.outer_candidates(platform_id, request, peers=peers)
        assert [worker.worker_id for worker in outer] == _brute_force_outer(
            exchange, platform_id, request, peers
        )

    @given(_exchanges())
    @settings(max_examples=50, deadline=None)
    def test_resilient_exchange_consults_reachable_peers(self, case):
        exchange, request = case
        plan = FaultPlan(outages=(OutageWindow("B", 0.0, 100.0),))
        wrapped = ResilientExchange(exchange, FaultInjector(plan))
        wrapped.advance_to(request.arrival_time)
        outer = wrapped.outer_candidates("A", request)
        assert [worker.worker_id for worker in outer] == _brute_force_outer(
            exchange, "A", request, ["C"]
        )
        # With every peer down the query degrades instead of answering.
        plan = FaultPlan(
            outages=(OutageWindow("B", 0.0, 100.0), OutageWindow("C", 0.0, 100.0))
        )
        wrapped = ResilientExchange(exchange, FaultInjector(plan))
        wrapped.advance_to(request.arrival_time)
        with pytest.raises(ExchangeUnavailableError):
            wrapped.outer_candidates("A", request)


class TestCooperationExchange:
    def _exchange(self) -> CooperationExchange:
        exchange = CooperationExchange(["A", "B"])
        exchange.worker_arrives(make_worker("a0", "A", 0.0, 0.0, 0.0))
        exchange.worker_arrives(make_worker("b0", "B", 0.0, 0.3, 0.0))
        exchange.worker_arrives(
            make_worker("b1", "B", 0.0, 0.6, 0.0, shareable=False)
        )
        return exchange

    def test_duplicate_platforms_raise(self):
        with pytest.raises(SimulationError):
            CooperationExchange(["A", "A"])

    def test_unknown_platform_worker_raises(self):
        exchange = CooperationExchange(["A"])
        with pytest.raises(SimulationError):
            exchange.worker_arrives(make_worker("x", "Z"))

    def test_inner_candidates_only_home_platform(self):
        exchange = self._exchange()
        inner = exchange.inner_candidates("A", make_request(platform="A", t=1.0))
        assert [w.worker_id for w in inner] == ["a0"]

    def test_outer_candidates_exclude_home_and_unshareable(self):
        exchange = self._exchange()
        outer = exchange.outer_candidates("A", make_request(platform="A", t=1.0))
        assert [w.worker_id for w in outer] == ["b0"]  # b1 not shareable

    def test_outer_candidates_sorted_by_distance(self):
        exchange = CooperationExchange(["A", "B", "C"])
        exchange.worker_arrives(make_worker("b0", "B", 0.0, 0.5, 0.0))
        exchange.worker_arrives(make_worker("c0", "C", 0.0, 0.2, 0.0))
        outer = exchange.outer_candidates("A", make_request(platform="A", t=1.0))
        assert [w.worker_id for w in outer] == ["c0", "b0"]

    def test_claim_removes_everywhere(self):
        exchange = self._exchange()
        exchange.claim("b0")
        assert not exchange.is_available("b0")
        assert exchange.outer_candidates("A", make_request(t=1.0)) == []
        with pytest.raises(SimulationError):
            exchange.claim("b0")

    def test_available_count(self):
        exchange = self._exchange()
        assert exchange.available_count() == 3
        assert exchange.available_count("B") == 2
        exchange.claim("a0")
        assert exchange.available_count("A") == 0

    def test_platform_ids(self):
        assert self._exchange().platform_ids == ["A", "B"]
