"""The memory-cost model (``approximate_size_bytes``, paper §V-C2).

The metric is a fixed byte cost per stored item of each kind times the
number of such items (DESIGN.md §1.4), so it is a pure function of the
run's outcome: the golden runs pin it on every interpreter, a session
finalizes without walking any object, and a session restored from a
pickled copy measures what the uninterrupted run measures.
"""

from __future__ import annotations

import pickle
import sys

import pytest

import repro.core.simulator as simulator_module
from repro.core import DemCOM, RamCOM, Simulator, SimulatorConfig
from repro.core.events import EventKind
from repro.utils import memory
from repro.utils.memory import approximate_size_bytes
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

from test_perf_fastpath import _golden_scenario

_COUNTS = dict(
    requests=0, workers=0, history_entries=0, match_records=0, waiting_entries=0
)


class TestCountModel:
    @pytest.mark.parametrize(
        "kind, cost",
        [
            ("requests", memory.REQUEST_BYTES),
            ("workers", memory.WORKER_BYTES),
            ("history_entries", memory.HISTORY_ENTRY_BYTES),
            ("match_records", memory.MATCH_RECORD_BYTES),
            ("waiting_entries", memory.WAITING_ENTRY_BYTES),
        ],
    )
    def test_each_kind_costs_its_constant(self, kind, cost):
        assert approximate_size_bytes(**_COUNTS) == 0
        assert approximate_size_bytes(**{**_COUNTS, kind: 7}) == 7 * cost

    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM], ids=lambda a: a.name)
    def test_finalize_counts_each_kind(self, algorithm):
        scenario = _synthetic_scenario()
        session = Simulator(_synthetic_config(reentry=True)).session(
            scenario, algorithm
        )
        _feed(session, list(scenario.events))
        result = session.finalize()
        loaded = sum(
            len(scenario.oracle.history_of(worker.worker_id))
            for worker in scenario.events.workers
        )
        assert result.total_cooperative > 0
        assert result.memory_bytes == approximate_size_bytes(
            requests=scenario.request_count,
            workers=scenario.worker_count,
            history_entries=loaded + result.total_cooperative,
            match_records=result.total_completed,
            waiting_entries=sum(
                len(session.exchange.inner_list(pid)) for pid in scenario.platform_ids
            ),
        )


def _feed(session, events) -> None:
    for event in events:
        if event.kind is EventKind.WORKER:
            session.submit_worker(event.worker, time=event.time)
        else:
            session.submit_request(event.request, time=event.time)


def _synthetic_scenario():
    return SyntheticWorkload(
        SyntheticWorkloadConfig(request_count=400, worker_count=110, city_km=3.0)
    ).build(17)


def _synthetic_config(reentry: bool) -> SimulatorConfig:
    return SimulatorConfig(
        seed=3,
        measure_response_time=False,
        worker_reentry=reentry,
        service_duration=1800.0,
    )


def _synthetic_run(algorithm, reentry: bool):
    return Simulator(_synthetic_config(reentry)).run(_synthetic_scenario(), algorithm)


def _golden_run(algorithm):
    config = SimulatorConfig(
        seed=7,
        measure_response_time=False,
        worker_reentry=True,
        service_duration=600.0,
    )
    return Simulator(config).run(_golden_scenario(), algorithm)


class TestGoldenMemoryWalk:
    """``memory_bytes`` of the golden runs, and the absence of a walk."""

    GOLDEN = {"DemCOM": 7736, "RamCOM": 7776}
    SYNTHETIC = {
        ("DemCOM", True): 93488,
        ("DemCOM", False): 78400,
        ("RamCOM", True): 94704,
        ("RamCOM", False): 78784,
    }

    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM], ids=lambda a: a.name)
    def test_pinned_bytes(self, algorithm):
        assert _golden_run(algorithm).memory_bytes == self.GOLDEN[algorithm.name]
        for reentry in (True, False):
            result = _synthetic_run(algorithm, reentry)
            assert result.memory_bytes == self.SYNTHETIC[(algorithm.name, reentry)]

    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM], ids=lambda a: a.name)
    def test_finalize_does_not_walk(self, algorithm, monkeypatch):
        calls: list[dict] = []

        def counted(**counts):
            calls.append(counts)
            return approximate_size_bytes(**counts)

        def no_walk(*args):
            raise AssertionError("sys.getsizeof called")

        monkeypatch.setattr(simulator_module, "approximate_size_bytes", counted)
        monkeypatch.setattr(sys, "getsizeof", no_walk)
        result = _synthetic_run(algorithm, reentry=True)
        monkeypatch.undo()
        assert len(calls) == 1
        assert result.memory_bytes == self.SYNTHETIC[(algorithm.name, True)]


class TestObjectIdentity:
    """The count reads no object identity: copies measure like originals."""

    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM], ids=lambda a: a.name)
    def test_restored_session_matches_the_uninterrupted_run(self, algorithm):
        scenario = _synthetic_scenario()
        config = _synthetic_config(reentry=True)
        expected = Simulator(config).run(scenario, algorithm).memory_bytes

        session = Simulator(config).session(scenario, algorithm)
        events = list(scenario.events)
        half = len(events) // 2
        _feed(session, events[:half])
        # A plain pickle round trip: the restored session holds copies of
        # every entity, and the rest of the stream arrives as further
        # copies that share no object with either.
        restored = pickle.loads(pickle.dumps(session))
        _feed(restored, pickle.loads(pickle.dumps(events[half:])))
        assert restored.finalize().memory_bytes == expected
