"""Tests for the online simulation engine."""

from __future__ import annotations

import asyncio
import hashlib
import pickle

import pytest

from repro.baselines import TOTA
from repro.core import DemCOM, RamCOM, Simulator, SimulatorConfig, validate_matching
from repro.core.base import Decision, OnlineAlgorithm
from repro.core.events import EventKind, EventStream
from repro.core.simulator import Scenario
from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import EventLog
from repro.service import MatchingGateway, VirtualClock
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

from conftest import (
    make_fixed_rate_oracle,
    make_oracle,
    make_request,
    make_scenario,
    make_worker,
)


class TestScenario:
    def test_requires_platforms(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                events=EventStream(),
                oracle=make_oracle([]),
                platform_ids=[],
            )

    def test_value_upper_bound_inferred(self):
        scenario = make_scenario(
            [make_worker()], [make_request(value=42.0), make_request("r2", value=7.0)]
        )
        assert scenario.value_upper_bound == 42.0

    def test_counts(self):
        scenario = make_scenario([make_worker()], [make_request()])
        assert scenario.worker_count == 1
        assert scenario.request_count == 1


class TestSimulatorBasics:
    def test_unknown_platform_request_raises(self):
        workers = [make_worker("w", "A")]
        scenario = Scenario(
            events=EventStream.from_entities(
                workers, [make_request("r", "Z", t=1.0)]
            ),
            oracle=make_oracle(workers),
            platform_ids=["A"],
        )
        with pytest.raises(SimulationError):
            Simulator(SimulatorConfig()).run(scenario, TOTA)

    def test_unknown_platform_worker_raises(self):
        workers = [make_worker("w", "Z")]
        scenario = Scenario(
            events=EventStream.from_entities(workers, []),
            oracle=make_oracle(workers),
            platform_ids=["A"],
        )
        with pytest.raises(SimulationError):
            Simulator(SimulatorConfig()).run(scenario, TOTA)

    def test_unavailable_worker_decision_raises(self):
        class Cheater(OnlineAlgorithm):
            name = "cheater"

            def decide(self, request, context):
                ghost = make_worker("ghost", "A", t=0.0)
                return Decision.serve_inner(ghost)

        workers = [make_worker("w", "A")]
        scenario = make_scenario(workers, [make_request(t=1.0)])
        with pytest.raises(SimulationError):
            Simulator(SimulatorConfig()).run(scenario, Cheater)

    def test_response_time_measured(self):
        scenario = make_scenario([make_worker()], [make_request(t=1.0)])
        result = Simulator(SimulatorConfig(measure_response_time=True)).run(
            scenario, TOTA
        )
        assert result.platforms["A"].response_time.count == 1
        assert result.mean_response_time_ms >= 0.0

    def test_memory_measured(self):
        scenario = make_scenario([make_worker()], [make_request(t=1.0)])
        result = Simulator(SimulatorConfig()).run(scenario, TOTA)
        assert result.memory_bytes > 0

    def test_payment_backend_accepts_only_python(self):
        scenario = make_scenario([make_worker()], [make_request(t=1.0)])
        result = Simulator(SimulatorConfig(payment_backend="python")).run(
            scenario, DemCOM
        )
        assert result.total_completed == 1
        for backend in ("numpy", "auto"):
            with pytest.raises(ConfigurationError, match="payment_backend"):
                Simulator(SimulatorConfig(payment_backend=backend)).run(
                    scenario, DemCOM
                )


class TestDeterminism:
    def _scenario(self):
        workers = [
            make_worker(f"a{i}", "A", float(i), x=i * 0.4, radius=1.5)
            for i in range(6)
        ] + [
            make_worker(f"b{i}", "B", float(i), x=i * 0.4 + 0.2, radius=1.5)
            for i in range(6)
        ]
        requests = [
            make_request(f"r{i}", "A", 6.0 + i, x=i * 0.4, value=5.0 + i)
            for i in range(8)
        ]
        return make_scenario(workers, requests, platform_ids=["A", "B"])

    @pytest.mark.parametrize("factory", [TOTA, DemCOM, RamCOM])
    def test_same_seed_same_result(self, factory):
        scenario = self._scenario()
        config = SimulatorConfig(seed=5, measure_response_time=False)
        first = Simulator(config).run(scenario, factory)
        second = Simulator(config).run(scenario, factory)
        assert first.total_revenue == second.total_revenue
        assert [r.request.request_id for r in first.all_records()] == [
            r.request.request_id for r in second.all_records()
        ]
        assert [r.worker.worker_id for r in first.all_records()] == [
            r.worker.worker_id for r in second.all_records()
        ]

    def test_different_seed_can_differ(self):
        scenario = self._scenario()
        revenues = {
            Simulator(
                SimulatorConfig(seed=seed, measure_response_time=False)
            ).run(scenario, RamCOM).total_revenue
            for seed in range(8)
        }
        assert len(revenues) > 1  # the k draw varies

    @pytest.mark.parametrize("factory", [TOTA, DemCOM, RamCOM])
    def test_all_constraints_hold(self, factory):
        scenario = self._scenario()
        result = Simulator(SimulatorConfig(seed=1, measure_response_time=False)).run(
            scenario, factory
        )
        validate_matching(result.all_records())

    def test_accounting_identity(self):
        scenario = self._scenario()
        result = Simulator(SimulatorConfig(seed=1, measure_response_time=False)).run(
            scenario, DemCOM
        )
        completed = result.total_completed
        rejected = result.total_rejected
        assert completed + rejected == scenario.request_count
        # Lender income equals the sum of outer payments.
        payments = sum(
            record.payment
            for record in result.all_records()
            if record.payment > 0
        )
        lender = sum(
            p.ledger.total_lender_income for p in result.platforms.values()
        )
        assert lender == pytest.approx(payments)


class TestWorkerReentry:
    def test_worker_serves_multiple_requests(self):
        workers = [make_worker("w", "A", 0.0)]
        requests = [
            make_request("r1", "A", 10.0),
            make_request("r2", "A", 200.0),
        ]
        scenario = make_scenario(workers, requests)
        config = SimulatorConfig(
            seed=0,
            worker_reentry=True,
            service_duration=100.0,
            measure_response_time=False,
        )
        result = Simulator(config).run(scenario, TOTA)
        assert result.total_completed == 2
        worker_ids = [r.worker.worker_id for r in result.all_records()]
        assert worker_ids == ["w", "w@reentry1"]
        validate_matching(result.all_records())

    def test_worker_busy_during_service(self):
        workers = [make_worker("w", "A", 0.0)]
        requests = [
            make_request("r1", "A", 10.0),
            make_request("r2", "A", 50.0),  # during service
        ]
        scenario = make_scenario(workers, requests)
        config = SimulatorConfig(
            seed=0, worker_reentry=True, service_duration=100.0,
            measure_response_time=False,
        )
        result = Simulator(config).run(scenario, TOTA)
        assert result.total_completed == 1
        assert result.total_rejected == 1

    def test_reentry_returns_home(self):
        workers = [make_worker("w", "A", 0.0, x=0.0)]
        requests = [
            make_request("r1", "A", 10.0, x=0.9),
            # r2 is near the worker's HOME, not near r1's location.
            make_request("r2", "A", 200.0, x=0.1),
        ]
        scenario = make_scenario(workers, requests)
        config = SimulatorConfig(
            seed=0, worker_reentry=True, service_duration=100.0,
            measure_response_time=False,
        )
        result = Simulator(config).run(scenario, TOTA)
        assert result.total_completed == 2
        second = result.all_records()[1]
        assert second.worker.location.x == 0.0  # home, not 0.9

    def test_no_reentry_by_default(self):
        workers = [make_worker("w", "A", 0.0)]
        requests = [
            make_request("r1", "A", 10.0),
            make_request("r2", "A", 500.0),
        ]
        scenario = make_scenario(workers, requests)
        result = Simulator(SimulatorConfig(measure_response_time=False)).run(
            scenario, TOTA
        )
        assert result.total_completed == 1

    def test_reentry_clone_shares_reservation_draws(self):
        workers = [make_worker("b", "B", 0.0, x=0.1)]
        scenario = Scenario(
            events=EventStream.from_entities(
                workers,
                [
                    make_request("r1", "B", 5.0),  # inner service
                    make_request("r2", "A", 500.0, value=10.0),  # borrowed clone
                ],
            ),
            oracle=make_fixed_rate_oracle(workers, rate=0.5),
            platform_ids=["A", "B"],
        )
        # The clone's reservation for r2 equals the base worker's.
        assert scenario.oracle.reservation("b", "r2") == scenario.oracle.reservation(
            "b@reentry1", "r2"
        )

    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM])
    def test_reentry_leaves_the_scenario_unchanged(self, algorithm):
        # Checkpoints encode the scenario once per gateway, so a run must
        # never mutate it — reentry clones resolve to their base worker
        # in the oracle instead of registering there.
        scenario = SyntheticWorkload(
            SyntheticWorkloadConfig(
                request_count=60, worker_count=20, horizon_seconds=3600.0
            )
        ).build(seed=5)
        behaviours = len(scenario.oracle)
        digest = hashlib.sha256(pickle.dumps(scenario)).hexdigest()
        config = SimulatorConfig(
            worker_reentry=True,
            service_duration=600.0,
            measure_response_time=False,
        )
        result = Simulator(config).run(scenario, algorithm)
        assert any(
            "@reentry" in record.worker.worker_id for record in result.all_records()
        )
        assert len(scenario.oracle) == behaviours
        assert hashlib.sha256(pickle.dumps(scenario)).hexdigest() == digest


class TestCooperationFlag:
    def test_disabled_exchange_blocks_borrowing(self):
        workers = [make_worker("b", "B", 0.0, x=0.1)]
        scenario = Scenario(
            events=EventStream.from_entities(
                workers, [make_request("r", "A", 1.0, value=10.0)]
            ),
            oracle=make_fixed_rate_oracle(workers, rate=0.1),
            platform_ids=["A", "B"],
        )
        with_coop = Simulator(
            SimulatorConfig(measure_response_time=False)
        ).run(scenario, DemCOM)
        without = Simulator(
            SimulatorConfig(measure_response_time=False, cooperation_enabled=False)
        ).run(scenario, DemCOM)
        # With the exchange enabled DemCOM at least extends offers (it may
        # still undershoot the acceptance cliff); disabled, it cannot even
        # see the outer worker.
        assert with_coop.platforms["A"].cooperative_attempts == 1
        assert without.platforms["A"].cooperative_attempts == 0
        assert without.total_cooperative == 0


class TestDecisionLog:
    """The per-request record is the served stream's ``decision`` events
    (a served replay equals ``Simulator.run``)."""

    @staticmethod
    def decision_events(scenario):
        async def main():
            log = EventLog(ring=0)
            gateway = MatchingGateway(
                scenario,
                "tota",
                SimulatorConfig(measure_response_time=False),
                clock=VirtualClock(),
                events=log,
            )
            await gateway.start()
            for event in scenario.events:
                gateway.clock.advance_to(event.time)
                if event.kind is EventKind.WORKER:
                    await gateway.submit_worker(event.worker)
                else:
                    await gateway.submit_request(event.request)
            await gateway.drain()
            return [event for event in log.events() if event.kind == "decision"]

        return asyncio.run(main())

    def test_one_entry_per_request(self, two_platform_scenario):
        decisions = self.decision_events(two_platform_scenario)
        assert len(decisions) == two_platform_scenario.request_count
        kinds = {entry.fields["status"] for entry in decisions}
        assert kinds <= {"serve_inner", "serve_outer", "reject"}

    def test_entries_match_ledger(self, two_platform_scenario):
        result = Simulator(SimulatorConfig(measure_response_time=False)).run(
            two_platform_scenario, TOTA
        )
        served = [
            entry
            for entry in self.decision_events(two_platform_scenario)
            if entry.fields["status"] == "serve_inner"
        ]
        assert len(served) == result.total_completed
        for entry in served:
            assert entry.fields["worker"] is not None


class TestAbsoluteModeEndToEnd:
    def test_absolute_oracle_drives_absolute_estimator(self):
        """A scenario built in absolute mode runs end-to-end: histories are
        raw prices and offers compare unnormalized."""
        from repro.behavior import BehaviorOracle, UniformDistribution, WorkerBehavior
        from repro.core import DemCOM
        from repro.core.events import EventKind, EventStream

        worker = make_worker("b", "B", 0.0, x=0.1)
        oracle = BehaviorOracle(seed=0, mode="absolute")
        # Accepts any payment >= 4.0 CNY, regardless of request size.
        oracle.register(
            WorkerBehavior("b", UniformDistribution(4.0, 4.0), [4.0] * 10)
        )
        scenario = Scenario(
            events=EventStream.from_entities(
                [worker], [make_request("r", "A", 1.0, value=20.0)]
            ),
            oracle=oracle,
            platform_ids=["A", "B"],
        )
        result = Simulator(SimulatorConfig(measure_response_time=False)).run(
            scenario, DemCOM
        )
        # Algorithm 2 brackets the absolute cliff at 4.0 (tolerance 2.0);
        # whether the undershot offer clears it is seed-dependent, but the
        # run itself must be well-formed either way.
        assert result.total_completed + result.total_rejected == 1
        for record in result.all_records():
            assert record.payment <= 20.0
