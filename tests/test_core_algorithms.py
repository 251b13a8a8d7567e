"""Behavioural tests for DemCOM, RamCOM and the baseline algorithms."""

from __future__ import annotations

import math

import pytest

from repro.baselines import TOTA, GreedyRT, Ranking
from repro.core import DemCOM, RamCOM, Simulator, SimulatorConfig
from repro.core.base import DecisionKind
from repro.core.simulator import Scenario
from repro.core.events import EventStream

from conftest import (
    make_fixed_rate_oracle,
    make_request,
    make_scenario,
    make_worker,
)


def run(scenario, factory, seed=0, **config_kwargs):
    simulator = Simulator(
        SimulatorConfig(seed=seed, measure_response_time=False, **config_kwargs)
    )
    return simulator.run(scenario, factory)


def fixed_rate_scenario(workers, requests, rate=0.5, platform_ids=None):
    if platform_ids is None:
        platform_ids = sorted(
            {w.platform_id for w in workers} | {r.platform_id for r in requests}
        )
    return Scenario(
        events=EventStream.from_entities(workers, requests),
        oracle=make_fixed_rate_oracle(workers, rate=rate),
        platform_ids=platform_ids,
    )


class TestTOTA:
    def test_serves_nearest_inner(self):
        workers = [
            make_worker("far", "A", 0.0, 0.8, 0.0),
            make_worker("near", "A", 0.0, 0.1, 0.0),
        ]
        requests = [make_request("r", "A", 1.0, 0.0, 0.0)]
        result = run(make_scenario(workers, requests), TOTA)
        assert result.platforms["A"].ledger.records[0].worker.worker_id == "near"

    def test_rejects_without_inner(self):
        workers = [make_worker("b", "B", 0.0, 0.1, 0.0)]
        requests = [make_request("r", "A", 1.0)]
        scenario = make_scenario(workers, requests, platform_ids=["A", "B"])
        result = run(scenario, TOTA)
        assert result.total_completed == 0
        assert result.total_rejected == 1

    def test_never_cooperates(self):
        workers = [
            make_worker("a", "A", 0.0, 5.0, 5.0),
            make_worker("b", "B", 0.0, 0.1, 0.0),
        ]
        requests = [make_request("r", "A", 1.0)]
        scenario = make_scenario(workers, requests, platform_ids=["A", "B"])
        result = run(scenario, TOTA)
        assert result.total_cooperative == 0
        assert result.overall_acceptance_ratio is None


class TestDemCOM:
    def test_inner_priority_over_outer(self):
        workers = [
            make_worker("a", "A", 0.0, 0.5, 0.0),
            make_worker("b", "B", 0.0, 0.1, 0.0),
        ]
        requests = [make_request("r", "A", 1.0)]
        scenario = fixed_rate_scenario(workers, requests, rate=0.1)
        result = run(scenario, DemCOM)
        record = result.platforms["A"].ledger.records[0]
        assert record.worker.worker_id == "a"  # inner wins despite b nearer

    def test_borrows_when_no_inner(self):
        workers = [make_worker("b", "B", 0.0, 0.1, 0.0)]
        requests = [make_request("r", "A", 1.0, value=10.0)]
        # Deterministic acceptance at rate 0.4; Algorithm 2 brackets the
        # cliff and the offer lands within xi*v of it.
        scenario = fixed_rate_scenario(workers, requests, rate=0.4)
        result = run(scenario, DemCOM)
        ledger = result.platforms["A"].ledger
        if ledger.cooperative_requests:  # offer cleared the cliff
            record = ledger.records[0]
            assert record.worker.worker_id == "b"
            assert 0.0 < record.payment <= 10.0
            assert result.platforms["B"].ledger.total_lender_income == pytest.approx(
                record.payment
            )
        else:  # undershoot: documented DemCOM weakness
            assert result.total_rejected == 1

    def test_rejects_unaffordable_workers(self):
        workers = [make_worker("b", "B", 0.0, 0.1, 0.0)]
        requests = [make_request("r", "A", 1.0, value=10.0)]
        # Reservation rate 1.5 > 1: no payment <= v_r can attract b.
        scenario = fixed_rate_scenario(workers, requests, rate=1.5)
        result = run(scenario, DemCOM)
        assert result.total_rejected == 1
        # No offers were extended, so no cooperative attempt is counted.
        assert result.platforms["A"].cooperative_attempts == 0

    def test_rejects_with_no_candidates_at_all(self):
        workers = [make_worker("b", "B", 0.0, 9.0, 9.0)]
        requests = [make_request("r", "A", 1.0)]
        scenario = fixed_rate_scenario(workers, requests)
        result = run(scenario, DemCOM)
        assert result.total_rejected == 1

    def test_matches_tota_when_cooperation_disabled(self):
        workers = [
            make_worker("a", "A", 0.0, 0.5, 0.0),
            make_worker("b", "B", 0.0, 0.1, 0.0),
        ]
        requests = [
            make_request("r1", "A", 1.0),
            make_request("r2", "A", 2.0, x=3.0),
        ]
        scenario = fixed_rate_scenario(workers, requests, rate=0.1)
        with_coop = run(scenario, DemCOM)
        without = run(scenario, DemCOM, cooperation_enabled=False)
        tota = run(scenario, TOTA)
        assert without.total_revenue == tota.total_revenue
        assert with_coop.total_revenue >= without.total_revenue


class TestRamCOM:
    def test_theta_formula(self):
        assert RamCOM.theta_for(100.0) == math.ceil(math.log(101.0))
        assert RamCOM.theta_for(0.5) == 1

    def test_fixed_k_validation(self):
        scenario = fixed_rate_scenario(
            [make_worker("a", "A")], [make_request("r", "A", value=9.0)]
        )
        with pytest.raises(ValueError):
            run(scenario, lambda: RamCOM(fixed_k=99))

    def test_above_threshold_uses_inner(self):
        workers = [
            make_worker("a", "A", 0.0, 0.5, 0.0),
            make_worker("b", "B", 0.0, 0.1, 0.0),
        ]
        # value 90 > e^k for any k <= theta(100)=5? e^5 = 148 > 90, so pin
        # k=1 (threshold e) to guarantee the inner path.
        requests = [make_request("r", "A", 1.0, value=90.0)]
        scenario = Scenario(
            events=EventStream.from_entities(workers, requests),
            oracle=make_fixed_rate_oracle(workers, rate=0.5),
            platform_ids=["A", "B"],
            value_upper_bound=100.0,
        )
        result = run(scenario, lambda: RamCOM(fixed_k=1))
        record = result.platforms["A"].ledger.records[0]
        assert record.worker.platform_id == "A"

    def test_below_threshold_goes_outer(self):
        workers = [
            make_worker("a", "A", 0.0, 0.5, 0.0),
            make_worker("b", "B", 0.0, 0.1, 0.0),
        ]
        # value 5 < e^4 = 54.6: outer path even though an inner is free.
        requests = [make_request("r", "A", 1.0, value=5.0)]
        scenario = Scenario(
            events=EventStream.from_entities(workers, requests),
            oracle=make_fixed_rate_oracle(workers, rate=0.5),
            platform_ids=["A", "B"],
            value_upper_bound=100.0,
        )
        result = run(scenario, lambda: RamCOM(fixed_k=4))
        record = result.platforms["A"].ledger.records[0]
        assert record.worker.platform_id == "B"
        # MER over a degenerate cliff at 0.5 pays exactly half the value.
        assert record.payment == pytest.approx(2.5)

    def test_above_threshold_falls_through_to_outer(self):
        # Example 3's r_3 case: above threshold but no inner worker free.
        workers = [make_worker("b", "B", 0.0, 0.1, 0.0)]
        requests = [make_request("r", "A", 1.0, value=90.0)]
        scenario = Scenario(
            events=EventStream.from_entities(workers, requests),
            oracle=make_fixed_rate_oracle(workers, rate=0.5),
            platform_ids=["A", "B"],
            value_upper_bound=100.0,
        )
        result = run(scenario, lambda: RamCOM(fixed_k=1))
        assert result.total_cooperative == 1

    def test_threshold_drawn_within_range(self):
        scenario = fixed_rate_scenario(
            [make_worker("a", "A")], [make_request("r", "A", value=50.0)]
        )
        for seed in range(10):
            algorithm = RamCOM()
            run(scenario, lambda: algorithm, seed=seed)
            theta = RamCOM.theta_for(scenario.value_upper_bound)
            assert math.exp(1) <= algorithm.threshold <= math.exp(theta)


class TestExtensionBaselines:
    def test_greedy_rt_threshold_rejects_small_values(self):
        workers = [make_worker("a", "A", 0.0, 0.1, 0.0)]
        requests = [make_request("r", "A", 1.0, value=1.5)]
        scenario = Scenario(
            events=EventStream.from_entities(workers, requests),
            oracle=make_fixed_rate_oracle(workers),
            platform_ids=["A"],
            value_upper_bound=100.0,
        )
        # k=3: threshold e^2 = 7.39 > 1.5 -> reject despite a free worker.
        result = run(scenario, lambda: GreedyRT(fixed_k=3))
        assert result.total_rejected == 1

    def test_greedy_rt_with_k1_equals_tota(self):
        workers = [make_worker("a", "A", 0.0, 0.1, 0.0)]
        requests = [make_request("r", "A", 1.0, value=1.5)]
        scenario = fixed_rate_scenario(workers, requests)
        result = run(scenario, lambda: GreedyRT(fixed_k=1))
        tota = run(scenario, TOTA)
        assert result.total_revenue == tota.total_revenue

    def test_ranking_uses_priority_not_distance(self):
        workers = [
            make_worker("w1", "A", 0.0, 0.1, 0.0),
            make_worker("w2", "A", 0.0, 0.9, 0.0),
        ]
        requests = [make_request("r", "A", 1.0)]
        scenario = fixed_rate_scenario(workers, requests)
        chosen = set()
        for seed in range(12):
            result = run(scenario, Ranking, seed=seed)
            chosen.add(result.platforms["A"].ledger.records[0].worker.worker_id)
        assert chosen == {"w1", "w2"}  # both get picked across seeds

    def test_decision_constructors(self):
        from repro.core.base import Decision

        worker = make_worker()
        inner = Decision.serve_inner(worker)
        assert inner.kind is DecisionKind.SERVE_INNER
        outer = Decision.serve_outer(worker, 5.0, offers_made=2)
        assert outer.cooperative_attempt
        reject = Decision.reject()
        assert reject.kind is DecisionKind.REJECT
