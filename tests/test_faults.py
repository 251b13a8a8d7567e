"""Tests for the fault-injection and resilience layer (repro.faults).

Covers the plan/injector determinism contract, the retry/backoff and
circuit-breaker mechanics, the zero-fault pass-through guarantee, the
failure accounting surfaced on simulation results, and the structured
error context satellite.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    DemCOM,
    RamCOM,
    Simulator,
    SimulatorConfig,
    validate_matching,
)
from repro.core.exchange import CooperationExchange
from repro.errors import (
    ClaimConflictError,
    ConfigurationError,
    ExchangeUnavailableError,
    SimulationError,
)
from repro.faults import (
    ZERO_FAULTS,
    CircuitBreaker,
    CircuitBreakerConfig,
    FaultInjector,
    FaultPlan,
    OutageWindow,
    ResilientExchange,
    RetryPolicy,
)
from repro.utils.timer import TimingAccumulator

from conftest import make_request, make_scenario, make_worker


# -- plan validation ---------------------------------------------------------


class TestFaultPlan:
    def test_zero_plan_is_zero(self):
        assert ZERO_FAULTS.is_zero
        assert FaultPlan().is_zero
        assert not FaultPlan(claim_failure_rate=0.1).is_zero
        assert not FaultPlan(outages=(OutageWindow("A", 0.0, 1.0),)).is_zero

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"claim_failure_rate": 1.5},
            {"claim_failure_rate": -0.1},
            {"message_delay_rate": 2.0},
            {"worker_dropout_rate": -1.0},
            {"random_outages_per_platform": -1},
            {"outage_duration_s": 0.0},
            {"horizon_s": -5.0},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(**kwargs)

    def test_outage_window_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            OutageWindow("A", 5.0, 5.0)

    def test_uniform_scales_every_channel(self):
        plan = FaultPlan.uniform(0.8, seed=3)
        assert plan.claim_failure_rate == 0.8
        assert plan.message_delay_rate == 0.8
        assert plan.worker_dropout_rate == pytest.approx(0.24)
        assert plan.random_outages_per_platform > 0
        assert FaultPlan.uniform(0.0).is_zero


# -- injector ----------------------------------------------------------------


class TestFaultInjector:
    def test_zero_plan_never_fires(self):
        injector = FaultInjector(ZERO_FAULTS)
        assert not injector.active
        assert not injector.claim_fails("w1")
        assert not injector.worker_drops_out("w1")
        assert injector.message_delay("A", "B", "r1") == 0.0
        assert not injector.outage_active("A", 10.0)
        assert injector.outage_seconds("A", 1e6) == 0.0

    def test_realisation_is_a_pure_function_of_the_plan(self):
        plan = FaultPlan.uniform(0.5, seed=11)
        first, second = FaultInjector(plan), FaultInjector(plan)
        assert first.outage_windows("A") == second.outage_windows("A")
        for _ in range(20):
            assert first.claim_fails("w7") == second.claim_fails("w7")
        assert first.worker_drops_out("w3") == second.worker_drops_out("w3")
        assert first.message_delay("A", "B", "r9") == second.message_delay(
            "A", "B", "r9"
        )

    def test_dropout_fate_is_monotone_in_the_rate(self):
        workers = [f"w{i}" for i in range(200)]

        def dropped(rate: float) -> set[str]:
            injector = FaultInjector(FaultPlan(seed=5, worker_dropout_rate=rate))
            return {w for w in workers if injector.worker_drops_out(w)}

        low, high = dropped(0.2), dropped(0.6)
        assert low <= high
        assert len(low) < len(high)

    def test_outage_windows_respect_horizon(self):
        plan = FaultPlan(
            seed=2,
            random_outages_per_platform=4,
            outage_duration_s=100.0,
            horizon_s=1000.0,
        )
        injector = FaultInjector(plan)
        windows = injector.outage_windows("didi")
        assert len(windows) == 4
        for window in windows:
            assert 0.0 <= window.start < window.end <= 1000.0
        assert injector.outage_seconds("didi", 1000.0) <= 400.0

    def test_explicit_windows_merge_with_random(self):
        plan = FaultPlan(
            seed=0,
            outages=(OutageWindow("A", 10.0, 20.0),),
            random_outages_per_platform=1,
            outage_duration_s=5.0,
            horizon_s=100.0,
        )
        injector = FaultInjector(plan)
        assert len(injector.outage_windows("A")) == 2
        assert injector.outage_active("A", 15.0)
        assert len(injector.outage_windows("B")) == 1  # random only


# -- retry policy and circuit breaker ---------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff_s=1.0, multiplier=2.0, max_backoff_s=5.0, jitter=0.0
        )
        rng = random.Random(0)
        assert policy.backoff_for(0, rng) == 1.0
        assert policy.backoff_for(1, rng) == 2.0
        assert policy.backoff_for(2, rng) == 4.0
        assert policy.backoff_for(3, rng) == 5.0  # capped

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(base_backoff_s=10.0, multiplier=1.0, jitter=0.2)
        rng = random.Random(42)
        for _ in range(100):
            backoff = policy.backoff_for(0, rng)
            assert 8.0 <= backoff <= 12.0

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(call_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            CircuitBreakerConfig(failure_threshold=0)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers_half_open(self):
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=2, reset_timeout_s=100.0)
        )
        assert breaker.allows(0.0)
        assert not breaker.record_failure(0.0)
        assert breaker.record_failure(1.0)  # trips
        assert breaker.state == "open"
        assert not breaker.allows(50.0)  # still cooling down
        assert breaker.allows(101.0)  # half-open probe
        assert breaker.state == "half_open"
        breaker.record_success(101.0)
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=1, reset_timeout_s=10.0)
        )
        breaker.record_failure(0.0)
        assert breaker.allows(11.0)
        assert breaker.record_failure(11.0)  # probe failed: open again
        assert breaker.state == "open"
        assert not breaker.allows(15.0)
        assert breaker.allows(21.0)


# -- resilient exchange ------------------------------------------------------


def _small_exchange() -> CooperationExchange:
    exchange = CooperationExchange(["A", "B"])
    exchange.worker_arrives(make_worker("a0", "A", 0.0, 0.0, 0.0, radius=5.0))
    exchange.worker_arrives(make_worker("b0", "B", 0.0, 1.0, 0.0, radius=5.0))
    return exchange


class TestResilientExchange:
    def test_zero_plan_is_strict_passthrough(self):
        wrapped = ResilientExchange(_small_exchange(), FaultInjector(ZERO_FAULTS))
        request = make_request("r0", "A", t=1.0)
        assert [w.worker_id for w in wrapped.outer_candidates("A", request)] == [
            "b0"
        ]
        assert wrapped.claim("b0", claimant="A").worker_id == "b0"
        assert wrapped.stats_for("A").retries == 0
        assert wrapped.stats_for("A").degraded_decisions == 0

    def test_own_outage_raises_unavailable(self):
        plan = FaultPlan(outages=(OutageWindow("A", 0.0, 100.0),))
        wrapped = ResilientExchange(_small_exchange(), FaultInjector(plan))
        wrapped.advance_to(10.0)
        with pytest.raises(ExchangeUnavailableError):
            wrapped.outer_candidates("A", make_request("r0", "A", t=10.0))
        assert wrapped.stats_for("A").degraded_decisions == 1
        # Inner operations are local and unaffected by the outage.
        assert wrapped.inner_candidates(
            "A", make_request("r1", "A", t=10.0)
        )

    def test_peer_outage_degrades_and_trips_breaker(self):
        plan = FaultPlan(outages=(OutageWindow("B", 0.0, 1000.0),))
        breaker_config = CircuitBreakerConfig(
            failure_threshold=2, reset_timeout_s=500.0
        )
        wrapped = ResilientExchange(
            _small_exchange(), FaultInjector(plan), breaker_config=breaker_config
        )
        request = make_request("r0", "A", t=1.0)
        wrapped.advance_to(1.0)
        for _ in range(2):  # two probes reach the failure threshold
            with pytest.raises(ExchangeUnavailableError):
                wrapped.outer_candidates("A", request)
        assert wrapped.breaker_state("A", "B") == "open"
        assert wrapped.stats_for("A").breaker_trips == 1
        # While open, the peer is skipped without probing.
        with pytest.raises(ExchangeUnavailableError):
            wrapped.outer_candidates("A", request)
        # After the reset timeout and the outage, a half-open probe heals.
        wrapped.advance_to(1200.0)
        workers = wrapped.outer_candidates(
            "A", make_request("r1", "A", t=1200.0)
        )
        assert [w.worker_id for w in workers] == ["b0"]
        assert wrapped.breaker_state("A", "B") == "closed"

    def test_dropout_removes_worker_exactly_once(self):
        plan = FaultPlan(worker_dropout_rate=1.0)
        wrapped = ResilientExchange(_small_exchange(), FaultInjector(plan))
        with pytest.raises(ClaimConflictError):
            wrapped.claim("b0", claimant="A")
        assert wrapped.stats_for("A").dropped_workers == 1
        assert not wrapped.is_available("b0")
        with pytest.raises(SimulationError):
            wrapped.claim("b0", claimant="A")  # already gone

    def test_claim_retries_exhaust_into_failed_claim(self):
        plan = FaultPlan(seed=0, claim_failure_rate=1.0)
        wrapped = ResilientExchange(
            _small_exchange(),
            FaultInjector(plan),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(ClaimConflictError):
            wrapped.claim("b0", claimant="A")
        stats = wrapped.stats_for("A")
        assert stats.failed_claims == 1
        assert stats.retries == 2  # attempts 2 and 3 were retries
        assert stats.retry_backoff_seconds > 0.0
        # The transient failure left the worker available.
        assert wrapped.is_available("b0")

    def test_inner_claims_never_race(self):
        plan = FaultPlan(seed=0, claim_failure_rate=1.0)
        wrapped = ResilientExchange(_small_exchange(), FaultInjector(plan))
        # a0 is A's own worker: the lost-claim race is cross-platform only.
        assert wrapped.claim("a0", claimant="A").worker_id == "a0"

    def test_evict_bypasses_faults(self):
        plan = FaultPlan(seed=0, claim_failure_rate=1.0, worker_dropout_rate=1.0)
        wrapped = ResilientExchange(_small_exchange(), FaultInjector(plan))
        assert wrapped.evict("b0").worker_id == "b0"
        assert wrapped.stats_for("B").dropped_workers == 0


# -- simulator integration ---------------------------------------------------


def _scenario(seed: int = 3):
    rng = random.Random(seed)
    workers = [
        make_worker(
            f"{platform}-w{i}",
            platform,
            t=rng.uniform(0, 50),
            x=rng.uniform(0, 4),
            y=rng.uniform(0, 4),
            radius=rng.uniform(1.0, 2.5),
        )
        for platform in ("A", "B")
        for i in range(6)
    ]
    requests = [
        make_request(
            f"r{i}",
            rng.choice(["A", "B"]),
            t=rng.uniform(0, 100),
            x=rng.uniform(0, 4),
            y=rng.uniform(0, 4),
            value=rng.uniform(1, 50),
        )
        for i in range(30)
    ]
    return make_scenario(workers, requests, platform_ids=["A", "B"], seed=seed)


class TestSimulatorResilience:
    def test_zero_fault_plan_matches_unwrapped_exchange_exactly(self):
        scenario = _scenario()
        for factory in (DemCOM, RamCOM):
            plain = Simulator(
                SimulatorConfig(seed=1, measure_response_time=False)
            ).run(scenario, factory)
            wrapped = Simulator(
                SimulatorConfig(
                    seed=1, measure_response_time=False, fault_plan=ZERO_FAULTS
                )
            ).run(scenario, factory)
            assert wrapped.total_revenue == plain.total_revenue
            assert wrapped.total_completed == plain.total_completed
            assert wrapped.total_rejected == plain.total_rejected
            assert [
                (r.request.request_id, r.worker.worker_id, r.payment)
                for r in wrapped.all_records()
            ] == [
                (r.request.request_id, r.worker.worker_id, r.payment)
                for r in plain.all_records()
            ]
            assert wrapped.total_retries == 0
            assert wrapped.total_failed_claims == 0
            assert wrapped.total_degraded_decisions == 0
            assert wrapped.total_outage_seconds == 0.0

    def test_same_fault_seed_reproduces_identical_metrics(self):
        scenario = _scenario()
        plan = FaultPlan.uniform(0.6, seed=9, horizon_s=100.0)
        config = SimulatorConfig(
            seed=4, measure_response_time=False, fault_plan=plan
        )
        first = Simulator(config).run(scenario, RamCOM)
        second = Simulator(config).run(scenario, RamCOM)
        assert first.total_revenue == second.total_revenue
        assert first.total_completed == second.total_completed
        assert first.total_retries == second.total_retries
        assert first.total_failed_claims == second.total_failed_claims
        assert first.total_degraded_decisions == second.total_degraded_decisions
        assert first.total_dropped_workers == second.total_dropped_workers
        assert first.total_outage_seconds == second.total_outage_seconds

    def test_different_fault_seeds_change_the_realisation(self):
        scenario = _scenario()
        results = []
        for fault_seed in range(6):
            plan = FaultPlan.uniform(0.7, seed=fault_seed, horizon_s=100.0)
            result = Simulator(
                SimulatorConfig(seed=4, measure_response_time=False, fault_plan=plan)
            ).run(scenario, DemCOM)
            results.append(
                (result.total_revenue, result.total_dropped_workers)
            )
        assert len(set(results)) > 1

    def test_full_outage_forces_inner_only_matching(self):
        scenario = _scenario()
        plan = FaultPlan(
            outages=(
                OutageWindow("A", 0.0, 1e9),
                OutageWindow("B", 0.0, 1e9),
            )
        )
        result = Simulator(
            SimulatorConfig(seed=2, measure_response_time=False, fault_plan=plan)
        ).run(scenario, DemCOM)
        assert result.total_cooperative == 0
        assert result.total_degraded_decisions > 0
        assert result.total_outage_seconds > 0.0
        validate_matching(result.all_records())

    def test_total_dropout_rejects_everything(self):
        scenario = _scenario()
        plan = FaultPlan(worker_dropout_rate=1.0)
        result = Simulator(
            SimulatorConfig(seed=2, measure_response_time=False, fault_plan=plan)
        ).run(scenario, DemCOM)
        assert result.total_completed == 0
        assert result.total_dropped_workers > 0
        assert (
            result.total_completed + result.total_rejected
            == scenario.request_count
        )

    def test_failure_accounting_lands_on_platform_outcomes(self):
        scenario = _scenario()
        plan = FaultPlan.uniform(0.8, seed=1, horizon_s=100.0)
        result = Simulator(
            SimulatorConfig(seed=2, measure_response_time=False, fault_plan=plan)
        ).run(scenario, RamCOM)
        per_platform = [outcome.resilience for outcome in result.platforms.values()]
        assert sum(s.degraded_decisions for s in per_platform) == (
            result.total_degraded_decisions
        )
        assert result.resilience.as_dict()["degraded_decisions"] == (
            result.total_degraded_decisions
        )


# -- satellites --------------------------------------------------------------


class TestStructuredErrors:
    def test_simulation_error_carries_context(self):
        error = SimulationError(
            "boom", time=12.5, platform_id="didi", request_id="r7", worker_id="w3"
        )
        assert error.sim_time == 12.5
        assert error.platform_id == "didi"
        assert error.request_id == "r7"
        assert error.worker_id == "w3"
        message = str(error)
        assert "boom" in message
        for fragment in ("t=12.5", "platform=didi", "request=r7", "worker=w3"):
            assert fragment in message

    def test_plain_message_unchanged_without_context(self):
        assert str(SimulationError("plain failure")) == "plain failure"

    def test_new_errors_are_simulation_errors(self):
        assert issubclass(ExchangeUnavailableError, SimulationError)
        assert issubclass(ClaimConflictError, SimulationError)


class TestTimingSamplesAccessor:
    def test_samples_returns_copy(self):
        acc = TimingAccumulator()
        for value in (0.1, 0.2, 0.3):
            acc.record(value)
        samples = acc.samples()
        assert samples == [0.1, 0.2, 0.3]
        samples.append(99.0)
        assert acc.samples() == [0.1, 0.2, 0.3]
