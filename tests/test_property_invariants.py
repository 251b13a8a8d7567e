"""Cross-cutting property-based tests on randomly generated COM instances.

These are the load-bearing invariants of the whole system:

* every algorithm's matching satisfies the four Definition-2.6 constraints;
* revenue accounting (Eq. 1) is internally consistent;
* OFF upper-bounds every online algorithm on identical randomness;
* simulation results are a pure function of (scenario, seed);
* served + rejected == arrived.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import TOTA, BatchMatching, GreedyRT, Ranking, solve_offline
from repro.core import (
    DemCOM,
    RamCOM,
    Simulator,
    SimulatorConfig,
    validate_matching,
)
from repro.core.matching import AssignmentKind
from repro.faults import FaultPlan

from conftest import make_request, make_scenario, make_worker

ALGORITHMS = [
    TOTA,
    DemCOM,
    RamCOM,
    GreedyRT,
    Ranking,
    lambda: BatchMatching(delta_seconds=30.0),
]


# Two platforms as in the paper's evaluation, and three to keep Def. 2.3's
# "several cooperative platforms" generality under test.
PLATFORM_SETS = st.sampled_from([("A", "B"), ("A", "B", "C")])


def random_instance(seed: int, platforms=("A", "B")):
    """A random instance over ``platforms`` with mixed geometry and timing."""
    rng = random.Random(seed)
    workers = []
    for platform in platforms:
        for i in range(rng.randint(1, 6)):
            workers.append(
                make_worker(
                    f"{platform}-w{i}",
                    platform,
                    t=rng.uniform(0, 50),
                    x=rng.uniform(0, 4),
                    y=rng.uniform(0, 4),
                    radius=rng.uniform(0.5, 2.0),
                    shareable=rng.random() > 0.2,
                )
            )
    requests = []
    for i in range(rng.randint(1, 15)):
        requests.append(
            make_request(
                f"r{i}",
                rng.choice(platforms),
                t=rng.uniform(0, 100),
                x=rng.uniform(0, 4),
                y=rng.uniform(0, 4),
                value=rng.uniform(1, 50),
            )
        )
    return make_scenario(workers, requests, platform_ids=list(platforms), seed=seed)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000), PLATFORM_SETS)
@pytest.mark.parametrize("factory", ALGORITHMS)
def test_constraints_hold_for_every_algorithm(factory, seed, platforms):
    scenario = random_instance(seed, platforms)
    result = Simulator(SimulatorConfig(seed=seed, measure_response_time=False)).run(
        scenario, factory
    )
    validate_matching(result.all_records())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
@pytest.mark.parametrize("factory", ALGORITHMS)
def test_request_conservation(factory, seed):
    scenario = random_instance(seed)
    result = Simulator(SimulatorConfig(seed=seed, measure_response_time=False)).run(
        scenario, factory
    )
    assert result.total_completed + result.total_rejected == scenario.request_count


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000), PLATFORM_SETS)
@pytest.mark.parametrize("factory", [DemCOM, RamCOM])
def test_revenue_accounting_identity(factory, seed, platforms):
    """Eq. 1 holds record by record, and lender income mirrors payments."""
    scenario = random_instance(seed, platforms)
    result = Simulator(SimulatorConfig(seed=seed, measure_response_time=False)).run(
        scenario, factory
    )
    for platform_id, outcome in result.platforms.items():
        ledger = outcome.ledger
        inner = sum(
            record.request.value
            for record in ledger.records
            if record.kind is AssignmentKind.INNER
        )
        outer = sum(
            record.request.value - record.payment
            for record in ledger.records
            if record.kind is AssignmentKind.OUTER
        )
        assert ledger.revenue == pytest.approx(inner + outer)
    total_payments = sum(
        record.payment for record in result.all_records() if record.payment > 0
    )
    total_lender = sum(
        p.ledger.total_lender_income for p in result.platforms.values()
    )
    assert total_lender == pytest.approx(total_payments)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000), PLATFORM_SETS)
@pytest.mark.parametrize("factory", [TOTA, DemCOM, RamCOM])
def test_offline_dominates_online(factory, seed, platforms):
    scenario = random_instance(seed, platforms)
    optimum = solve_offline(scenario).total_revenue
    result = Simulator(SimulatorConfig(seed=seed, measure_response_time=False)).run(
        scenario, factory
    )
    assert optimum >= result.total_revenue - 1e-9


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_determinism_across_algorithm_runs(seed):
    scenario = random_instance(seed)
    config = SimulatorConfig(seed=seed, measure_response_time=False)
    for factory in (DemCOM, RamCOM):
        first = Simulator(config).run(scenario, factory)
        second = Simulator(config).run(scenario, factory)
        assert first.total_revenue == second.total_revenue
        assert first.total_completed == second.total_completed


def _fault_plan(seed: int) -> FaultPlan:
    """A heavy mixed-fault plan derived from the instance seed."""
    return FaultPlan(
        seed=seed,
        claim_failure_rate=0.5,
        message_delay_rate=0.4,
        worker_dropout_rate=0.3,
        random_outages_per_platform=1,
        outage_duration_s=25.0,
        horizon_s=100.0,
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
@pytest.mark.parametrize("factory", [TOTA, DemCOM, RamCOM])
def test_constraints_hold_under_injected_faults(factory, seed):
    """Claim failures, retries, dropouts and outages never corrupt the
    matching: every record still passes the Def.-2.6 checker and no worker
    is claimed by two platforms (the checker's 1-by-1 pass over the pooled
    records)."""
    scenario = random_instance(seed)
    result = Simulator(
        SimulatorConfig(
            seed=seed, measure_response_time=False, fault_plan=_fault_plan(seed)
        )
    ).run(scenario, factory)
    records = result.all_records()
    validate_matching(records)
    worker_ids = [record.worker.worker_id for record in records]
    assert len(worker_ids) == len(set(worker_ids))
    assert result.total_completed + result.total_rejected == scenario.request_count


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_fault_injection_is_deterministic(seed):
    """Same scenario + same FaultPlan seed -> identical metrics."""
    scenario = random_instance(seed)
    config = SimulatorConfig(
        seed=seed, measure_response_time=False, fault_plan=_fault_plan(seed)
    )
    first = Simulator(config).run(scenario, DemCOM)
    second = Simulator(config).run(scenario, DemCOM)
    assert first.total_revenue == second.total_revenue
    assert first.total_completed == second.total_completed
    assert first.total_retries == second.total_retries
    assert first.total_failed_claims == second.total_failed_claims
    assert first.total_dropped_workers == second.total_dropped_workers
    assert first.total_degraded_decisions == second.total_degraded_decisions


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_zero_fault_plan_is_bit_identical(seed):
    """Wrapping the exchange with a zero-fault plan changes nothing."""
    scenario = random_instance(seed)
    plain = Simulator(
        SimulatorConfig(seed=seed, measure_response_time=False)
    ).run(scenario, RamCOM)
    wrapped = Simulator(
        SimulatorConfig(
            seed=seed, measure_response_time=False, fault_plan=FaultPlan()
        )
    ).run(scenario, RamCOM)
    assert wrapped.total_revenue == plain.total_revenue
    assert [
        (r.request.request_id, r.worker.worker_id, r.kind, r.payment)
        for r in wrapped.all_records()
    ] == [
        (r.request.request_id, r.worker.worker_id, r.kind, r.payment)
        for r in plain.all_records()
    ]


def one_sided_instance(seed: int):
    """All requests target platform A; platform B only supplies workers.

    With no demand of its own, B's lent workers displace nothing, so
    cooperation can only add revenue for A.  (On general two-sided
    instances a borrow may displace the lender's own future assignment, so
    "cooperation never hurts" is NOT an invariant there — the tables merely
    show it helps on realistic workloads.)
    """
    rng = random.Random(seed)
    workers = [
        make_worker(
            f"{platform}-w{i}",
            platform,
            t=rng.uniform(0, 50),
            x=rng.uniform(0, 4),
            y=rng.uniform(0, 4),
            radius=rng.uniform(0.5, 2.0),
        )
        for platform in ("A", "B")
        for i in range(rng.randint(1, 5))
    ]
    requests = [
        make_request(
            f"r{i}",
            "A",
            t=rng.uniform(0, 100),
            x=rng.uniform(0, 4),
            y=rng.uniform(0, 4),
            value=rng.uniform(1, 50),
        )
        for i in range(rng.randint(1, 12))
    ]
    return make_scenario(workers, requests, platform_ids=["A", "B"], seed=seed)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_cooperation_never_hurts_demcom_one_sided(seed):
    """DemCOM reaches the outer path only when no inner worker exists, so
    on one-sided demand enabling cooperation cannot reduce revenue."""
    scenario = one_sided_instance(seed)
    with_coop = Simulator(
        SimulatorConfig(seed=seed, measure_response_time=False)
    ).run(scenario, DemCOM)
    without = Simulator(
        SimulatorConfig(
            seed=seed, measure_response_time=False, cooperation_enabled=False
        )
    ).run(scenario, DemCOM)
    assert with_coop.total_revenue >= without.total_revenue - 1e-9


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_outer_payments_within_definition_2_4(seed):
    """Every outer payment lies in (0, v_r] (Definition 2.4)."""
    scenario = random_instance(seed)
    for factory in (DemCOM, RamCOM):
        result = Simulator(
            SimulatorConfig(seed=seed, measure_response_time=False)
        ).run(scenario, factory)
        for record in result.all_records():
            if record.kind is AssignmentKind.OUTER:
                assert 0.0 < record.payment <= record.request.value + 1e-9


def _random_metric_events(rng: random.Random, count: int) -> list[tuple]:
    """A random telemetry history: (kind, name, value, labels) tuples."""
    events = []
    for _ in range(count):
        kind = rng.choice(("count", "observe", "gauge_add"))
        name = rng.choice(("alpha", "beta", "gamma"))
        labels = {"platform": rng.choice(("A", "B", "C"))}
        if rng.random() < 0.5:
            labels["kind"] = rng.choice(("x", "y"))
        # Dyadic values (multiples of 1/16) keep float sums exact under any
        # grouping, so the merge identity can be asserted bit-for-bit —
        # matching the engine, whose counter increments are integral.
        value = rng.randrange(0, 1600) / 16.0
        events.append((kind, name, value, labels))
    return events


def _apply_events(registry, events) -> None:
    for kind, name, value, labels in events:
        if kind == "count":
            registry.counter(name).inc(value, **labels)
        elif kind == "observe":
            registry.histogram(name + "_hist").observe(value, **labels)
        else:
            registry.gauge(name + "_gauge").add(value, **labels)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
)
def test_merging_shard_snapshots_equals_global_snapshot(seed, shards):
    """Telemetry invariant: N per-shard registries (per platform, per run)
    merge into exactly the snapshot one shared registry would have produced
    — regardless of how the event history is partitioned or the order the
    shards are merged in."""
    from repro.obs import MetricsRegistry, MetricsSnapshot

    rng = random.Random(seed)
    events = _random_metric_events(rng, rng.randint(0, 60))

    global_registry = MetricsRegistry()
    _apply_events(global_registry, events)

    shard_registries = [MetricsRegistry() for _ in range(shards)]
    for event in events:
        _apply_events(shard_registries[rng.randrange(shards)], [event])

    merged = MetricsSnapshot()
    for registry in shard_registries:
        merged = merged.merge(registry.snapshot())
    assert merged.as_dict() == global_registry.snapshot().as_dict()

    # Merge order must not matter (associativity + commutativity).
    reversed_merge = MetricsSnapshot()
    for registry in reversed(shard_registries):
        reversed_merge = reversed_merge.merge(registry.snapshot())
    assert reversed_merge.as_dict() == merged.as_dict()


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_per_run_telemetry_summaries_pool_into_global(seed):
    """Simulator-level version of the merge invariant: summaries of N runs
    pool into the summary of one registry that saw all N histories."""
    from repro.obs import MetricsRegistry, Telemetry

    rng = random.Random(seed)
    scenarios = [random_instance(rng.randrange(10_000)) for _ in range(3)]

    pooled = None
    global_registry = MetricsRegistry()
    for index, scenario in enumerate(scenarios):
        telemetry = Telemetry()
        Simulator(
            SimulatorConfig(
                seed=seed + index, measure_response_time=False, telemetry=telemetry
            )
        ).run(scenario, DemCOM)
        summary = telemetry.summary()
        pooled = summary if pooled is None else pooled.merge(summary)
        # Replay this run's counters into the shared registry.
        for name, entries in summary.metrics.counters.items():
            for entry in entries:
                global_registry.counter(name).inc(
                    entry["value"], **dict(entry["labels"])
                )
    assert pooled is not None
    assert (
        pooled.metrics.counters == global_registry.snapshot().counters
    )


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_offers_respect_realized_reservations(seed):
    """Accepted outer assignments actually cleared the oracle's draw."""
    scenario = random_instance(seed)
    result = Simulator(SimulatorConfig(seed=seed, measure_response_time=False)).run(
        scenario, DemCOM
    )
    for record in result.all_records():
        if record.kind is AssignmentKind.OUTER:
            reservation = scenario.oracle.reservation_price(
                record.worker.worker_id,
                record.request.request_id,
                record.request.value,
            )
            assert record.payment >= reservation - 1e-9
