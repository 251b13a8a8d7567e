"""Micro-benchmarks of the hot components (proper pytest-benchmark timing).

These are the kernels behind the response-time metric: eligibility
queries, Algorithm-2 payment estimation, MER quoting, single decisions,
and the offline matcher.  Useful for tracking performance regressions
independently of the end-to-end tables.
"""

from __future__ import annotations

import random

from repro.core import DemCOM, RamCOM, Simulator, SimulatorConfig
from repro.core.acceptance import AcceptanceEstimator
from repro.core.payment import MinimumOuterPaymentEstimator
from repro.core.pricing import MaximumExpectedRevenuePricer
from repro.baselines import TOTA, solve_offline
from repro.geo import GridIndex, Point
from repro.graph.mincostflow import CapacitatedAssignment
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig


def test_grid_index_query(benchmark):
    rng = random.Random(0)
    index = GridIndex(1.0)
    for i in range(5000):
        index.insert(i, Point(rng.uniform(0, 20), rng.uniform(0, 20)))
    center = Point(10, 10)
    result = benchmark(index.query_radius, center, 1.0)
    assert isinstance(result, list)


def test_algorithm2_payment_estimate(benchmark):
    rng = random.Random(1)
    acceptance = AcceptanceEstimator()
    for i in range(8):
        acceptance.set_history(
            f"w{i}", [max(0.05, rng.gauss(0.8, 0.05)) for _ in range(50)]
        )
    estimator = MinimumOuterPaymentEstimator(acceptance)
    workers = [f"w{i}" for i in range(8)]

    def run():
        return estimator.estimate(20.0, workers, random.Random(3))

    result = benchmark(run)
    assert result.payment > 0


def test_mer_pricer_quote(benchmark):
    rng = random.Random(2)
    acceptance = AcceptanceEstimator()
    for i in range(8):
        acceptance.set_history(
            f"w{i}", [max(0.05, rng.gauss(0.8, 0.05)) for _ in range(50)]
        )
    pricer = MaximumExpectedRevenuePricer(acceptance)
    workers = [f"w{i}" for i in range(8)]
    quote = benchmark(pricer.quote, 20.0, workers)
    assert 0 < quote.payment <= 20.0


def _simulation_scenario():
    return SyntheticWorkload(
        SyntheticWorkloadConfig(request_count=400, worker_count=120, city_km=6.0)
    ).build(seed=4)


def test_simulation_tota(benchmark):
    scenario = _simulation_scenario()
    simulator = Simulator(SimulatorConfig(seed=0, measure_response_time=False))
    result = benchmark.pedantic(
        simulator.run, args=(scenario, TOTA), rounds=3, iterations=1
    )
    assert result.total_completed > 0


def test_simulation_demcom(benchmark):
    scenario = _simulation_scenario()
    simulator = Simulator(SimulatorConfig(seed=0, measure_response_time=False))
    result = benchmark.pedantic(
        simulator.run, args=(scenario, DemCOM), rounds=3, iterations=1
    )
    assert result.total_completed > 0


def test_simulation_ramcom(benchmark):
    scenario = _simulation_scenario()
    simulator = Simulator(SimulatorConfig(seed=0, measure_response_time=False))
    result = benchmark.pedantic(
        simulator.run, args=(scenario, RamCOM), rounds=3, iterations=1
    )
    assert result.total_completed > 0


def test_offline_matching(benchmark):
    scenario = _simulation_scenario()
    solution = benchmark.pedantic(
        solve_offline, args=(scenario,), rounds=3, iterations=1
    )
    assert solution.total_revenue > 0


def test_sparse_assignment(benchmark):
    rng = random.Random(5)
    solver = CapacitatedAssignment()
    for job in range(300):
        for __ in range(4):
            solver.add_edge(job, rng.randrange(200), rng.uniform(1, 10))

    __, total_weight = benchmark(solver.solve)
    assert total_weight > 0
