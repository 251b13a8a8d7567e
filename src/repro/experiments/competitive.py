"""Empirical competitive-ratio studies (Theorems 1 and 2).

The paper analyses two CR notions (Definitions 2.7/2.8):

* **Adversarial** — the worst ratio over all arrival orders.  Theorem 1:
  DemCOM's adversarial CR is unbounded (a bad order starves it
  arbitrarily); we exhibit this with both exhaustive order enumeration on
  tiny instances and a crafted worst-case family
  (:func:`demcom_worst_case_family`).
* **Random order** — the expected ratio over uniformly random arrival
  orders.  Theorem 2: RamCOM's CR reaches ``1/(8e) ~= 0.046``; the random-
  order study checks the empirical expectation clears that bound.

Both studies run *without* worker reentry so OFF (exact max-weight
matching over identical reservation draws) is the true optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.baselines.offline import solve_offline
from repro.core.registry import algorithm_factory
from repro.core.simulator import Scenario, Simulator, SimulatorConfig
from repro.errors import ConfigurationError
from repro.utils.rng import derive_rng

__all__ = [
    "CompetitiveRatioReport",
    "adversarial_ratio",
    "random_order_ratio",
    "RAMCOM_THEORETICAL_CR",
]

#: Theorem 2's bound: 1 / (8e).
RAMCOM_THEORETICAL_CR = 1.0 / (8.0 * math.e)

#: Arrival orders :func:`adversarial_ratio` enumerates at most (7!).
MAX_ORDERS = 5040


@dataclass
class CompetitiveRatioReport:
    """Outcome of one CR study."""

    algorithm: str
    model: str  # "adversarial" | "random-order"
    optimum: float
    ratios: list[float] = field(default_factory=list)

    @property
    def minimum(self) -> float:
        """The worst observed ratio (the adversarial statistic)."""
        return min(self.ratios) if self.ratios else 0.0

    @property
    def expectation(self) -> float:
        """The mean observed ratio (the random-order statistic)."""
        if not self.ratios:
            return 0.0
        return sum(self.ratios) / len(self.ratios)

    @property
    def orders_evaluated(self) -> int:
        """How many arrival orders were run."""
        return len(self.ratios)


def _run_on_order(
    scenario: Scenario,
    order: list[int],
    algorithm: str,
    seed: int,
) -> tuple[float, float]:
    """Return ``(online_revenue, offline_optimum)`` for one arrival order.

    Both Definitions 2.7 and 2.8 compare the online result against the
    offline optimum *of the same input*: the arrival order constrains OPT
    too (a worker arriving after a request cannot serve it even offline),
    so OPT must be recomputed per order.
    """
    reordered = Scenario(
        events=scenario.events.reordered(order),
        oracle=scenario.oracle,
        platform_ids=scenario.platform_ids,
        value_upper_bound=scenario.value_upper_bound,
        name=scenario.name,
    )
    simulator = Simulator(
        SimulatorConfig(seed=seed, worker_reentry=False, measure_response_time=False)
    )
    result = simulator.run(reordered, algorithm_factory(algorithm))
    optimum = solve_offline(reordered).total_revenue
    return result.total_revenue, optimum


def adversarial_ratio(
    scenario: Scenario, algorithm: str, seed: int = 0
) -> CompetitiveRatioReport:
    """Min ratio over arrival orders (exhaustive for small instances).

    Only *valid* online inputs are enumerated: every permutation of the
    event list (a worker may arrive after requests it then cannot serve —
    that is exactly the adversary's power).  For more than
    :data:`MAX_ORDERS` permutations the enumeration is truncated
    deterministically.
    """
    event_count = len(scenario.events)
    if event_count > 9:
        raise ConfigurationError(
            "adversarial enumeration is exponential; use <= 9 events "
            f"(got {event_count})"
        )
    base_optimum = solve_offline(scenario).total_revenue
    report = CompetitiveRatioReport(
        algorithm=algorithm, model="adversarial", optimum=base_optimum
    )
    for index, order in enumerate(itertools.permutations(range(event_count))):
        if index >= MAX_ORDERS:
            break
        revenue, optimum = _run_on_order(scenario, list(order), algorithm, seed)
        if optimum <= 0:
            continue  # an order where nothing is feasible bounds nothing
        report.ratios.append(revenue / optimum)
    if not report.ratios:
        raise ConfigurationError("no order had a positive offline optimum")
    return report


def random_order_ratio(
    scenario: Scenario, algorithm: str, trials: int = 100, seed: int = 0
) -> CompetitiveRatioReport:
    """Expected ratio over uniformly random arrival orders."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    base_optimum = solve_offline(scenario).total_revenue
    report = CompetitiveRatioReport(
        algorithm=algorithm, model="random-order", optimum=base_optimum
    )
    event_count = len(scenario.events)
    for trial in range(trials):
        rng = derive_rng(seed, f"cr-order/{trial}")
        order = list(range(event_count))
        rng.shuffle(order)
        revenue, optimum = _run_on_order(scenario, order, algorithm, seed=trial)
        if optimum <= 0:
            continue
        report.ratios.append(revenue / optimum)
    if not report.ratios:
        raise ConfigurationError("no sampled order had a positive offline optimum")
    return report


def demcom_worst_case_family(epsilon: float = 0.01):
    """The Theorem-1 adversarial family showing DemCOM's CR is unbounded.

    Construction (one platform, no outer workers — greedy's classic trap):
    a single worker covers two requests; a cheap request of value
    ``epsilon`` arrives first and greedy burns the worker on it, then the
    valuable request (value 1) arrives and is rejected.  OPT serves the
    valuable one, so the ratio is ``epsilon -> 0``.

    Returns ``(scenario, expected_ratio)``; the bench asserts the measured
    ratio matches.
    """
    from repro.behavior.distributions import UniformDistribution
    from repro.behavior.worker_model import BehaviorOracle, WorkerBehavior
    from repro.core.entities import Request, Worker
    from repro.core.events import EventStream
    from repro.geo.point import Point

    if not 0 < epsilon < 1:
        raise ConfigurationError("epsilon must be in (0, 1)")
    worker = Worker("w0", "A", 0.0, Point(0.0, 0.0), service_radius=1.0)
    cheap = Request("r-cheap", "A", 1.0, Point(0.0, 0.1), value=epsilon)
    rich = Request("r-rich", "A", 2.0, Point(0.0, -0.1), value=1.0)
    oracle = BehaviorOracle(seed=0)
    oracle.register(WorkerBehavior("w0", UniformDistribution(0.9, 1.0), [1.0]))
    scenario = Scenario(
        events=EventStream.from_entities([worker], [cheap, rich]),
        oracle=oracle,
        platform_ids=["A"],
        value_upper_bound=1.0,
        name=f"demcom-worst-case-eps{epsilon:g}",
    )
    expected_ratio = epsilon / 1.0
    return scenario, expected_ratio
