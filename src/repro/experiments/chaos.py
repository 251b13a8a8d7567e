"""Chaos experiments: how gracefully do the COM algorithms degrade?

A fault sweep replays one scenario under :meth:`FaultPlan.uniform` at
increasing fault rates and reports, per algorithm and rate, the revenue /
acceptance degradation together with the failure accounting (retries,
failed claims, degraded decisions, dropped workers, outage time).

Every run's matching is validated against the Definition-2.6 constraint
checker (the executor checks every simulated run) — resilience must never
buy revenue back by breaking the model.

Run by ``benchmarks/bench_chaos.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.simulator import Scenario
from repro.experiments.harness import ExperimentConfig, run_rows
from repro.experiments.metrics import AlgorithmMetrics
from repro.faults.plan import FaultPlan
from repro.utils.tables import TextTable

__all__ = ["ChaosRow", "ChaosResult", "run_fault_sweep"]

#: Default single-knob sweep grid.
DEFAULT_RATES: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8)


@dataclass(frozen=True)
class ChaosRow:
    """One (algorithm, fault-rate) measurement, averaged over seeds."""

    algorithm: str
    fault_rate: float
    metrics: AlgorithmMetrics

    @property
    def revenue(self) -> float:
        """Headline revenue (Def. 2.5 + lender income), seed-averaged."""
        return self.metrics.total_revenue

    @property
    def completed(self) -> float:
        """|CpR| across platforms."""
        return self.metrics.total_completed

    @property
    def acceptance_ratio(self) -> float | None:
        """|AcpRt| (None when no cooperative attempt was made)."""
        return self.metrics.acceptance_ratio


@dataclass
class ChaosResult:
    """A full fault sweep over one scenario."""

    scenario_name: str
    rows: list[ChaosRow]

    def series(self, algorithm: str) -> list[tuple[float, float]]:
        """``(fault_rate, revenue)`` points for one algorithm."""
        return [
            (row.fault_rate, row.revenue)
            for row in self.rows
            if row.algorithm == algorithm
        ]

    def render(self) -> str:
        """The degradation table, ready to print."""
        table = TextTable(
            [
                "Algorithm",
                "Rate",
                "Revenue",
                "|CpR|",
                "AcpRt",
                "Retries",
                "FailedClaims",
                "Degraded",
                "Dropped",
                "Outage(s)",
            ],
            title=f"Chaos sweep — {self.scenario_name}",
        )
        for row in self.rows:
            metrics = row.metrics
            table.add_row(
                [
                    row.algorithm,
                    f"{row.fault_rate:g}",
                    round(row.revenue, 1),
                    round(row.completed),
                    (
                        f"{row.acceptance_ratio:.3f}"
                        if row.acceptance_ratio is not None
                        else "-"
                    ),
                    round(metrics.retries, 1),
                    round(metrics.failed_claims, 1),
                    round(metrics.degraded_decisions, 1),
                    round(metrics.dropped_workers, 1),
                    round(metrics.outage_seconds),
                ]
            )
        return table.render()


def run_fault_sweep(
    scenario: Scenario,
    algorithms: tuple[str, ...] = ("demcom", "ramcom"),
    rates: tuple[float, ...] = DEFAULT_RATES,
    config: ExperimentConfig | None = None,
    fault_seed: int = 0,
) -> ChaosResult:
    """Sweep fault rates for each algorithm on one scenario.

    The fault plan at each rate is :meth:`FaultPlan.uniform`, whose draws
    are monotone in the rate (raising it only adds faults), so the
    degradation curves are smooth rather than re-rolled per point.  Every
    (algorithm, rate) row goes to one :func:`run_rows` call, so
    ``config.jobs`` fans the whole sweep's cells across one pool.
    """
    config = config or ExperimentConfig()
    rate_configs = [
        replace(
            config,
            simulator=replace(
                config.simulator,
                fault_plan=FaultPlan.uniform(rate, seed=fault_seed),
            ),
        )
        for rate in rates
    ]
    metrics = run_rows(
        scenario,
        [
            (algorithm, rate_config)
            for algorithm in algorithms
            for rate_config in rate_configs
        ],
        config.jobs,
    )
    rates_per_algorithm = [rate for _ in algorithms for rate in rates]
    rows = [
        ChaosRow(algorithm=row.algorithm, fault_rate=rate, metrics=row)
        for rate, row in zip(rates_per_algorithm, metrics)
    ]
    return ChaosResult(scenario_name=scenario.name, rows=rows)
