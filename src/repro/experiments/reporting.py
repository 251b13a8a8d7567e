"""JSON-ready metric rows: the shape results are compared and reported in.

:func:`metrics_to_dict` is the row ``bench/`` reports and the served,
recovered and replayed runs compare against (:func:`golden_row`).
"""

from __future__ import annotations

from repro.core.registry import algorithm_factory
from repro.core.simulator import (
    Scenario,
    SimulationResult,
    Simulator,
    SimulatorConfig,
)
from repro.experiments.metrics import AlgorithmMetrics

__all__ = [
    "metrics_to_dict",
    "result_row",
    "golden_row",
]


def metrics_to_dict(row: AlgorithmMetrics) -> dict:
    """A JSON-ready view of one metric row."""
    return {
        "algorithm": row.algorithm,
        "scenario": row.scenario,
        "revenue": row.revenue,
        "platform_revenue": row.platform_revenue,
        "lender_income": row.lender_income,
        "completed": row.completed,
        "response_time_ms": row.response_time_ms,
        "memory_mb": row.memory_mb,
        "cooperative": row.cooperative,
        "acceptance_ratio": row.acceptance_ratio,
        "payment_rate": row.payment_rate,
        "runs": row.runs,
        "retries": row.retries,
        "failed_claims": row.failed_claims,
        "degraded_decisions": row.degraded_decisions,
        "dropped_workers": row.dropped_workers,
        "outage_seconds": row.outage_seconds,
        "telemetry": row.telemetry.as_dict() if row.telemetry is not None else None,
    }


def result_row(result: SimulationResult) -> dict:
    """The metric row of one finished run — the golden-equivalence surface."""
    return metrics_to_dict(AlgorithmMetrics.from_simulation(result))


def golden_row(
    scenario: Scenario, algorithm: str, config: SimulatorConfig
) -> dict:
    """The row of an uninterrupted ``Simulator.run`` of ``scenario``.

    Served, recovered and replayed runs of the same trace must reproduce
    it byte for byte.
    """
    return result_row(
        Simulator(config).run(scenario, algorithm_factory(algorithm))
    )
