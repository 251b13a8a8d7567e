"""Persist experiment results to disk (CSV / JSON).

The benches print tables; this module lets scripts and the CLI also save
them under a results directory for downstream plotting — one file per
artifact, named after the experiment id.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.registry import algorithm_factory
from repro.core.simulator import (
    Scenario,
    SimulationResult,
    Simulator,
    SimulatorConfig,
)
from repro.experiments.chaos import ChaosResult
from repro.experiments.figures import FigurePanel
from repro.experiments.metrics import AlgorithmMetrics
from repro.experiments.tables import TableResult

__all__ = [
    "save_table",
    "save_panel",
    "save_chaos",
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


def save_table(result: TableResult, directory: str | Path) -> Path:
    """Write one regenerated table as JSON; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"table_{result.table_id}_{result.pair}.json"
    payload = {
        "table_id": result.table_id,
        "pair": result.pair,
        "scale": result.scale,
        "platform_ids": result.platform_ids,
        "rows": [metrics_to_dict(row) for row in result.rows],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def save_chaos(result: ChaosResult, directory: str | Path) -> Path:
    """Write one fault sweep as JSON; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    slug = result.scenario_name.replace("/", "-").replace(" ", "_")
    path = directory / f"chaos_{slug}.json"
    payload = {
        "scenario": result.scenario_name,
        "rows": [
            {"fault_rate": row.fault_rate, **metrics_to_dict(row.metrics)}
            for row in result.rows
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def save_panel(panel: FigurePanel, directory: str | Path) -> Path:
    """Write one figure panel as CSV (x column + one column per series)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    slug = panel.panel_id.replace("(", "").replace(")", "")
    path = directory / f"fig{slug}_{panel.metric}_vs_{panel.axis}.csv"
    algorithms = list(panel.series.keys())
    lines = [",".join([panel.axis] + algorithms)]
    for index, x in enumerate(panel.x_values):
        cells = [f"{x:g}"] + [
            f"{panel.series[name][index]:.6g}" for name in algorithms
        ]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path
