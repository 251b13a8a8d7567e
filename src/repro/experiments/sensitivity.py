"""Sensitivity studies over the calibrated model parameters.

DESIGN.md §2 fixes four modelling constants that the paper leaves implicit
(the going-rate behaviour, spatial skew, service occupation).  These
studies quantify how the headline comparison responds when each constant
moves — the evidence that the reproduction's conclusions are not an
artifact of a single lucky calibration point:

* :func:`going_rate_sensitivity` — the worker's cliff location: DemCOM and
  RamCOM payment rates track it ~1:1, the revenue ordering is stable;
* :func:`jitter_sensitivity` — cliff sharpness: drives DemCOM's acceptance
  ratio (the §III-D effect) while RamCOM stays high;
* :func:`skew_sensitivity` — Fig. 2's imbalance: the single knob behind
  the size of COM's advantage over TOTA;
* :func:`occupation_sensitivity` — service duration: worker scarcity and
  with it every completion rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.experiments.harness import ExperimentConfig, run_comparison
from repro.experiments.metrics import AlgorithmMetrics
from repro.utils.tables import TextTable
from repro.workloads.builders import BehaviorConfig
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

__all__ = [
    "SensitivityResult",
    "going_rate_sensitivity",
    "jitter_sensitivity",
    "skew_sensitivity",
    "occupation_sensitivity",
]

ALGORITHMS = ["tota", "demcom", "ramcom"]

#: Seed of every sensitivity point's synthetic scenario.
SCENARIO_SEED = 21


@dataclass
class SensitivityResult:
    """Rows of one sensitivity sweep."""

    parameter: str
    #: (parameter value, {algorithm: metrics row}).
    rows: list[tuple[float, dict[str, AlgorithmMetrics]]] = field(
        default_factory=list
    )

    def render(self) -> str:
        """Aligned-text summary of the sweep."""
        table = TextTable(
            [
                self.parameter,
                "rev(TOTA)",
                "rev(DemCOM)",
                "rev(RamCOM)",
                "acpt(Dem)",
                "acpt(Ram)",
                "v'/v(Dem)",
                "v'/v(Ram)",
            ],
            title=f"Sensitivity — {self.parameter}",
        )
        for value, by_algorithm in self.rows:
            table.add_row(
                [
                    f"{value:g}",
                    round(by_algorithm["tota"].total_revenue),
                    round(by_algorithm["demcom"].total_revenue),
                    round(by_algorithm["ramcom"].total_revenue),
                    by_algorithm["demcom"].acceptance_ratio,
                    by_algorithm["ramcom"].acceptance_ratio,
                    by_algorithm["demcom"].payment_rate,
                    by_algorithm["ramcom"].payment_rate,
                ]
            )
        return table.render()

    def series(self, algorithm: str, metric: str) -> list[float]:
        """One algorithm's metric across the sweep."""
        out = []
        for __, by_algorithm in self.rows:
            row = by_algorithm[algorithm]
            value = getattr(row, metric)
            out.append(value() if callable(value) else value)
        return out


def _base_workload(**overrides) -> SyntheticWorkloadConfig:
    defaults = dict(request_count=600, worker_count=160, city_km=8.0)
    defaults.update(overrides)
    return SyntheticWorkloadConfig(**defaults)


def _run_point(
    workload: SyntheticWorkloadConfig,
    config: ExperimentConfig,
) -> dict[str, AlgorithmMetrics]:
    scenario = SyntheticWorkload(workload).build(seed=SCENARIO_SEED)
    rows = run_comparison(scenario, ALGORITHMS, config)
    return {name: row for name, row in zip(ALGORITHMS, rows)}


def going_rate_sensitivity(
    values: tuple[float, ...] = (0.6, 0.7, 0.8, 0.9),
    config: ExperimentConfig | None = None,
) -> SensitivityResult:
    """Sweep the mean going rate (workers' price cliff location)."""
    config = config or ExperimentConfig()
    result = SensitivityResult(parameter="going_rate_mean")
    for value in values:
        workload = _base_workload(
            behavior=BehaviorConfig(going_rate_mean=value)
        )
        result.rows.append((value, _run_point(workload, config)))
    return result


def jitter_sensitivity(
    values: tuple[float, ...] = (0.01, 0.03, 0.08, 0.15),
    config: ExperimentConfig | None = None,
) -> SensitivityResult:
    """Sweep the within-worker cliff sharpness."""
    config = config or ExperimentConfig()
    result = SensitivityResult(parameter="jitter")
    for value in values:
        workload = _base_workload(behavior=BehaviorConfig(jitter=value))
        result.rows.append((value, _run_point(workload, config)))
    return result


def skew_sensitivity(
    values: tuple[float, ...] = (0.0, 0.3, 0.6, 0.9),
    config: ExperimentConfig | None = None,
) -> SensitivityResult:
    """Sweep Fig. 2's spatial imbalance."""
    config = config or ExperimentConfig()
    result = SensitivityResult(parameter="skew")
    for value in values:
        workload = _base_workload(skew=value)
        result.rows.append((value, _run_point(workload, config)))
    return result


def occupation_sensitivity(
    values: tuple[float, ...] = (900.0, 1800.0, 3600.0),
    config: ExperimentConfig | None = None,
) -> SensitivityResult:
    """Sweep the per-service worker occupation (scarcity dial)."""
    config = config or ExperimentConfig()
    result = SensitivityResult(parameter="service_duration")
    workload = _base_workload()
    for value in values:
        tuned = replace(config, service_duration=value)
        result.rows.append((value, _run_point(workload, tuned)))
    return result
