"""Figure 5: the twelve scalability panels.

The paper sweeps |R|, |W| and rad over the Table-IV grid and plots, for
TOTA / DemCOM / RamCOM, four metrics: total revenue, average response
time, memory cost, and the acceptance ratio of cooperative requests.  One
:func:`run_figure5_axis` call regenerates the four panels of one axis from
a single sweep; ``run_figure5_axis(axis)[metric]`` is one panel.

Panel map (axis x metric):

====== ============ =========== ======== ==============
 axis    revenue     time        memory   acceptance
====== ============ =========== ======== ==============
 |R|     5(a)        5(b)        5(c)     5(d)
 |W|     5(e)        5(f)        5(g)     5(h)
 rad     5(i)        5(j)        5(k)     5(l)
====== ============ =========== ======== ==============

Default sweep values follow Table IV; benches truncate the heaviest tails
by default (documented in EXPERIMENTS.md) — pass ``values=`` explicitly to
run the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.experiments.harness import ExperimentConfig, run_comparison
from repro.experiments.metrics import AlgorithmMetrics
from repro.utils.tables import TextTable, format_si
from repro.workloads.synthetic import (
    RADIUS_SWEEP,
    REQUEST_SWEEP,
    SyntheticWorkload,
    SyntheticWorkloadConfig,
    WORKER_SWEEP,
)

__all__ = ["FigurePanel", "run_figure5_axis", "PANEL_IDS"]

#: (axis, metric) -> paper panel letter.
PANEL_IDS = {
    ("requests", "revenue"): "5(a)",
    ("requests", "time"): "5(b)",
    ("requests", "memory"): "5(c)",
    ("requests", "acceptance"): "5(d)",
    ("workers", "revenue"): "5(e)",
    ("workers", "time"): "5(f)",
    ("workers", "memory"): "5(g)",
    ("workers", "acceptance"): "5(h)",
    ("radius", "revenue"): "5(i)",
    ("radius", "time"): "5(j)",
    ("radius", "memory"): "5(k)",
    ("radius", "acceptance"): "5(l)",
}

DEFAULT_ALGORITHMS = ["tota", "demcom", "ramcom"]

#: Seed of every sweep point's synthetic scenario.
SCENARIO_SEED = 11

#: axis -> (the SyntheticWorkloadConfig field it sweeps, that field's
#: type, Table IV's sweep values).
_AXES: dict[str, tuple[str, type, tuple]] = {
    "requests": ("request_count", int, REQUEST_SWEEP),
    "workers": ("worker_count", int, WORKER_SWEEP),
    "radius": ("radius_km", float, RADIUS_SWEEP),
}


@dataclass
class FigurePanel:
    """One panel's data: x values and one series per algorithm."""

    panel_id: str
    axis: str
    metric: str
    x_values: list[float] = field(default_factory=list)
    #: algorithm -> series of metric values aligned with x_values.
    series: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        """Render the panel as an aligned text table (x down, algos across)."""
        algorithms = list(self.series.keys())
        table = TextTable(
            [self.axis] + algorithms,
            title=f"Fig. {self.panel_id} — {self.metric} vs {self.axis}",
        )
        for index, x in enumerate(self.x_values):
            row: list[object] = [format_si(x) if x >= 100 else f"{x:g}"]
            for algorithm in algorithms:
                row.append(self.series[algorithm][index])
            table.add_row(row)
        return table.render()


def _metric_of(row: AlgorithmMetrics, metric: str) -> float:
    if metric == "revenue":
        return row.total_revenue
    if metric == "time":
        return row.response_time_ms
    if metric == "memory":
        return row.memory_mb
    if metric == "acceptance":
        return row.acceptance_ratio if row.acceptance_ratio is not None else 0.0
    raise ConfigurationError(f"unknown figure metric {metric!r}")


def run_figure5_axis(
    axis: str,
    values: tuple | None = None,
    base: SyntheticWorkloadConfig | None = None,
    config: ExperimentConfig | None = None,
    algorithms: list[str] | None = None,
) -> dict[str, FigurePanel]:
    """Regenerate all four panels of one Fig.-5 row from a single sweep.

    ``axis`` is ``"requests"``, ``"workers"`` or ``"radius"``.  The paper
    plots revenue, response time, memory and acceptance ratio over the
    *same* runs, so one sweep yields all four.  The non-swept parameters
    stay at Table IV's defaults (|R|=2500, |W|=500, rad=1.0) unless
    ``base`` overrides them; every field of ``base`` but the swept one
    carries into each scenario.  Returns ``{metric: FigurePanel}``.
    """
    if axis not in _AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r}")
    field_name, field_type, default_sweep = _AXES[axis]
    sweep = values if values is not None else default_sweep
    base = base or SyntheticWorkloadConfig()
    algorithms = algorithms or list(DEFAULT_ALGORITHMS)
    metrics = ("revenue", "time", "memory", "acceptance")
    panels = {
        metric: FigurePanel(
            panel_id=PANEL_IDS[(axis, metric)],
            axis=axis,
            metric=metric,
            series={name: [] for name in algorithms},
        )
        for metric in metrics
    }
    for x in sweep:
        workload_config = replace(base, **{field_name: field_type(x)})
        scenario = SyntheticWorkload(workload_config).build(seed=SCENARIO_SEED)
        rows = run_comparison(scenario, algorithms, config)
        for metric in metrics:
            panels[metric].x_values.append(float(x))
            # run_comparison returns rows in request order, so zip against
            # the requested names (the registry is case-insensitive;
            # display names differ in case).
            for name, row in zip(algorithms, rows):
                panels[metric].series[name].append(_metric_of(row, metric))
    return panels
