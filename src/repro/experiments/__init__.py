"""Experiment harness: everything needed to regenerate the paper's §V.

* :mod:`metrics` — the metric rows the paper's tables report, computed
  from simulation results and offline solutions;
* :mod:`harness` — run algorithms (and OFF) over one scenario, averaged
  over seeds; the algorithm x seed cells run in-process or across a
  process pool with byte-identical output (docs/PERFORMANCE.md);
* :mod:`tables` — Tables V-VII (the three city pairs);
* :mod:`figures` — Fig. 5's twelve panels (revenue / response time /
  memory / acceptance ratio, each vs |R| / |W| / rad);
* :mod:`competitive` — empirical competitive-ratio studies backing
  Theorems 1 and 2;
* :mod:`ablation` — design-choice ablations (DESIGN.md §4).
"""

from repro.experiments.metrics import AlgorithmMetrics, average_metrics
from repro.experiments.harness import ExperimentConfig, run_algorithm, run_comparison
from repro.experiments.tables import TableResult, run_city_table
from repro.experiments.figures import FigurePanel, run_figure5_panel
from repro.experiments.competitive import (
    CompetitiveRatioReport,
    adversarial_ratio,
    random_order_ratio,
)
from repro.experiments.chaos import ChaosResult, ChaosRow, run_fault_sweep

__all__ = [
    "ChaosResult",
    "ChaosRow",
    "run_fault_sweep",
    "AlgorithmMetrics",
    "average_metrics",
    "ExperimentConfig",
    "run_algorithm",
    "run_comparison",
    "TableResult",
    "run_city_table",
    "FigurePanel",
    "run_figure5_panel",
    "CompetitiveRatioReport",
    "adversarial_ratio",
    "random_order_ratio",
]
