"""Shared configuration for the benchmark suite.

Environment knobs (all optional):

* ``REPRO_BENCH_SCALE`` — fraction of Table III's entity counts simulated
  by the table benches (default 0.01; the paper's full scale is 1.0).
* ``REPRO_BENCH_SEEDS`` — seed-days averaged per measurement (default 2).
* ``REPRO_BENCH_FULL`` — set to 1 to run the figure sweeps over the full
  Table-IV grids (default: the heaviest tail points are truncated).
* ``REPRO_BENCH_JOBS`` — worker processes for the seed x algorithm cells
  (default 1 = serial; 0 = one per CPU).  Results are byte-identical to
  serial runs (docs/PERFORMANCE.md), so measured revenues never shift.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the regenerated
paper-vs-measured tables.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.experiments.harness import ExperimentConfig
from repro.workloads.synthetic import RADIUS_SWEEP, REQUEST_SWEEP, WORKER_SWEEP

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))
BENCH_SEEDS = int(os.environ.get("REPRO_BENCH_SEEDS", "2"))
BENCH_FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def bench_experiment_config() -> ExperimentConfig:
    """The harness configuration shared by the table/figure benches."""
    return ExperimentConfig(
        seeds=tuple(range(BENCH_SEEDS)),
        service_duration=1800.0,
        jobs=BENCH_JOBS,
    )


#: Fig.-5 axis -> Table IV's full sweep grid.
FIGURE_SWEEPS = {
    "requests": REQUEST_SWEEP,
    "workers": WORKER_SWEEP,
    "radius": RADIUS_SWEEP,
}

#: Points of each grid the default (reduced) sweep keeps: the heaviest
#: |R| and |W| tails are dropped; rad's five points are all kept.
REDUCED_SWEEP_POINTS = 5


def figure_sweep(axis: str) -> tuple:
    """The sweep grid for one Fig.-5 axis (truncated unless BENCH_FULL)."""
    full = FIGURE_SWEEPS[axis]
    return full if BENCH_FULL else full[:REDUCED_SWEEP_POINTS]
