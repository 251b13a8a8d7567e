"""Pinned rows of the experiment executor, serial and pooled.

The paper's tables average each algorithm over seeds; the executor runs
every ``(algorithm, seed)`` cell and folds the cells in a fixed order, so
its rows are a pure function of the scenario and the config whatever
the job count.  These digests fix the canonical rows of one comparison,
one fault sweep and one RamCOM threshold sweep at ``jobs=1`` and
``jobs=2``: a refactor of the executor must keep them bit-identical.

Canonical rows drop ``response_time_ms`` (wall clock) and ``memory_mb``
(the memory walk sums ``sys.getsizeof``, which differs across interpreter
versions), and keep telemetry only through ``without_wall_clock()``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import ExperimentConfig, run_comparison, run_fault_sweep
from repro.experiments.ablation import run_ramcom_k_sweep
from repro.experiments.reporting import metrics_to_dict
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

COMPARISON_DIGEST = "d979c0e4895bdc4fb48c001cd1c5da9c4773c072ff5d05a5a1851b0b173ba13a"
FAULT_SWEEP_DIGEST = "0bfc52b51cd7064ff01f5a4a4d492867a629a0cf208d194b25528d6df043ac08"
RAMCOM_K_DIGEST = "6422a331fbb4ce6feb433b26525734f850bf718aed8086f0637c393cf426646e"

JOBS = [1, 2]


def _canonical(row) -> dict:
    entry = metrics_to_dict(row)
    del entry["response_time_ms"]
    del entry["memory_mb"]
    if row.telemetry is not None:
        entry["telemetry"] = row.telemetry.without_wall_clock().as_dict()
    return entry


def _sha256(payload: object) -> str:
    encoded = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(encoded).hexdigest()


@pytest.fixture(scope="module")
def scenario():
    return SyntheticWorkload(
        SyntheticWorkloadConfig(request_count=80, worker_count=30, city_km=3.0)
    ).build(1)


@pytest.mark.parametrize("jobs", JOBS)
def test_comparison_rows_pinned(scenario, jobs):
    config = ExperimentConfig(seeds=(0, 1), telemetry=True, jobs=jobs)
    rows = run_comparison(scenario, ["demcom", "ramcom", "tota", "off"], config)
    assert _sha256([_canonical(row) for row in rows]) == COMPARISON_DIGEST


@pytest.mark.parametrize("jobs", JOBS)
def test_fault_sweep_rows_pinned(scenario, jobs):
    config = ExperimentConfig(seeds=(0, 1), jobs=jobs)
    result = run_fault_sweep(scenario, rates=(0.0, 0.4), config=config)
    rows = [
        {"rate": row.fault_rate, **_canonical(row.metrics)} for row in result.rows
    ]
    assert _sha256(rows) == FAULT_SWEEP_DIGEST


@pytest.mark.parametrize("jobs", JOBS)
def test_ramcom_k_sweep_rows_pinned(scenario, jobs):
    config = ExperimentConfig(seeds=(0, 1), jobs=jobs)
    result = run_ramcom_k_sweep(scenario, config)
    rows = [{"setting": label, **_canonical(row)} for label, row in result.rows]
    assert _sha256(rows) == RAMCOM_K_DIGEST
