"""Pinned outputs of the max-weight assignment baselines.

OFF, OFF-with-reentry and the Batch baseline all solve a max-weight
assignment, and ties between equally good assignments are broken by the
order in which jobs and machines reach the solver.  These digests fix the
exact pairs (not only the optimum weight) on one scenario where that
order matters, so a refactor of the solver or its builders must keep the
output bit-identical.  A digest change here is a reproducibility break,
not a test to update casually.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.baselines import solve_offline, solve_offline_reentry
from repro.core import SimulatorConfig
from repro.experiments.reporting import golden_row
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

OFF_DIGEST = "dde7e52f4ef252beefe10107e91d7becd97f82002f8c82c316751f023c5166ef"
REENTRY_DIGEST = "1845b5a2de6c20c616fa516772fe9cc27d1146c095705f3e692918ca7e6b781d"
BATCH_DIGEST = "406f02efc0edf698f5f6b6fcd55ff3faef06da83c78a4609397b8a7fc933ee75"


def _sha256(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _records_digest(solution) -> str:
    return _sha256(
        sorted(
            (record.request.request_id, record.worker.worker_id, record.payment)
            for record in solution.records
        )
    )


@pytest.fixture(scope="module")
def scenario():
    return SyntheticWorkload(
        SyntheticWorkloadConfig(request_count=300, worker_count=80, city_km=3.0)
    ).build(0)


def test_offline_records_pinned(scenario):
    assert _records_digest(solve_offline(scenario)) == OFF_DIGEST


def test_offline_reentry_records_pinned(scenario):
    solution = solve_offline_reentry(scenario, service_duration=1800.0)
    assert _records_digest(solution) == REENTRY_DIGEST


def test_batch_golden_row_pinned(scenario):
    row = golden_row(scenario, "batch", SimulatorConfig(measure_response_time=False))
    assert _sha256(row) == BATCH_DIGEST
