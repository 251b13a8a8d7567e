"""The experiment executor's byte-identity guarantee.

``run_comparison`` runs (algorithm, seed) cells in-process or across a
process pool (``ExperimentConfig.jobs``) and must merge pooled cells into
*exactly* the rows the in-process run produces —
deterministic fields byte for byte, pooled telemetry included.  Wall-clock
derived values (``response_time_ms``, the
:data:`repro.obs.WALL_CLOCK_FAMILIES` histogram families) are outside the
guarantee and stripped before comparison, as documented in
docs/PERFORMANCE.md.
"""

from __future__ import annotations

import json
import multiprocessing.pool
from dataclasses import replace

import pytest

from repro.core.simulator import SimulatorConfig
from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentConfig,
    average_metrics,
    run_algorithm,
    run_comparison,
    run_fault_sweep,
)
from repro.experiments.ablation import (
    run_cooperation_ablation,
    run_payment_accuracy_ablation,
    run_pricer_breakpoint_ablation,
    run_ramcom_k_sweep,
)
from repro.experiments.harness import run_cell
from repro.experiments.reporting import metrics_to_dict
from repro.obs import WALL_CLOCK_FAMILIES, MetricsSnapshot
from repro.utils import resolve_jobs

from conftest import make_request, make_scenario, make_worker


def _scenario():
    workers = [
        make_worker(f"a{i}", "A", i * 0.2, x=i * 0.25, y=0.1 * i, radius=1.8)
        for i in range(8)
    ] + [
        make_worker(f"b{i}", "B", i * 0.3, x=i * 0.35, y=0.2, radius=1.5)
        for i in range(6)
    ]
    requests = [
        make_request(f"ra{i}", "A", 2.0 + i * 0.3, x=i * 0.25, value=4.0 + i)
        for i in range(10)
    ] + [
        make_request(f"rb{i}", "B", 2.4 + i * 0.4, x=i * 0.35, y=0.2, value=6.0)
        for i in range(6)
    ]
    return make_scenario(workers, requests, platform_ids=["A", "B"])


def _config(**overrides):
    defaults = dict(
        seeds=(0, 1, 2),
        service_duration=600.0,
        simulator=SimulatorConfig(measure_response_time=False),
        telemetry=True,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _canonical(rows) -> str:
    """Deterministic JSON view: wall-clock values stripped."""
    payload = []
    for row in rows:
        entry = metrics_to_dict(row)
        # OFF amortizes its solve wall-clock into response_time_ms; online
        # rows ran with measure_response_time=False, so dropping the field
        # uniformly loses nothing deterministic.
        entry.pop("response_time_ms", None)
        if row.telemetry is not None:
            entry["telemetry"] = row.telemetry.without_wall_clock().as_dict()
        payload.append(entry)
    return json.dumps(payload, sort_keys=True, default=str)


ALGORITHMS = ["demcom", "ramcom", "off"]


@pytest.fixture
def pool_spy(monkeypatch):
    """Record the task count of every pool ``starmap`` in this process."""
    tasks: list[int] = []
    starmap = multiprocessing.pool.Pool.starmap

    def spy(self, function, iterable, chunksize=None):
        iterable = list(iterable)
        tasks.append(len(iterable))
        return starmap(self, function, iterable, chunksize)

    monkeypatch.setattr(multiprocessing.pool.Pool, "starmap", spy)
    return tasks


class TestByteIdentity:
    def test_parallel_equals_serial_including_telemetry(self):
        scenario = _scenario()
        config = _config()
        serial = run_comparison(scenario, ALGORITHMS, config)
        parallel = run_comparison(scenario, ALGORITHMS, replace(config, jobs=2))
        assert _canonical(parallel) == _canonical(serial)

    def test_config_jobs_dispatches_to_parallel(self):
        scenario = _scenario()
        serial = run_comparison(scenario, ["demcom"], _config())
        via_config = run_comparison(scenario, ["demcom"], _config(jobs=2))
        assert _canonical(via_config) == _canonical(serial)

    def test_run_algorithm_parallel_counterpart(self):
        scenario = _scenario()
        serial = run_algorithm(scenario, "ramcom", _config())
        parallel = run_algorithm(scenario, "ramcom", _config(jobs=2))
        assert _canonical([parallel]) == _canonical([serial])

    def test_single_job_falls_back_in_process(self, pool_spy):
        scenario = _scenario()
        serial = run_comparison(scenario, ["tota"], _config(seeds=(0,)))
        # One cell never pays for a pool, whatever the job count.
        in_process = run_comparison(scenario, ["tota"], _config(seeds=(0,), jobs=2))
        assert pool_spy == []
        assert _canonical(in_process) == _canonical(serial)


class TestCells:
    def test_run_cell_matches_one_serial_seed(self):
        # A cell is one *inner* per-seed iteration; the runner (like the
        # serial harness) folds cells through average_metrics, so the
        # averaged single cell must equal the serial single-seed row.
        scenario = _scenario()
        config = _config(seeds=(4,), telemetry=False)
        row = average_metrics([run_cell(_scenario(), "demcom", 4, config)])
        serial = run_algorithm(scenario, "demcom", config)
        assert _canonical([row]) == _canonical([serial])

    def test_run_cell_none_seed_is_offline(self):
        config = _config(telemetry=False)
        row = run_cell(_scenario(), "off", None, config)
        serial = run_algorithm(_scenario(), "off", config)
        assert row.algorithm == serial.algorithm
        assert row.revenue == serial.revenue

    def test_empty_seeds_raise(self):
        with pytest.raises(ConfigurationError):
            run_comparison(_scenario(), ["demcom"], _config(seeds=(), jobs=2))

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        with pytest.raises(ConfigurationError, match=">= 0"):
            resolve_jobs(-2)


class TestWallClockCanonicalization:
    def test_without_families_drops_all_kinds(self):
        snapshot = MetricsSnapshot(
            counters={"a_total": [], "decision_seconds": []},
            gauges={"decision_seconds": []},
            histograms={"decision_seconds": [], "keep_me": []},
        )
        stripped = snapshot.without_families("decision_seconds")
        assert "decision_seconds" not in stripped.counters
        assert "decision_seconds" not in stripped.gauges
        assert "decision_seconds" not in stripped.histograms
        assert "a_total" in stripped.counters
        assert "keep_me" in stripped.histograms

    def test_wall_clock_families_are_the_measured_latencies(self):
        assert "decision_seconds" in WALL_CLOCK_FAMILIES
        assert "exchange_rpc_seconds" in WALL_CLOCK_FAMILIES

    def test_summary_without_wall_clock_is_parallel_stable(self):
        scenario = _scenario()
        config = _config(seeds=(0,))
        serial = run_comparison(scenario, ["demcom"], config)[0]
        parallel = run_comparison(
            scenario, ["demcom", "ramcom"], replace(config, jobs=2)
        )[0]
        assert serial.telemetry is not None and parallel.telemetry is not None
        assert (
            serial.telemetry.without_wall_clock().as_dict()
            == parallel.telemetry.without_wall_clock().as_dict()
        )


class TestSweepsUseThePool:
    """``--jobs`` reaches every cell of the chaos sweep and of every
    ablation, through one pool per sweep."""

    @pytest.mark.parametrize(
        ("ablation", "cells"),
        [
            (run_cooperation_ablation, 4 * 2),
            (run_payment_accuracy_ablation, 3 * 2),
            (run_pricer_breakpoint_ablation, 4 * 2),
        ],
    )
    def test_ablation_pools_every_cell_once(self, pool_spy, ablation, cells):
        scenario = _scenario()
        config = _config(seeds=(0, 1), telemetry=False)
        serial = ablation(scenario, config)
        assert pool_spy == []
        pooled = ablation(scenario, replace(config, jobs=2))
        assert pool_spy == [cells]
        assert [label for label, _ in pooled.rows] == [
            label for label, _ in serial.rows
        ]
        assert _canonical(row for _, row in pooled.rows) == _canonical(
            row for _, row in serial.rows
        )

    def test_fault_sweep_pools_every_cell(self, pool_spy):
        scenario = _scenario()
        config = _config(seeds=(0, 1), telemetry=False)
        serial = run_fault_sweep(scenario, rates=(0.0, 0.4), config=config)
        assert pool_spy == []
        pooled = run_fault_sweep(
            scenario, rates=(0.0, 0.4), config=replace(config, jobs=2)
        )
        # Two algorithms x two rates x two seeds, all in one pool.
        assert pool_spy == [8]
        assert [row.fault_rate for row in pooled.rows] == [
            row.fault_rate for row in serial.rows
        ]
        assert _canonical(row.metrics for row in pooled.rows) == _canonical(
            row.metrics for row in serial.rows
        )

    def test_ramcom_k_sweep_pools_every_cell(self, pool_spy):
        scenario = _scenario()
        config = _config(seeds=(0, 1), telemetry=False)
        serial = run_ramcom_k_sweep(scenario, config)
        assert pool_spy == []
        pooled = run_ramcom_k_sweep(scenario, replace(config, jobs=2))
        # Every pinned-k row and the randomized row, two seeds each.
        assert pool_spy == [2 * len(serial.rows)]
        assert [label for label, _ in pooled.rows] == [
            label for label, _ in serial.rows
        ]
        assert _canonical(row for _, row in pooled.rows) == _canonical(
            row for _, row in serial.rows
        )
