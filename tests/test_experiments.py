"""Tests for the experiment harness: metrics, tables, figures, CR studies
and ablations (all on deliberately tiny instances)."""

from __future__ import annotations

import math

import pytest

from repro.core import Simulator, SimulatorConfig
from repro.core.registry import algorithm_factory
from repro.errors import ConfigurationError
from repro.experiments import (
    AlgorithmMetrics,
    ExperimentConfig,
    adversarial_ratio,
    average_metrics,
    random_order_ratio,
    run_algorithm,
    run_city_table,
    run_comparison,
    run_figure5_axis,
)
from repro.experiments.ablation import (
    run_cooperation_ablation,
    run_payment_accuracy_ablation,
    run_ramcom_k_sweep,
)
from repro.experiments.competitive import (
    RAMCOM_THEORETICAL_CR,
    demcom_worst_case_family,
)
from repro.experiments.figures import PANEL_IDS
from repro.experiments.tables import TABLE_IDS
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

TINY_CONFIG = ExperimentConfig(seeds=(0,), service_duration=1800.0)


def tiny_scenario(seed: int = 1):
    return SyntheticWorkload(
        SyntheticWorkloadConfig(request_count=60, worker_count=20, city_km=4.0)
    ).build(seed=seed)


class TestAlgorithmMetrics:
    def test_from_simulation(self):
        scenario = tiny_scenario()
        result = Simulator(
            SimulatorConfig(seed=0, worker_reentry=True, service_duration=1800.0)
        ).run(scenario, algorithm_factory("demcom"))
        row = AlgorithmMetrics.from_simulation(result)
        assert row.algorithm == "DemCOM"
        assert set(row.revenue) == set(scenario.platform_ids)
        for platform_id in scenario.platform_ids:
            assert row.revenue[platform_id] == pytest.approx(
                row.platform_revenue[platform_id] + row.lender_income[platform_id]
            )

    def test_average_requires_same_algorithm(self):
        a = AlgorithmMetrics(algorithm="X", scenario="s")
        b = AlgorithmMetrics(algorithm="Y", scenario="s")
        with pytest.raises(ValueError):
            average_metrics([a, b])
        with pytest.raises(ValueError):
            average_metrics([])

    def test_average_means(self):
        a = AlgorithmMetrics(
            algorithm="X", scenario="s", revenue={"A": 10.0}, completed={"A": 4}
        )
        b = AlgorithmMetrics(
            algorithm="X", scenario="s", revenue={"A": 20.0}, completed={"A": 6}
        )
        averaged = average_metrics([a, b])
        assert averaged.revenue["A"] == 15.0
        assert averaged.completed["A"] == 5
        assert averaged.runs == 2

    def test_average_none_metrics(self):
        a = AlgorithmMetrics(algorithm="X", scenario="s", acceptance_ratio=None)
        b = AlgorithmMetrics(algorithm="X", scenario="s", acceptance_ratio=0.5)
        assert average_metrics([a, b]).acceptance_ratio == 0.5
        assert average_metrics([a, a]).acceptance_ratio is None


class TestHarness:
    def test_run_algorithm_offline(self):
        row = run_algorithm(tiny_scenario(), "off", TINY_CONFIG)
        assert row.algorithm == "OFF"
        assert row.total_revenue > 0

    def test_run_algorithm_online(self):
        row = run_algorithm(tiny_scenario(), "tota", TINY_CONFIG)
        assert row.algorithm == "TOTA"
        assert row.cooperative == 0

    def test_empty_seeds_raises(self):
        with pytest.raises(ConfigurationError):
            run_algorithm(tiny_scenario(), "tota", ExperimentConfig(seeds=()))

    def test_base_service_duration_is_honoured(self):
        config = ExperimentConfig(
            seeds=(0,), simulator=SimulatorConfig(service_duration=600.0)
        )
        assert config.occupation == 600.0
        per_seed = config.simulator_config(0)
        assert per_seed.service_duration == 600.0
        assert per_seed.worker_reentry
        scenario = tiny_scenario(seed=2)
        completed = {
            duration: Simulator(
                SimulatorConfig(seed=0, worker_reentry=True, service_duration=duration)
            )
            .run(scenario, algorithm_factory("demcom"))
            .total_completed
            for duration in (600.0, 1800.0)
        }
        assert completed[600.0] != completed[1800.0]
        row = run_algorithm(scenario, "demcom", config)
        assert row.total_completed == completed[600.0]
        # The experiment's own value, when given, takes precedence.
        explicit = ExperimentConfig(
            simulator=SimulatorConfig(service_duration=600.0),
            service_duration=900.0,
        )
        assert explicit.simulator_config(0).service_duration == 900.0
        assert ExperimentConfig().simulator_config(0).service_duration == 1800.0

    def test_comparison_order(self):
        rows = run_comparison(tiny_scenario(), ["tota", "ramcom"], TINY_CONFIG)
        assert [row.algorithm for row in rows] == ["TOTA", "RamCOM"]

    def test_offline_dominates_in_comparison(self):
        rows = run_comparison(tiny_scenario(), ["off", "tota"], TINY_CONFIG)
        off, tota = rows
        assert off.total_revenue >= tota.total_revenue


class TestTables:
    def test_table_ids(self):
        assert set(TABLE_IDS) == {"V", "VI", "VII"}

    def test_unknown_table_raises(self):
        with pytest.raises(KeyError):
            run_city_table("IX")

    def test_tiny_table_runs_and_renders(self):
        result = run_city_table("VII", scale=0.004, config=TINY_CONFIG)
        rendered = result.render()
        assert "Table VII" in rendered
        for name in ("OFF", "TOTA", "DemCOM", "RamCOM"):
            assert name in rendered
        assert result.row("tota").cooperative == 0

    def test_table_revenue_ordering(self):
        result = run_city_table(
            "V", scale=0.008, config=ExperimentConfig(seeds=(0, 1))
        )
        off = result.row("off").total_revenue
        tota = result.row("tota").total_revenue
        ramcom = result.row("ramcom").total_revenue
        assert off >= ramcom >= tota * 0.95  # RamCOM ~>= TOTA, OFF on top


class TestFigures:
    def test_panel_ids_complete(self):
        assert len(PANEL_IDS) == 12  # the paper's 5(a)..5(l)

    def test_unknown_axis_raises(self):
        with pytest.raises(ConfigurationError):
            run_figure5_axis("speed")

    def test_unknown_metric_raises(self):
        base = SyntheticWorkloadConfig(request_count=40, worker_count=16, city_km=4.0)
        panels = run_figure5_axis(
            "requests", values=(40,), base=base, config=TINY_CONFIG, algorithms=["tota"]
        )
        with pytest.raises(KeyError):
            panels["happiness"]

    def test_tiny_panel(self):
        base = SyntheticWorkloadConfig(
            request_count=60, worker_count=20, city_km=4.0
        )
        panel = run_figure5_axis(
            "requests",
            values=(40, 80),
            base=base,
            config=TINY_CONFIG,
            algorithms=["tota", "ramcom"],
        )["revenue"]
        assert panel.panel_id == "5(a)"
        assert panel.x_values == [40.0, 80.0]
        assert len(panel.series["tota"]) == 2
        # More requests, more revenue.
        assert panel.series["tota"][1] >= panel.series["tota"][0]
        assert "Fig. 5(a)" in panel.render()


class TestCompetitive:
    def _micro_scenario(self):
        return SyntheticWorkload(
            SyntheticWorkloadConfig(
                request_count=4, worker_count=2, city_km=1.5, radius_km=2.0
            )
        ).build(seed=2)

    def test_adversarial_enumerates_orders(self):
        report = adversarial_ratio(self._micro_scenario(), "tota")
        # Orders where no request is servable (zero OPT) bound nothing and
        # are skipped; everything else is enumerated.
        assert 0 < report.orders_evaluated <= math.factorial(6)
        assert 0.0 <= report.minimum <= report.expectation <= 1.0 + 1e-9

    def test_adversarial_size_guard(self):
        big = SyntheticWorkload(
            SyntheticWorkloadConfig(request_count=10, worker_count=10)
        ).build(seed=0)
        with pytest.raises(ConfigurationError):
            adversarial_ratio(big, "tota")

    def test_random_order_bounds(self):
        report = random_order_ratio(self._micro_scenario(), "ramcom", trials=20)
        assert 10 <= report.orders_evaluated <= 20  # zero-OPT orders skipped
        assert 0.0 <= report.expectation <= 1.0 + 1e-9

    def test_random_order_trials_validation(self):
        with pytest.raises(ConfigurationError):
            random_order_ratio(self._micro_scenario(), "tota", trials=0)

    def test_ramcom_clears_its_theoretical_bound(self):
        scenario = SyntheticWorkload(
            SyntheticWorkloadConfig(
                request_count=20, worker_count=10, city_km=3.0, radius_km=1.5
            )
        ).build(seed=3)
        report = random_order_ratio(scenario, "ramcom", trials=30)
        assert report.expectation >= RAMCOM_THEORETICAL_CR

    def test_demcom_worst_case_family(self):
        scenario, expected = demcom_worst_case_family(0.05)
        result = Simulator(
            SimulatorConfig(seed=0, measure_response_time=False)
        ).run(scenario, algorithm_factory("demcom"))
        assert result.total_revenue == pytest.approx(expected)

    def test_worst_case_family_validation(self):
        with pytest.raises(ConfigurationError):
            demcom_worst_case_family(0.0)


class TestAblations:
    def test_cooperation_ablation(self):
        result = run_cooperation_ablation(tiny_scenario(), TINY_CONFIG)
        labels = dict(result.rows)
        assert labels["ramcom+coop"].total_revenue >= labels[
            "ramcom-coop"
        ].total_revenue - 1e-9
        assert "Ablation" in result.render()

    def test_ramcom_k_sweep_rows(self):
        result = run_ramcom_k_sweep(tiny_scenario(), TINY_CONFIG)
        # theta = ceil(ln(101)) = 5 pinned rows + 1 randomized row.
        assert len(result.rows) == 6
        assert result.rows[-1][0] == "k~U{1..theta}"

    def test_payment_accuracy_rows(self):
        result = run_payment_accuracy_ablation(tiny_scenario(), TINY_CONFIG)
        assert len(result.rows) == 3
