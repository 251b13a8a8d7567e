"""Tests for the shared-sweep figure runner (run_figure5_axis)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig
from repro.experiments.figures import run_figure5_axis
from repro.experiments.harness import run_comparison
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

TINY = ExperimentConfig(seeds=(0,))
BASE = SyntheticWorkloadConfig(request_count=40, worker_count=16, city_km=4.0)


class TestRunFigure5Axis:
    def test_returns_all_four_metrics(self):
        panels = run_figure5_axis(
            "radius",
            values=(1.0, 2.0),
            base=BASE,
            config=TINY,
            algorithms=["tota", "ramcom"],
        )
        assert set(panels) == {"revenue", "time", "memory", "acceptance"}
        for panel in panels.values():
            assert panel.x_values == [1.0, 2.0]
            assert set(panel.series) == {"tota", "ramcom"}

    def test_panel_ids_assigned(self):
        panels = run_figure5_axis(
            "workers", values=(10,), base=BASE, config=TINY, algorithms=["tota"]
        )
        assert panels["revenue"].panel_id == "5(e)"
        assert panels["acceptance"].panel_id == "5(h)"

    def test_unknown_axis(self):
        with pytest.raises(ConfigurationError):
            run_figure5_axis("altitude")

    def test_sweep_keeps_every_base_field(self):
        """A swept scenario is ``base`` with only the axis field replaced,
        so a worker shift in ``base`` reaches every point of the sweep."""
        shifted = replace(BASE, shift_seconds=600.0)
        kwargs = dict(values=(1.0,), base=shifted, config=TINY, algorithms=["tota"])
        scenario = SyntheticWorkload(replace(shifted, radius_km=1.0)).build(seed=11)
        expected = run_comparison(scenario, ["tota"], TINY)[0].total_revenue
        unshifted = run_figure5_axis("radius", **dict(kwargs, base=BASE))["revenue"]
        assert unshifted.series["tota"] != [expected]
        assert run_figure5_axis("radius", **kwargs)["revenue"].series["tota"] == [
            expected
        ]
