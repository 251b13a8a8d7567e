"""Tests for the service-time models."""

from __future__ import annotations

import pytest

from repro.baselines import TOTA
from repro.core import Simulator, SimulatorConfig, TravelAwareServiceTime
from repro.errors import ConfigurationError

from conftest import make_request, make_scenario, make_worker


class TestTravelAwareServiceTime:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TravelAwareServiceTime(speed_kmh=0.0)
        with pytest.raises(ConfigurationError):
            TravelAwareServiceTime(minimum_seconds=0.0)

    def test_minimum_floor(self):
        model = TravelAwareServiceTime(
            seconds_per_value=0.0, jitter=0.0, minimum_seconds=300.0
        )
        worker = make_worker(x=0.0)
        request = make_request(x=0.0, value=1.0)
        assert model.duration(worker, request, seed=0) == 300.0

    def test_pickup_travel_scales_with_distance(self):
        model = TravelAwareServiceTime(
            speed_kmh=30.0, seconds_per_value=0.0, jitter=0.0, minimum_seconds=1.0
        )
        worker = make_worker(x=0.0, radius=10.0)
        near = make_request(x=0.5)
        far = make_request(x=2.0)
        assert model.duration(worker, far, 0) == pytest.approx(
            4 * model.duration(worker, near, 0)
        )

    def test_trip_scales_with_value(self):
        model = TravelAwareServiceTime(
            seconds_per_value=60.0, jitter=0.0, minimum_seconds=1.0
        )
        worker = make_worker(x=0.0)
        cheap = make_request(x=0.0, value=10.0)
        rich = make_request("r2", x=0.0, value=30.0)
        assert model.duration(worker, rich, 0) == pytest.approx(
            3 * model.duration(worker, cheap, 0)
        )

    def test_jitter_deterministic_per_pair(self):
        model = TravelAwareServiceTime(jitter=0.2)
        worker = make_worker()
        request = make_request()
        assert model.duration(worker, request, 7) == model.duration(
            worker, request, 7
        )
        assert model.duration(worker, request, 7) != model.duration(
            worker, request, 8
        )


class TestSimulatorIntegration:
    def test_model_controls_reentry_timing(self):
        workers = [make_worker("w", "A", 0.0)]
        requests = [
            make_request("r1", "A", 10.0, value=10.0),
            # With 60 s/value the worker is busy until ~610; a request at
            # 300 must be rejected, one at 700 served.
            make_request("r2", "A", 300.0),
            make_request("r3", "A", 700.0),
        ]
        scenario = make_scenario(workers, requests)
        model = TravelAwareServiceTime(
            seconds_per_value=60.0, jitter=0.0, minimum_seconds=1.0
        )
        result = Simulator(
            SimulatorConfig(
                worker_reentry=True,
                service_model=model,
                measure_response_time=False,
            )
        ).run(scenario, TOTA)
        served = {r.request.request_id for r in result.all_records()}
        assert served == {"r1", "r3"}
