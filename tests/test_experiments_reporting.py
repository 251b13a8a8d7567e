"""Tests for the JSON-ready metric rows."""

from __future__ import annotations

import json

from repro.experiments.metrics import AlgorithmMetrics
from repro.experiments.reporting import metrics_to_dict


class TestMetricsToDict:
    def test_roundtrippable_json(self):
        row = AlgorithmMetrics(
            algorithm="X",
            scenario="s",
            revenue={"A": 1.5},
            completed={"A": 3},
            acceptance_ratio=None,
        )
        payload = metrics_to_dict(row)
        text = json.dumps(payload)
        assert json.loads(text)["algorithm"] == "X"
        assert json.loads(text)["acceptance_ratio"] is None
