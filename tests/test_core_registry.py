"""Tests for the algorithm registry."""

from __future__ import annotations

import pytest

from repro.core.base import Decision, OnlineAlgorithm
from repro.core.registry import (
    algorithm_factory,
    available_algorithms,
    make_algorithm,
    register_algorithm,
)
from repro.errors import UnknownAlgorithmError


class TestRegistry:
    def test_builtins_present(self):
        names = available_algorithms()
        for name in ("demcom", "ramcom", "tota", "greedy-rt", "ranking"):
            assert name in names

    def test_make_algorithm_case_insensitive(self):
        assert make_algorithm("DemCOM").name == "DemCOM"
        assert make_algorithm("RAMCOM").name == "RamCOM"

    def test_unknown_raises_with_suggestions(self):
        with pytest.raises(UnknownAlgorithmError) as exc:
            make_algorithm("ghost-algorithm")
        assert "demcom" in str(exc.value)
        assert exc.value.name == "ghost-algorithm"

    def test_factory_returns_fresh_instances(self):
        factory = algorithm_factory("ramcom")
        assert factory() is not factory()

    def test_custom_registration(self):
        class AlwaysReject(OnlineAlgorithm):
            name = "AlwaysReject"

            def decide(self, request, context):
                return Decision.reject()

        register_algorithm("always-reject-test", AlwaysReject)
        try:
            instance = make_algorithm("always-reject-test")
            assert instance.name == "AlwaysReject"
            assert "always-reject-test" in available_algorithms()
        finally:
            # Keep the global registry clean for other tests.
            from repro.core import registry

            registry._FACTORIES.pop("always-reject-test", None)

    def test_errors_module_hierarchy(self):
        from repro.errors import (
            ConfigurationError,
            ConstraintViolationError,
            GraphError,
            ReproError,
            SimulationError,
            WorkloadError,
        )

        for exc_type in (
            ConfigurationError,
            ConstraintViolationError,
            GraphError,
            SimulationError,
            WorkloadError,
            UnknownAlgorithmError,
        ):
            assert issubclass(exc_type, ReproError)
        # The registry error doubles as a KeyError for dict-style callers.
        assert issubclass(UnknownAlgorithmError, KeyError)
        violation = ConstraintViolationError("time", "details")
        assert violation.constraint == "time"
