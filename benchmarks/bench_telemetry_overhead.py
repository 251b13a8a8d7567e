"""Guard: the disabled telemetry path must cost (almost) nothing.

Every probe point added by the observability layer sits behind either a
``probe.enabled`` flag check or a no-op :data:`~repro.obs.NULL_PROBE`
method call.  The *pre-PR baseline* is therefore exactly "the decision
path minus those checks", and the overhead versus it can be measured
directly: time the per-decision probe-call pattern against the null
probe, and compare to the measured mean decision latency on the default
synthetic scenario.  The guard asserts that ratio stays under
``BUDGET`` (5%).

Also reported (not asserted): end-to-end mean response time with
telemetry off, metrics-only, and metrics+tracing, so enabled-mode cost
stays visible in CI logs.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --quick

or through pytest (``test_null_probe_overhead_budget``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import Simulator, SimulatorConfig
from repro.core.registry import algorithm_factory
from repro.obs import NULL_PROBE, Telemetry
from repro.utils.tables import TextTable
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

#: Maximum tolerated disabled-path overhead, as a fraction of the mean
#: per-decision latency.
BUDGET = 0.05

#: Upper bounds on probe touchpoints per decision on the disabled path,
#: as counted by ``tests/test_obs.py::TestDisabledPathTouchpoints`` with a
#: counting null probe: ``probe.enabled`` reads (decision span, candidate
#: and offer-loop spans, payment and claim spans, algorithm counters) and
#: unguarded no-op method calls.  Measured on the quick scenario: DemCOM
#: 5.32 and RamCOM 5.96 flag reads, no calls (6.01 reads for RamCOM on
#: the full scenario); ``advance_to`` reads the flag before advancing the
#: sim clock, so no call site is unguarded.
FLAG_CHECKS_PER_DECISION = 7
NOOP_CALLS_PER_DECISION = 0


def _scenario(quick: bool):
    config = (
        SyntheticWorkloadConfig(request_count=200, worker_count=60, city_km=6.0)
        if quick
        else SyntheticWorkloadConfig(request_count=600, worker_count=160, city_km=8.0)
    )
    return SyntheticWorkload(config).build(seed=1)


def null_probe_costs_seconds(iterations: int = 200_000) -> tuple[float, float]:
    """Per-touchpoint cost of the two disabled-path shapes.

    Returns ``(flag_check, noop_call)`` seconds: a bare ``probe.enabled``
    flag check (the guarded sites) and a no-op method call with keyword
    labels (the unguarded sites).
    """
    probe = NULL_PROBE
    start = time.perf_counter()
    for _ in range(iterations):
        if probe.enabled:  # pragma: no cover - never taken
            probe.count("x", platform="A")
    flag_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(iterations):
        probe.count("decisions_total", platform="A", kind="reject")
    call_elapsed = time.perf_counter() - start
    return flag_elapsed / iterations, call_elapsed / iterations


def mean_decision_seconds(scenario, telemetry_factory, repeats: int) -> float:
    """Mean per-request decision latency over ``repeats`` runs."""
    best = float("inf")
    for seed in range(repeats):
        config = SimulatorConfig(seed=seed, telemetry=telemetry_factory())
        result = Simulator(config).run(scenario, algorithm_factory("ramcom"))
        # Use the fastest run: scheduler noise only ever inflates.
        best = min(best, result.mean_response_time_ms / 1e3)
    return best


def run_overhead_bench(quick: bool = False) -> dict:
    """Measure the guard's quantities; returns them for reporting."""
    scenario = _scenario(quick)
    repeats = 2 if quick else 3
    disabled = mean_decision_seconds(scenario, lambda: None, repeats)
    metrics_only = mean_decision_seconds(scenario, Telemetry, repeats)
    tracing = mean_decision_seconds(
        scenario, lambda: Telemetry(tracing=True), repeats
    )
    flag_cost, call_cost = null_probe_costs_seconds(50_000 if quick else 200_000)
    per_decision = (
        flag_cost * FLAG_CHECKS_PER_DECISION + call_cost * NOOP_CALLS_PER_DECISION
    )
    return {
        "scenario": scenario.name,
        "disabled_s": disabled,
        "metrics_only_s": metrics_only,
        "tracing_s": tracing,
        "null_probe_flag_s": flag_cost,
        "null_probe_call_s": call_cost,
        "disabled_overhead_s": per_decision,
        "disabled_overhead_fraction": per_decision / disabled,
    }


def test_null_probe_overhead_budget():
    """Pytest entry point (quick mode)."""
    report = run_overhead_bench(quick=True)
    assert report["disabled_overhead_fraction"] <= BUDGET


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced sizes for CI smoke"
    )
    args = parser.parse_args(argv)
    report = run_overhead_bench(quick=args.quick)

    table = TextTable(
        ["Mode", "Mean decision (µs)", "vs disabled"],
        title=f"Telemetry overhead — {report['scenario']}",
    )
    base = report["disabled_s"]
    for label, key in (
        ("telemetry off", "disabled_s"),
        ("metrics only", "metrics_only_s"),
        ("metrics + tracing", "tracing_s"),
    ):
        table.add_row(
            [label, round(report[key] * 1e6, 2), f"{report[key] / base:.2f}x"]
        )
    print(table.render())
    fraction = report["disabled_overhead_fraction"]
    print(
        f"null probe: flag check {report['null_probe_flag_s'] * 1e9:.0f} ns, "
        f"no-op call {report['null_probe_call_s'] * 1e9:.0f} ns; "
        f"{FLAG_CHECKS_PER_DECISION}+{NOOP_CALLS_PER_DECISION} per decision = "
        f"{report['disabled_overhead_s'] * 1e9:.0f} ns "
        f"({fraction * 100:.2f}% of mean decision latency, budget "
        f"{BUDGET * 100:.0f}%)"
    )
    if fraction > BUDGET:
        print("FAIL: disabled-path overhead exceeds budget", file=sys.stderr)
        return 1
    print("OK: disabled-path overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
