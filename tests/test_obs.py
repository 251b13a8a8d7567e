"""Tests for the telemetry substrate (repro.obs) and its engine wiring."""

from __future__ import annotations

import io
import json

import pytest

from repro.core import DemCOM, RamCOM, Simulator, SimulatorConfig
from repro.experiments.metrics import AlgorithmMetrics, average_metrics
from repro.experiments.reporting import metrics_to_dict
from repro.obs import (
    NULL_PROBE,
    MetricsRegistry,
    MetricsSnapshot,
    NullProbe,
    Telemetry,
    TelemetryProbe,
    TelemetrySummary,
    Tracer,
)
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

from conftest import make_request, make_scenario, make_worker


def small_scenario(seed: int = 3):
    config = SyntheticWorkloadConfig(request_count=80, worker_count=24, city_km=5.0)
    return SyntheticWorkload(config).build(seed=seed)


class TestCounter:
    def test_inc_and_value(self):
        counter = MetricsRegistry().counter("decisions_total")
        counter.inc(platform="A", kind="serve_inner")
        counter.inc(2.0, platform="A", kind="serve_inner")
        counter.inc(platform="B", kind="reject")
        assert counter.value(platform="A", kind="serve_inner") == 3.0
        assert counter.value(platform="B", kind="reject") == 1.0
        assert counter.value(platform="C") == 0.0

    def test_label_order_is_irrelevant(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1.0

    def test_label_values_keep_their_series(self):
        # 1 == True == 1.0 and they hash alike, but str() tells them apart;
        # resolving a label set once must not merge their series.
        counter = MetricsRegistry().counter("c")
        for _ in range(2):
            counter.inc(trips=1)
            counter.inc(trips=True)
            counter.inc(trips=1.0)
            counter.inc(trips="1")
            counter.inc(b="2", a="1")
            counter.inc(a="1", b="2")
        assert counter.series() == {
            (("trips", "1"),): 4.0,
            (("trips", "True"),): 2.0,
            (("trips", "1.0"),): 2.0,
            (("a", "1"), ("b", "2")): 4.0,
        }

    def test_unhashable_label_value_still_records(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(tags=["x", "y"])
        registry.counter("c").inc(tags=["x", "y"])
        registry.gauge("g").set(3, tags={"k": 1})
        registry.histogram("h").observe(0.5, tags=["x"])
        assert registry.counter("c").series() == {(("tags", "['x', 'y']"),): 2.0}
        assert registry.gauge("g").value(tags={"k": 1}) == 3.0
        assert registry.histogram("h").count(tags=["x"]) == 1

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1.0)


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("waiting_workers")
        gauge.set(5, platform="A")
        gauge.add(-2, platform="A")
        assert gauge.value(platform="A") == 3.0


class TestHistogram:
    def test_observe_counts_and_sum(self):
        histogram = MetricsRegistry().histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 2.0, 20.0):
            histogram.observe(value, peer="B")
        assert histogram.count(peer="B") == 3
        assert histogram.sum(peer="B") == pytest.approx(22.5)
        (series,) = histogram.series().values()
        # One observation per bucket: <=1, <=10, overflow.
        assert series.counts == [1, 1, 1]
        assert series.min == 0.5 and series.max == 20.0

    def test_unsorted_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", bounds=(2.0, 1.0))

    def test_conflicting_bounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(5.0, 6.0))


class TestSnapshot:
    def test_equal_histories_serialise_identically(self):
        def fill(registry):
            registry.counter("c").inc(platform="B")
            registry.counter("c").inc(platform="A")
            registry.histogram("h").observe(0.5, peer="B")
            registry.gauge("g").set(7)

        first, second = MetricsRegistry(), MetricsRegistry()
        fill(first)
        fill(second)
        assert json.dumps(first.snapshot().as_dict(), sort_keys=True) == json.dumps(
            second.snapshot().as_dict(), sort_keys=True
        )

    def test_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3, platform="A")
        registry.histogram("h").observe(0.2)
        snapshot = registry.snapshot()
        rebuilt = MetricsSnapshot.from_dict(
            json.loads(json.dumps(snapshot.as_dict()))
        )
        assert rebuilt.as_dict() == snapshot.as_dict()
        assert rebuilt.counter_value("c", platform="A") == 3.0

    def test_merge_equals_shared_registry(self):
        shard_a, shard_b, shared = (
            MetricsRegistry(),
            MetricsRegistry(),
            MetricsRegistry(),
        )
        for registry in (shard_a, shared):
            registry.counter("decisions_total").inc(2, platform="A")
            registry.histogram("rpc").observe(0.05, peer="B")
        for registry in (shard_b, shared):
            registry.counter("decisions_total").inc(1, platform="A")
            registry.counter("decisions_total").inc(4, platform="B")
            registry.histogram("rpc").observe(3.0, peer="B")
        merged = shard_a.snapshot().merge(shard_b.snapshot())
        assert merged.as_dict() == shared.snapshot().as_dict()

    def test_merge_with_empty_is_identity(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.gauge("g").set(2, platform="A")
        registry.histogram("h").observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot.merge(MetricsSnapshot()).as_dict() == snapshot.as_dict()
        assert MetricsSnapshot().merge(snapshot).as_dict() == snapshot.as_dict()

    def test_merge_rejects_mismatched_bounds(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        second.histogram("h", bounds=(3.0, 4.0)).observe(0.5)
        with pytest.raises(ValueError):
            first.snapshot().merge(second.snapshot())


class TestTracer:
    def test_span_lifecycle(self):
        tracer = Tracer(wall_clock=False)
        with tracer.span("decision", 12.5, tid="A", request="r1") as span:
            span.annotate(kind="serve_inner")
        tracer.instant("flush", 20.0, resolved=2)
        records = tracer.records()
        assert tracer.event_count == 2
        span_record, instant_record = records
        assert span_record["sim_time"] == 12.5
        assert span_record["args"]["kind"] == "serve_inner"
        assert span_record["end_seq"] > span_record["seq"]
        assert instant_record["type"] == "instant"
        assert "wall" not in span_record and "wall" not in instant_record
        assert tracer.span_counts() == {"decision": 1}

    def test_end_is_idempotent(self):
        tracer = Tracer(wall_clock=False)
        span = tracer.span("s", 0.0)
        span.end()
        end_seq = tracer.records()[0]["end_seq"]
        span.end()
        assert tracer.records()[0]["end_seq"] == end_seq

    def test_wall_clock_records_profiling_fields(self):
        tracer = Tracer(wall_clock=True)
        with tracer.span("s", 1.0):
            pass
        (record,) = tracer.records()
        assert record["wall"]["start_us"] >= 0.0
        assert record["wall"]["dur_us"] >= 0.0

    def test_jsonl_deterministic_without_wall_clock(self):
        def trace_once() -> str:
            tracer = Tracer(wall_clock=False)
            with tracer.span("decision", 5.0, tid="A", value=3.25):
                tracer.instant("breaker.open", 5.0, category="faults", peer="B")
            buffer = io.StringIO()
            tracer.write_jsonl(buffer)
            return buffer.getvalue()

        assert trace_once() == trace_once()

    def test_chrome_export_shape(self):
        tracer = Tracer(wall_clock=False)
        with tracer.span("decision", 1.0, tid="A"):
            pass
        tracer.instant("flush", 2.0, tid="B")
        buffer = io.StringIO()
        tracer.export_chrome(buffer)
        payload = json.loads(buffer.getvalue())
        events = payload["traceEvents"]
        phases = sorted(event["ph"] for event in events)
        # Two metadata thread-name events (lanes A and B), one complete
        # span, one instant.
        assert phases == ["M", "M", "X", "i"]
        span_event = next(e for e in events if e["ph"] == "X")
        assert span_event["name"] == "decision"
        assert span_event["args"]["sim_time"] == 1.0
        assert span_event["dur"] >= 0.0
        lanes = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert lanes == {"A", "B"}


class TestProbe:
    def test_null_probe_is_inert(self):
        assert NULL_PROBE.enabled is False
        with NULL_PROBE.span("anything", tid="A") as span:
            span.annotate(ignored=1)
        NULL_PROBE.count("c", platform="A")
        NULL_PROBE.observe("h", 1.0)
        NULL_PROBE.gauge("g", 1.0)
        NULL_PROBE.instant("i")

    def test_advance_is_monotone(self):
        probe = NullProbe()
        probe.advance(10.0)
        probe.advance(5.0)
        assert probe.sim_time == 10.0

    def test_telemetry_probe_routes_to_registry(self):
        registry = MetricsRegistry()
        probe = TelemetryProbe(registry)
        assert probe.enabled is True
        probe.count("decisions_total", platform="A", kind="reject")
        probe.observe("decision_seconds", 0.004, platform="A")
        probe.gauge("memory_bytes", 1024.0)
        snapshot = registry.snapshot()
        assert snapshot.counter_value(
            "decisions_total", platform="A", kind="reject"
        ) == 1.0
        assert registry.histogram("decision_seconds").count(platform="A") == 1
        # No tracer attached: spans degrade to the null span, no error.
        with probe.span("decision", tid="A"):
            pass

    def test_telemetry_probe_stamps_sim_time(self):
        tracer = Tracer(wall_clock=False)
        probe = TelemetryProbe(MetricsRegistry(), tracer)
        probe.advance(42.0)
        with probe.span("decision", tid="A"):
            pass
        assert tracer.records()[0]["sim_time"] == 42.0


class TestTelemetryBundle:
    def test_summary_without_tracing(self):
        telemetry = Telemetry()
        telemetry.probe.count("c")
        summary = telemetry.summary()
        assert summary.trace_events == 0
        assert summary.span_counts == {}
        assert summary.counter_value("c") == 1.0

    def test_write_trace_artifacts(self, tmp_path):
        telemetry = Telemetry(tracing=True, wall_clock=False)
        with telemetry.probe.span("decision", tid="A"):
            pass
        telemetry.probe.count("decisions_total", platform="A", kind="reject")
        paths = telemetry.write_trace(tmp_path / "out")
        assert set(paths) == {"trace_jsonl", "trace_chrome", "metrics"}
        jsonl_lines = (
            (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
        )
        assert len(jsonl_lines) == 1
        chrome = json.loads((tmp_path / "out" / "trace.chrome.json").read_text())
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert "decisions_total" in metrics["counters"]

    def test_summary_merge_pools(self):
        first, second = Telemetry(tracing=True), Telemetry(tracing=True)
        first.probe.count("c", platform="A")
        with first.probe.span("decision"):
            pass
        second.probe.count("c", platform="A")
        merged = first.summary().merge(second.summary())
        assert merged.counter_value("c", platform="A") == 2.0
        assert merged.trace_events == first.summary().trace_events
        assert merged.span_counts == {"decision": 1}

    def test_summary_round_trip(self):
        telemetry = Telemetry(tracing=True)
        telemetry.probe.count("c")
        with telemetry.probe.span("s"):
            pass
        summary = telemetry.summary()
        rebuilt = TelemetrySummary.from_dict(
            json.loads(json.dumps(summary.as_dict()))
        )
        assert rebuilt.as_dict() == summary.as_dict()


@pytest.mark.parametrize("factory", [DemCOM, RamCOM])
class TestSimulatorIntegration:
    def test_summary_attached_and_decisions_counted(self, factory):
        scenario = small_scenario()
        telemetry = Telemetry()
        result = Simulator(SimulatorConfig(seed=0, telemetry=telemetry)).run(
            scenario, factory
        )
        assert result.telemetry is not None
        decisions = result.telemetry.metrics.counters["decisions_total"]
        assert sum(e["value"] for e in decisions) == scenario.request_count
        kinds = {dict(e["labels"])["kind"] for e in decisions}
        assert kinds <= {"serve_inner", "serve_outer", "reject", "auto_reject"}

    def test_exchange_rpc_histogram_present(self, factory):
        scenario = small_scenario()
        telemetry = Telemetry()
        Simulator(SimulatorConfig(seed=0, telemetry=telemetry)).run(
            scenario, factory
        )
        histograms = telemetry.summary().metrics.histograms
        assert "exchange_rpc_seconds" in histograms
        assert sum(e["count"] for e in histograms["exchange_rpc_seconds"]) > 0

    def test_telemetry_off_leaves_result_bare(self, factory):
        result = Simulator(SimulatorConfig(seed=0)).run(small_scenario(), factory)
        assert result.telemetry is None

    def test_telemetry_does_not_perturb_results(self, factory):
        scenario = small_scenario()
        plain = Simulator(
            SimulatorConfig(seed=4, measure_response_time=False)
        ).run(scenario, factory)
        traced = Simulator(
            SimulatorConfig(
                seed=4,
                measure_response_time=False,
                telemetry=Telemetry(tracing=True),
            )
        ).run(scenario, factory)
        assert traced.total_revenue == plain.total_revenue
        assert traced.total_completed == plain.total_completed


class TestAlgorithmSpecificMetrics:
    def test_demcom_monte_carlo_counters(self):
        telemetry = Telemetry()
        Simulator(SimulatorConfig(seed=0, telemetry=telemetry)).run(
            small_scenario(), DemCOM
        )
        snapshot = telemetry.snapshot()
        assert snapshot.counter_value("payment_mc_iterations") > 0
        assert snapshot.counter_value("payment_mc_instances") > 0

    def test_ramcom_route_counter(self):
        telemetry = Telemetry()
        scenario = small_scenario()
        Simulator(SimulatorConfig(seed=0, telemetry=telemetry)).run(
            scenario, RamCOM
        )
        routes = telemetry.snapshot().counters.get("ramcom_routes_total", [])
        assert sum(e["value"] for e in routes) == scenario.request_count

        # Threshold e^1: both requests are reserved for the one inner
        # worker, which the first takes, so the second falls through to
        # the cooperative path.
        workers = [
            make_worker("a0", "A", 0.0),
            make_worker("b0", "B", 0.0, x=0.2),
        ]
        requests = [
            make_request("r0", "A", 1.0, value=10.0),
            make_request("r1", "A", 2.0, value=10.0),
        ]
        telemetry = Telemetry()
        Simulator(SimulatorConfig(seed=0, telemetry=telemetry)).run(
            make_scenario(workers, requests), lambda: RamCOM(fixed_k=1)
        )
        snapshot = telemetry.snapshot()
        routes = snapshot.counters.get("ramcom_routes_total", [])
        assert sum(e["value"] for e in routes) == len(requests)
        assert snapshot.counter_value(
            "ramcom_routes_total", platform="A", route="inner_reserved"
        ) == 1
        assert snapshot.counter_value(
            "ramcom_routes_total", platform="A", route="inner_fallback"
        ) == 1

    def test_pricer_spans_carry_pruning_counts(self):
        telemetry = Telemetry(tracing=True, wall_clock=False)
        Simulator(SimulatorConfig(seed=0, telemetry=telemetry)).run(
            small_scenario(), RamCOM
        )
        quotes = [
            record["args"]
            for record in telemetry.tracer.records()
            if record["name"] == "pricer.quote"
        ]
        assert quotes
        for fields in quotes:
            assert 1 <= fields["payments_evaluated"] <= fields["payments_built"]


class TestDeterministicTrace:
    def test_fixed_seed_traces_are_byte_identical(self, tmp_path):
        scenario = small_scenario(seed=7)

        def run_traced(tag: str) -> bytes:
            telemetry = Telemetry(tracing=True, wall_clock=False)
            Simulator(SimulatorConfig(seed=7, telemetry=telemetry)).run(
                scenario, RamCOM
            )
            telemetry.write_trace(tmp_path / tag)
            return (tmp_path / tag / "trace.jsonl").read_bytes()

        first = run_traced("a")
        second = run_traced("b")
        assert first == second
        assert len(first) > 0

    def test_wall_clock_fields_are_isolated(self):
        """With wall_clock on, nondeterminism lives only under "wall"."""
        scenario = small_scenario(seed=7)
        telemetry = Telemetry(tracing=True, wall_clock=True)
        Simulator(SimulatorConfig(seed=7, telemetry=telemetry)).run(
            scenario, RamCOM
        )
        for record in telemetry.tracer.records():
            deterministic = {k: v for k, v in record.items() if k != "wall"}
            assert "wall" in record
            assert json.dumps(deterministic, sort_keys=True)


class TestReportingIntegration:
    def _metrics_row(self, seed: int) -> AlgorithmMetrics:
        telemetry = Telemetry()
        result = Simulator(SimulatorConfig(seed=seed, telemetry=telemetry)).run(
            small_scenario(), DemCOM
        )
        return AlgorithmMetrics.from_simulation(result)

    def test_metrics_row_carries_summary(self):
        row = self._metrics_row(0)
        assert row.telemetry is not None
        assert row.telemetry.metrics.counters["decisions_total"]

    def test_average_metrics_pools_summaries(self):
        rows = [self._metrics_row(seed) for seed in (0, 1)]
        averaged = average_metrics(rows)
        assert averaged.telemetry is not None
        total = sum(
            e["value"]
            for e in averaged.telemetry.metrics.counters["decisions_total"]
        )
        per_row = [
            sum(
                e["value"]
                for e in row.telemetry.metrics.counters["decisions_total"]
            )
            for row in rows
        ]
        assert total == sum(per_row)

    def test_metrics_to_dict_includes_telemetry(self):
        payload = metrics_to_dict(self._metrics_row(0))
        assert payload["telemetry"] is not None
        assert "counters" in payload["telemetry"]["metrics"]
        assert json.dumps(payload, sort_keys=True)  # JSON-serialisable
        bare = AlgorithmMetrics.from_simulation(
            Simulator(SimulatorConfig(seed=0)).run(small_scenario(), DemCOM)
        )
        assert metrics_to_dict(bare)["telemetry"] is None


class TestResilienceInstrumentation:
    def test_fault_run_emits_fault_metrics(self):
        from repro.faults import FaultPlan

        telemetry = Telemetry(tracing=True)
        plan = FaultPlan(
            seed=5,
            claim_failure_rate=0.5,
            message_delay_rate=0.4,
            worker_dropout_rate=0.3,
            random_outages_per_platform=1,
            outage_duration_s=25.0,
            horizon_s=100.0,
        )
        rng_workers = [
            make_worker(f"{p}-w{i}", p, t=float(i), x=1.0, y=1.0, radius=3.0)
            for p in ("A", "B")
            for i in range(6)
        ]
        rng_requests = [
            make_request(f"r{i}", "A", t=10.0 + i, x=1.0, y=1.0, value=8.0)
            for i in range(20)
        ]
        scenario = make_scenario(
            rng_workers, rng_requests, platform_ids=["A", "B"], seed=5
        )
        Simulator(
            SimulatorConfig(seed=5, fault_plan=plan, telemetry=telemetry)
        ).run(scenario, DemCOM)
        snapshot = telemetry.snapshot()
        claim_outcomes = {
            dict(e["labels"]).get("outcome")
            for e in snapshot.counters.get("claims_total", [])
        }
        assert claim_outcomes  # claims were instrumented
        # The RPC histogram carries per-peer series on the fault path.
        assert "exchange_rpc_seconds" in snapshot.histograms


def _load_overhead_bench():
    """The telemetry-overhead guard module, whose per-decision touchpoint
    constants the counting test below must bound."""
    import importlib.util
    from pathlib import Path

    path = (
        Path(__file__).resolve().parents[1]
        / "benchmarks"
        / "bench_telemetry_overhead.py"
    )
    spec = importlib.util.spec_from_file_location("bench_telemetry_overhead", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CountingNullProbe(NullProbe):
    """A disabled probe that counts ``enabled`` reads and no-op calls."""

    def __init__(self) -> None:
        self.flag_reads = 0
        self.calls = 0

    @property  # type: ignore[override]
    def enabled(self) -> bool:
        self.flag_reads += 1
        return False

    def advance(self, sim_time: float) -> None:
        self.calls += 1

    def span(self, name: str, category: str = "sim", **fields: object):
        self.calls += 1
        return super().span(name, category, **fields)

    def instant(self, name: str, category: str = "sim", **fields: object) -> None:
        self.calls += 1

    def count(self, name: str, value: float = 1.0, **labels: str) -> None:
        self.calls += 1

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.calls += 1

    def gauge(self, name: str, value: float, **labels: str) -> None:
        self.calls += 1


class TestDisabledPathTouchpoints:
    """The overhead guard models the disabled path as
    ``FLAG_CHECKS_PER_DECISION`` flag reads plus ``NOOP_CALLS_PER_DECISION``
    no-op calls per decision; count both on its own scenario."""

    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM])
    def test_touchpoints_within_the_modelled_counts(self, monkeypatch, algorithm):
        from repro.core import simulator

        bench = _load_overhead_bench()
        scenario = bench._scenario(quick=True)
        probe = CountingNullProbe()
        monkeypatch.setattr(simulator, "NULL_PROBE", probe)
        Simulator(SimulatorConfig(seed=0)).run(scenario, algorithm)
        decisions = scenario.request_count
        assert probe.flag_reads / decisions <= bench.FLAG_CHECKS_PER_DECISION
        assert probe.calls / decisions <= bench.NOOP_CALLS_PER_DECISION

    def test_advance_leaves_the_shared_null_probe_alone(self, monkeypatch):
        monkeypatch.setattr(NULL_PROBE, "sim_time", 0.0)
        Simulator(SimulatorConfig(seed=0)).run(small_scenario(), RamCOM)
        assert NULL_PROBE.sim_time == 0.0
