"""The batch workloads: ``Simulator.run`` over a set of generated traces.

A run builds :data:`workloads.BATCH_TRACES` traces from the seed, then
replays them in turn (run ``j`` uses trace ``j mod BATCH_TRACES``) until
``seconds`` have passed.  It builds the whole set :data:`SETUPS` times,
at the start and at even steps through the window; ``setup_s`` is the
median build time of the set.

Every timing is scaled to the reference host speed
(:class:`common.HostSpeed`): the calibration kernel runs after each
set-up and each replay, and the piece of work is scaled by the two
calibrations around it.

* ``decisions_per_s`` divides the requests of the set by the sum, over
  the traces, of each trace's median scaled ``Simulator.run`` time
  (finalize included);
* ``p50_ms`` pools every run's decision latencies, from the engine's
  response-time reservoir (``measure_response_time=True``), each scaled
  with its run.  The metric row is compared without that one wall-clock
  field.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.core.registry import algorithm_factory
from repro.core.simulator import Scenario, SimulationResult, Simulator
from repro.experiments.metrics import AlgorithmMetrics
from repro.experiments.reporting import metrics_to_dict

import common
from report import Report
from tracing import Tracer
from workloads import BASE_REQUESTS, BATCH_TRACES, Workload, batch_trace_seed, build_trace, sim_config

#: Traces replayed twice, untraced then traced, by a ``--trace 1`` run.
TRACED_RUNS = 4
#: Times a run builds its whole trace set; ``setup_s`` is the median.
SETUPS = 3


def comparable_row(result: SimulationResult) -> dict:
    """The run's metric row without its one wall-clock field."""
    row = metrics_to_dict(AlgorithmMetrics.from_simulation(result))
    del row["response_time_ms"]
    return row


def _replay(algorithm: str, trace: Scenario, **overrides: object) -> tuple[SimulationResult, float]:
    config = sim_config(measure_response_time=True, **overrides)
    factory = algorithm_factory(algorithm)
    start = perf_counter()
    result = Simulator(config).run(trace, factory)
    return result, perf_counter() - start


def _build_traces(seed: int) -> tuple[list[Scenario], float]:
    """The run's traces and the time building all of them took."""
    start = perf_counter()
    traces = [build_trace(BASE_REQUESTS, batch_trace_seed(seed, index)) for index in range(BATCH_TRACES)]
    return traces, perf_counter() - start


def run_batch(workload: Workload, seed: int, seconds: float, trace: bool, forge_mismatch: bool) -> Report:
    report = Report()
    report.extras["trace_seeds"] = [batch_trace_seed(seed, index) for index in range(BATCH_TRACES)]

    setups: list[float] = []
    traces: list[Scenario] = []
    elapsed_s: list[list[float]] = [[] for _ in range(BATCH_TRACES)]
    raw_elapsed_s: list[float] = []
    latencies_ms: list[float] = []
    first_row: dict | None = None
    rss_mb: float | None = None
    runs = 0
    window = seconds / 2 if trace else seconds
    common.pin(os.getpid(), -1)
    speed = common.HostSpeed()
    begin = perf_counter()
    deadline = begin + window
    while runs < BATCH_TRACES or perf_counter() < deadline:
        if len(setups) < SETUPS and perf_counter() >= begin + window * len(setups) / SETUPS:
            # Set-ups spread over the window, so a few seconds of a slow
            # host sway one of them, not the reported median.  The old set
            # goes first, so memory never holds two.
            traces.clear()
            traces, took = _build_traces(seed)
            setups.append(took * speed.scale())
        index = runs % BATCH_TRACES
        scenario = traces[index]
        result, elapsed = _replay(workload.algorithm, scenario)
        factor = speed.scale()
        report.attempted += scenario.request_count
        if result.total_completed + result.total_rejected != scenario.request_count:
            report.fail(scenario.request_count, f"run {runs} left requests undecided")
        elapsed_s[index].append(elapsed * factor)
        raw_elapsed_s.append(elapsed)
        for platform in result.platforms.values():
            latencies_ms.extend(sample * 1e3 * factor for sample in platform.response_time.samples())
        if first_row is None:
            first_row = comparable_row(result)
        del result
        runs += 1
        if runs == BATCH_TRACES:
            # Peak memory over one pass of the traces: later runs only add
            # latency samples, which would tie the peak to the run count.
            rss_mb = common.peak_rss_mb()
    report.metrics.update({
        "decisions_per_s": BATCH_TRACES * BASE_REQUESTS / sum(common.median(times) for times in elapsed_s),
        "p50_ms": common.percentile(latencies_ms, 50),
        "setup_s": common.median(setups),
        "peak_rss_mb": rss_mb,
    })
    report.extras.update(
        runs=runs,
        setup_samples_s=setups,
        run_s_per_trace=elapsed_s,
        latency_samples=len(latencies_ms),
        p90_ms=common.percentile(latencies_ms, 90),
        p99_ms=common.percentile(latencies_ms, 99),
        unscaled_run_s=raw_elapsed_s,
        host_speed_factors=speed.factors,
    )

    if trace:
        # Each traced replay right after an untraced one of the same trace,
        # so the host's slow spells weigh on both sides of the ratio.
        tracer = Tracer(f"{workload.name}-{seed}")
        untraced = traced = 0.0
        for run in range(TRACED_RUNS):
            untraced += _replay(workload.algorithm, traces[run % BATCH_TRACES])[1]
            tracer.install()
            try:
                traced += _replay(workload.algorithm, traces[run % BATCH_TRACES])[1]
            finally:
                tracer.uninstall()
        report.spans = tracer.spans
        report.layer_extras["trace.overhead_ratio"] = traced / untraced
        report.layer_extras["workloads.build_s"] = common.median(setups)

    # Correctness, outside every timed window: run 0 again under the
    # Definition-2.5/2.6 sanitizer must give the same row.
    checked, _ = _replay(workload.algorithm, traces[0], sanitize=True)
    expected = comparable_row(checked)
    if forge_mismatch:
        expected["revenue"] = "forged"
    if common.row_key(expected) != common.row_key(first_row):
        report.fail(traces[0].request_count, "run 0 row differs from its sanitized rerun")
    return report
