"""The served workloads: this process generates load for serving targets.

A run builds one trace of ``rate * seconds / PASSES`` requests and drives
a fresh serving target (:mod:`target`) through all of it in each phase,
alternating ``PASSES`` times:

* a saturation push: the whole trace back-to-back, then drain;
* an open loop at the workload's rate, then drain.

The generator and the target are pinned to CPUs of their own, and every
gated timing is scaled to the reference host speed (see
:class:`common.HostSpeed`) by calibrations run in the target, on its CPU.
A drive runs in segments of :data:`SEGMENT_S` seconds of open-loop load;
the target calibrates before the first, between segments and after the
last, and each segment is scaled by the calibrations around it.

* ``decisions_per_s``: the median over the pushes of the trace's requests
  over the scaled push time (first due time to last response, segment by
  segment);
* ``p50_ms``: the median of the scaled latencies of every open loop;
* ``setup_s``: the median spawn-to-ready time of the targets, scaled by
  the target's first calibration.

The latencies as measured, unscaled, are in the results file, and the
p99 latency limit is checked against them.
A ``--trace 1`` run alternates untraced and traced pushes for the
tracing overhead, then traces every open loop for the per-layer numbers.
Every drained metric row must equal ``Simulator.run``'s row on the
trace, and every response must be ``ok`` and unshed.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.core.registry import algorithm_factory
from repro.core.simulator import Simulator
from repro.experiments.metrics import AlgorithmMetrics
from repro.experiments.reporting import metrics_to_dict

import common
import loadgen
from report import Report
from tracing import read_spans
from workloads import Workload, build_trace, sim_config

READY_TIMEOUT_S = 120.0
#: Open-loop p99 latency limit, reported against (not gated).
P99_LIMIT_MS = 50.0
#: A run whose generator released requests later than this (p99) measured
#: the generator or the host, not the server: it is marked invalid.  That
#: is a verdict on the timings, not on the program's outputs, so it does
#: not fail the correctness checks.
LATENESS_LIMIT_MS = 5.0
#: Saturation pushes and open-loop passes per run, each to a fresh target.
#: At 18 seconds two keep ``demcom-serve``'s trace (4500 requests, about
#: 5700 journal records) past the first periodic checkpoint at 4096.
PASSES = 2
#: Open loops a ``--trace 1`` run traces: three, so ``demcom-serve``'s
#: spans hold six checkpoints (a set-up and a periodic one per loop).
TRACED_OPEN_LOOPS = 3
#: Seconds of open-loop load per drive segment; a push uses segments of
#: the same number of requests.
SEGMENT_S = 1.0


class Target:
    """One ``bench/target.py`` process; a context manager that reaps it."""

    def __init__(self, workload: Workload, seed: int, requests: int, directory: Path, spans: Path | None = None):
        directory.mkdir(parents=True)
        command = [
            sys.executable, str(common.BENCH_DIR / "target.py"),
            "--algorithm", workload.algorithm, "--requests", str(requests),
            "--seed", str(seed), "--dir", str(directory),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        start = perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=common.pinned_env(), cwd=common.ROOT
        )
        try:
            common.pin(self.process.pid, -1)
            self.port = json.loads(self._readline())["port"]
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - start

    def _readline(self) -> bytes:
        ready, _, _ = select.select([self.process.stdout], [], [], READY_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            raise common.BenchError("serving target did not answer")
        return line

    def calibrate(self) -> float:
        """The speed of the target's CPU: its calibration time, run there."""
        self.process.stdin.write(b"calibrate\n")
        self.process.stdin.flush()
        return json.loads(self._readline())["calibration_s"]

    def stop(self) -> dict:
        """Close the target's input; returns its final report."""
        self.process.stdin.close()
        final = json.loads(self._readline())
        self.process.wait(timeout=READY_TIMEOUT_S)
        return final

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()

    def __enter__(self) -> "Target":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.kill()


@dataclass
class Phase:
    """What one target's phase measured."""

    drive: loadgen.Drive
    #: Host-speed factor of each segment of the drive, from the
    #: calibrations run on the target's CPU right before and after it.
    factors: list[float]
    #: Spawn-to-ready time of the target, unscaled.
    setup_s: float
    final: dict

    def scaled_elapsed_s(self) -> float:
        return sum(self.drive.elapsed_s(part) * factor for part, factor in zip(self.drive.segments, self.factors))

    def scaled_latencies_ms(self) -> list[float]:
        return [
            latency * factor
            for part, factor in zip(self.drive.segments, self.factors)
            for latency in self.drive.latencies_ms(part)
        ]


def _phase(
    workload: Workload,
    seed: int,
    requests: int,
    units: list[loadgen.Unit],
    directory: Path,
    rate: float | None,
    spans: Path | None,
) -> Phase:
    """One fresh target driven through the whole trace."""
    with Target(workload, seed, requests, directory, spans) as target:
        calibrations = [target.calibrate()]
        drive = loadgen.drive(
            target.port, units, rate, round(workload.rate * SEGMENT_S), lambda: calibrations.append(target.calibrate())
        )
        calibrations.append(target.calibrate())
        final = target.stop()
    factors = [common.speed_factor(before, after) for before, after in zip(calibrations, calibrations[1:])]
    return Phase(drive, factors, target.setup_s, final)


def _account(report: Report, drive: loadgen.Drive, golden: str, phase: str) -> None:
    report.attempted += sum(len(unit.verbs) for unit in drive.units) + 1
    if drive.failures:
        report.fail(len(drive.failures), f"{phase}: {drive.failures[0]} ({len(drive.failures)} failures)")
    if drive.drain is not None and common.row_key(drive.drain) != golden:
        report.fail(1, f"{phase}: drained row differs from Simulator.run")


def _pooled(spans: list[tuple], records: list[dict], phase: str, offset: int) -> tuple[list[tuple], list[dict]]:
    """One pass's spans and records, with span ids moved past ``offset`` and
    request ids prefixed by the phase, so passes can be pooled."""
    def trace(value: str) -> str:
        return f"{phase}:{value}"

    spans = [
        (span_id + offset, None if parent is None else parent + offset, name, trace(trace_id), start, end, note)
        for span_id, parent, name, trace_id, start, end, note in spans
    ]
    return spans, [{**record, "id": trace(record["id"])} for record in records]


def run_served(workload: Workload, seed: int, seconds: float, trace: bool, forge_mismatch: bool) -> Report:
    report = Report()
    requests = max(2, round(workload.rate * seconds / PASSES))
    start = perf_counter()
    scenario = build_trace(requests, seed)
    build_s = perf_counter() - start
    units = loadgen.encode_trace(scenario)
    if trace:
        plan = [
            (f"push-{kind}-{index}", None, kind == "traced")
            for index in range(1, PASSES // 2 + 1)
            for kind in ("untraced", "traced")
        ]
        plan += [(f"open-{index}", workload.rate, True) for index in range(1, TRACED_OPEN_LOOPS + 1)]
    else:
        plan = [
            (f"{kind}-{index}", rate, False)
            for index in range(1, PASSES + 1)
            for kind, rate in (("push", None), ("open", workload.rate))
        ]
    phases: dict[str, Phase] = {}
    common.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=common.OUT_DIR))
    # The generator and the target each get a CPU of their own.
    common.pin(os.getpid(), 0)
    try:
        for name, rate, traced in plan:
            spans = work / f"{name}.spans" if traced else None
            phase = phases[name] = _phase(workload, seed, requests, units, work / name, rate, spans)
            if traced and rate is not None:
                offset = max((span[0] for span in report.spans), default=0)
                pooled_spans, pooled_records = _pooled(read_spans(spans), phase.drive.records(), name, offset)
                report.spans += pooled_spans
                report.records += pooled_records
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Correctness, after every timed window.
    result = Simulator(sim_config()).run(scenario, algorithm_factory(workload.algorithm))
    golden = metrics_to_dict(AlgorithmMetrics.from_simulation(result))
    if forge_mismatch:
        golden["revenue"] = "forged"
    for name, phase in phases.items():
        _account(report, phase.drive, common.row_key(golden), name)

    open_loops = [phase for name, phase in phases.items() if name.startswith("open")]
    pushes = [phase for name, phase in phases.items() if name.startswith("push")]
    finals = [phase.final for phase in open_loops]
    latencies = [value for phase in open_loops for value in phase.scaled_latencies_ms()]
    unscaled_latencies = [value for phase in open_loops for value in phase.drive.latencies_ms()]
    unscaled_p99 = common.percentile(unscaled_latencies, 99)
    lateness = [value for phase in open_loops for value in phase.drive.lateness_ms()]
    lateness_p99 = common.percentile(lateness, 99)
    push_rates = [phase.drive.requests / phase.scaled_elapsed_s() for phase in pushes]
    report.metrics.update({
        "decisions_per_s": common.median(push_rates),
        "p50_ms": common.percentile(latencies, 50),
        "setup_s": common.median([phase.setup_s * phase.factors[0] for phase in phases.values()]),
        "peak_rss_mb": max(final["peak_rss_mb"] for final in finals),
    })
    report.extras.update(
        requests=requests,
        passes=PASSES,
        rate_rps=workload.rate,
        latency_samples=len(latencies),
        p90_ms=common.percentile(latencies, 90),
        p99_ms=common.percentile(latencies, 99),
        unscaled_p50_ms=common.percentile(unscaled_latencies, 50),
        unscaled_p99_ms=unscaled_p99,
        p99_limit_ms=P99_LIMIT_MS,
        p99_limit_met=unscaled_p99 <= P99_LIMIT_MS,
        valid=lateness_p99 <= LATENESS_LIMIT_MS,
        lateness_limit_ms=LATENESS_LIMIT_MS,
        lateness_ms={
            name: {"p50": common.percentile(phase.drive.lateness_ms(), 50), "p99": common.percentile(phase.drive.lateness_ms(), 99)}
            for name, phase in phases.items()
        },
        journal_bytes=[final["journal_bytes"] for final in finals],
        events_bytes=[final["events_bytes"] for final in finals],
        unscaled_setup_s=[phase.setup_s for phase in phases.values()],
        host_speed_factors={name: phase.factors for name, phase in phases.items()},
        push_decisions_per_s=push_rates,
        unscaled_push_decisions_per_s=[phase.drive.requests / phase.drive.elapsed_s() for phase in pushes],
    )
    if trace:
        report.layer_extras.update({
            "workloads.build_s": build_s,
            "journal.bytes": common.median([final["journal_bytes"] for final in finals]),
            "events.bytes": common.median([final["events_bytes"] for final in finals]),
            "loadgen.lateness_ms.p50": common.percentile(lateness, 50),
            "loadgen.lateness_ms.p99": lateness_p99,
            "trace.overhead_ratio": sum(
                phase.drive.elapsed_s() for name, phase in phases.items() if name.startswith("push-traced")
            ) / sum(phase.drive.elapsed_s() for name, phase in phases.items() if name.startswith("push-untraced")),
        })
    return report
