"""The hot-path benchmark harness behind ``benchmarks/bench_hotpath.py``.

Measures the quantities the performance work optimises (docs/PERFORMANCE.md):

* **payment micro** — Algorithm-2 estimates on a standalone
  :class:`~repro.core.payment.MinimumOuterPaymentEstimator` with realistic
  candidate histories: decisions/sec, p50/p95 per-estimate latency, and the
  Monte-Carlo work per estimate (instances and bisection iterations, read
  back from the :mod:`repro.obs` counters);
* **DemCOM / RamCOM end-to-end** — a full simulator run per algorithm,
  decisions/sec; the RamCOM run prices its cooperative requests with the
  pruned MER quote (docs/PERFORMANCE.md#pruned-mer-quote);
* **parallel** *(optional)* — wall-clock speedup of
  :func:`~repro.experiments.harness.run_comparison` at ``jobs=N`` over
  ``jobs=1`` on a seed grid.

Each section is measured twice: ``baseline`` runs the retained reference
implementations (``fast_path=False``) — the pre-optimisation code, bit for
bit — and ``current`` runs the default fast path, so the recorded speedup
compares this working tree against its own baseline on the same machine.
That ratio is what CI regresses on (:func:`check_regression`): ratios of
two timings from one run transfer across machines; absolute timings do not.

The repo-root ``BENCH_hotpath.json`` is the checked-in reference produced
by ``python benchmarks/bench_hotpath.py --output BENCH_hotpath.json``.
"""

from __future__ import annotations

import json
from collections.abc import Hashable
from dataclasses import replace
from pathlib import Path

from repro.core.acceptance import AcceptanceEstimator
from repro.core.payment import MinimumOuterPaymentEstimator
from repro.core.registry import algorithm_factory
from repro.core.simulator import Simulator, SimulatorConfig
from repro.experiments.harness import ExperimentConfig, run_comparison
from repro.obs import Telemetry
from repro.utils.jobs import resolve_jobs
from repro.utils.rng import derive_rng
from repro.utils.timer import Stopwatch, TimingAccumulator
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

__all__ = [
    "run_hotpath_benchmark",
    "check_regression",
    "render_report",
    "SPEEDUP_TOLERANCE",
]

#: A run's speedup may fall this fraction below the checked-in reference
#: speedup before CI fails (ratios are machine-independent but still jitter
#: on loaded runners).
SPEEDUP_TOLERANCE = 0.25

#: (workers with history, history length, candidates per estimate) and the
#: number of estimates, per mode.
_MICRO_SHAPE = {"quick": (48, 60, 24, 120), "full": (64, 120, 32, 600)}
#: (requests, workers) for the end-to-end sections, the same in both modes
#: so the quick-mode speedup ratio transfers to the full-mode reference
#: (RamCOM's pruning rate depends on the trace's history lengths).
_END_TO_END = (900, 240)


def _micro_estimator(
    n_workers: int, history_length: int, fast_path: bool
) -> tuple[MinimumOuterPaymentEstimator, list[Hashable]]:
    """An Algorithm-2 estimator over synthetic Eq.-4 histories."""
    acceptance = AcceptanceEstimator()
    history_rng = derive_rng(0xBE7C, "bench/histories")
    for index in range(n_workers):
        history = [history_rng.random() for _ in range(history_length)]
        acceptance.set_history(f"w{index}", history)
    # A fifth of the candidate pool is history-less (cold-start path).
    workers: list[Hashable] = [f"w{i}" for i in range(n_workers)]
    workers.extend(f"cold{i}" for i in range(n_workers // 5))
    return MinimumOuterPaymentEstimator(acceptance, fast_path=fast_path), workers


def _measure_micro(fast_path: bool, mode: str) -> dict:
    """Time Algorithm-2 estimates; read MC work back from the probes."""
    n_workers, history_length, candidates, estimates = _MICRO_SHAPE[mode]
    estimator, workers = _micro_estimator(n_workers, history_length, fast_path)
    rng = derive_rng(0xBE7C, "bench/estimate")
    pick = derive_rng(0xBE7C, "bench/candidates")
    telemetry = Telemetry()
    probe = telemetry.probe
    latencies = TimingAccumulator()
    watch = Stopwatch()
    for _ in range(estimates):
        value = 10.0 + 90.0 * pick.random()
        ids = pick.sample(workers, candidates)
        with watch:
            estimator.estimate(value, ids, rng, probe=probe)
        latencies.record(watch.elapsed_seconds)
    summary = telemetry.summary()
    return {
        "estimates": estimates,
        "candidates_per_estimate": candidates,
        "decisions_per_sec": round(estimates / latencies.total_seconds, 2),
        "p50_ms": round(latencies.percentile_ms(0.5), 4),
        "p95_ms": round(latencies.percentile_ms(0.95), 4),
        "mc_instances_per_estimate": summary.counter_value("payment_mc_instances")
        / estimates,
        "bisection_iterations_per_estimate": round(
            summary.counter_value("payment_mc_iterations") / estimates, 2
        ),
    }


def _measure_end_to_end(fast_path: bool, algorithm: str) -> dict:
    """One full simulation of ``algorithm``; decisions/sec over the
    whole run."""
    requests, workers = _END_TO_END
    scenario = SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=requests, worker_count=workers, city_km=6.0
        )
    ).build(seed=17)
    config = SimulatorConfig(
        seed=3,
        worker_reentry=True,
        service_duration=1800.0,
        payment_fast_path=fast_path,
        measure_response_time=False,
    )
    watch = Stopwatch()
    with watch:
        result = Simulator(config).run(scenario, algorithm_factory(algorithm))
    # One serve/borrow/reject decision per request (reentry reuses workers
    # but never replays a request).
    decisions = result.total_completed + result.total_rejected
    return {
        "requests": requests,
        "decisions": decisions,
        "elapsed_seconds": round(watch.elapsed_seconds, 4),
        "decisions_per_sec": round(decisions / watch.elapsed_seconds, 2),
    }


def _measure_parallel(jobs: int, mode: str) -> dict:
    """Wall-clock speedup of the executor at ``jobs`` over ``jobs=1``."""
    # Sized so each cell outweighs pool start-up; tiny grids are faster
    # run serially (docs/PERFORMANCE.md discusses the crossover).
    scenario = SyntheticWorkload(
        SyntheticWorkloadConfig(request_count=600, worker_count=160, city_km=6.0)
    ).build(seed=17)
    seeds = tuple(range(6 if mode == "quick" else 10))
    config = ExperimentConfig(
        seeds=seeds, simulator=SimulatorConfig(measure_response_time=False)
    )
    algorithms = ["demcom", "ramcom"]
    serial_watch = Stopwatch()
    with serial_watch:
        run_comparison(scenario, algorithms, config)
    parallel_watch = Stopwatch()
    with parallel_watch:
        run_comparison(scenario, algorithms, replace(config, jobs=jobs))
    return {
        "jobs": jobs,
        "cells": len(seeds) * len(algorithms),
        "serial_seconds": round(serial_watch.elapsed_seconds, 4),
        "parallel_seconds": round(parallel_watch.elapsed_seconds, 4),
        "speedup": round(
            serial_watch.elapsed_seconds / parallel_watch.elapsed_seconds, 3
        ),
    }


def run_hotpath_benchmark(quick: bool = True, jobs: int = 0) -> dict:
    """Run every section; returns the ``BENCH_hotpath.json`` payload.

    ``quick`` shrinks the workloads for CI (documented in
    docs/PERFORMANCE.md); ``jobs=0`` sizes the parallel section to the
    machine.  The parallel section is skipped when only one worker is
    available (``jobs=1``, or ``jobs=0`` on a single-core machine) —
    a one-process pool has nothing to compare against the serial path.
    """
    jobs = resolve_jobs(jobs)
    mode = "quick" if quick else "full"
    payload: dict = {"benchmark": "hotpath", "schema": 2, "mode": mode}
    micro_baseline = _measure_micro(fast_path=False, mode=mode)
    micro_current = _measure_micro(fast_path=True, mode=mode)
    payload["payment_micro"] = {
        "baseline": micro_baseline,
        "current": micro_current,
        "speedup": round(
            micro_current["decisions_per_sec"]
            / micro_baseline["decisions_per_sec"],
            3,
        ),
    }
    for algorithm in ("demcom", "ramcom"):
        end_baseline = _measure_end_to_end(False, algorithm)
        end_current = _measure_end_to_end(True, algorithm)
        payload[f"{algorithm}_end_to_end"] = {
            "baseline": end_baseline,
            "current": end_current,
            "speedup": round(
                end_current["decisions_per_sec"]
                / end_baseline["decisions_per_sec"],
                3,
            ),
        }
    if jobs > 1:
        payload["parallel"] = _measure_parallel(jobs, mode)
    return payload


def check_regression(
    result: dict,
    reference_path: str | Path,
    tolerance: float = SPEEDUP_TOLERANCE,
) -> list[str]:
    """Compare a fresh run against the checked-in reference.

    Returns a list of human-readable failures (empty == pass).  Only
    *speedup ratios* are compared — both sides of each ratio were measured
    in the same run on the same machine, so the comparison is
    machine-independent; absolute decisions/sec are reported but never
    gated on.
    """
    reference = json.loads(Path(reference_path).read_text())
    failures: list[str] = []
    for section in ("payment_micro", "demcom_end_to_end", "ramcom_end_to_end"):
        if section not in reference:
            continue
        if section not in result:
            failures.append(f"{section}: missing from the measured payload")
            continue
        floor = reference[section]["speedup"] * (1.0 - tolerance)
        measured = result[section]["speedup"]
        if measured < floor:
            failures.append(
                f"{section}: speedup {measured:.3f}x fell below "
                f"{floor:.3f}x (reference {reference[section]['speedup']:.3f}x "
                f"- {tolerance:.0%} tolerance)"
            )
    return failures


def render_report(payload: dict) -> str:
    """A terminal-friendly summary of one benchmark payload."""
    lines = [f"hotpath benchmark ({payload['mode']} mode)"]
    micro = payload["payment_micro"]
    lines.append(
        "  payment micro:    "
        f"{micro['baseline']['decisions_per_sec']:>10.1f} -> "
        f"{micro['current']['decisions_per_sec']:>10.1f} decisions/sec "
        f"({micro['speedup']:.2f}x)  "
        f"p95 {micro['baseline']['p95_ms']:.3f} -> "
        f"{micro['current']['p95_ms']:.3f} ms"
    )
    for algorithm in ("demcom", "ramcom"):
        end = payload[f"{algorithm}_end_to_end"]
        lines.append(
            f"  {algorithm} end-to-end:"
            f"{end['baseline']['decisions_per_sec']:>10.1f} -> "
            f"{end['current']['decisions_per_sec']:>10.1f} decisions/sec "
            f"({end['speedup']:.2f}x)"
        )
    parallel = payload.get("parallel")
    if parallel:
        lines.append(
            f"  parallel executor: {parallel['serial_seconds']:.2f}s serial -> "
            f"{parallel['parallel_seconds']:.2f}s with {parallel['jobs']} jobs "
            f"({parallel['speedup']:.2f}x, {parallel['cells']} cells)"
        )
    return "\n".join(lines)
