"""Paths, the pinned process environment and small statistics helpers.

Every benchmark process (workload runner, serving target) imports this
module first: it puts the checkout's ``src`` on ``sys.path`` so the
program under test is always the one next to the benchmark, never an
installed copy.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes lives here (gitignored): results, spans,
#: journals and event logs of the served workloads.
OUT_DIR = ROOT / ".bench_out"

#: Environment switches that change what the engine does; every workload
#: process runs with them removed so results never depend on the caller.
SCRUBBED_ENV = (
    "REPRO_PAYMENT_BACKEND",
    "COM_REPRO_SANITIZE",
    "COM_REPRO_SANITIZE_CONCURRENCY",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def ensure_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pinned_env() -> dict[str, str]:
    """The environment every workload process runs under."""
    env = {key: value for key, value in os.environ.items() if key not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def env_is_pinned() -> bool:
    """True when this process already runs under :func:`pinned_env`."""
    return os.environ.get("PYTHONHASHSEED") == "0" and not any(
        key in os.environ for key in SCRUBBED_ENV
    )


#: Time of one :func:`calibration_kernel` on the reference host (its
#: typical time on a 2-core x86-64 host with Python 3.11).  Every timing
#: the benchmark gates is scaled to a host this fast.
CALIBRATION_REF_S = 0.0035
#: Kernels per calibration; their median is the host's current speed.
CALIBRATION_REPEATS = 7


def calibration_kernel() -> None:
    """A fixed slice of interpreter work that never touches the program:
    float math, dict updates, heap operations and a keyed sort.  The
    collector is off while it runs, so the program's heap never adds to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(0)
        points = [(rng.random(), rng.random()) for _ in range(2000)]
        sums: dict[int, float] = {}
        for index, (x, y) in enumerate(points):
            sums[index % 97] = sums.get(index % 97, 0.0) + math.hypot(x - 0.5, y - 0.5)
        heap: list[tuple[float, int]] = []
        for index, (x, y) in enumerate(points):
            heapq.heappush(heap, (x * y, index))
        while heap:
            heapq.heappop(heap)
        sorted(points, key=lambda point: point[0] + point[1])
    finally:
        if enabled:
            gc.enable()


def calibration_s() -> float:
    """The host's current speed: median time of a few calibration kernels."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def speed_factor(before_s: float, after_s: float) -> float:
    """The factor that scales a timing to the reference host, from the
    calibrations run right before and right after it."""
    return CALIBRATION_REF_S / ((before_s + after_s) / 2)


def pin(pid: int, position: int) -> None:
    """Pin a process to one CPU, by position in this process's CPU set.

    A calibration only speaks for the CPU it ran on, and on a shared host
    the CPUs are not equally fast.  With a single CPU this does nothing.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(pid, {cpus[position]})


class HostSpeed:
    """Scales timings to the reference host speed.

    The host's speed swings by up to a half for tens of seconds at a time,
    far beyond any regression bound, and CPU time swings with it.  So the
    calibration kernel runs before the first measured piece of work and
    after each one, and a piece's timings are multiplied by
    ``CALIBRATION_REF_S`` over the mean of the two calibrations around it.
    """

    def __init__(self) -> None:
        self._last = calibration_s()
        #: Every factor handed out, for the results file.
        self.factors: list[float] = []

    def scale(self) -> float:
        """The factor for the work done since the previous call."""
        now = calibration_s()
        factor = speed_factor(self._last, now)
        self._last = now
        self.factors.append(factor)
        return factor


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0.0 when empty."""
    # Imported on use: this module loads before ensure_program() can run.
    from repro.utils.stats import quantile

    return quantile(sorted(values), q / 100.0) if values else 0.0


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def row_key(row: dict) -> str:
    """Canonical text of a metric row, for byte-equality checks."""
    return json.dumps(row, sort_keys=True)


def load_benchmark_spec() -> dict:
    """``BENCHMARK.json`` from the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
