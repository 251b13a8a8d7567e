"""Shared utilities: deterministic RNG plumbing, timing, the memory-cost count,
a sample quantile, plain-text table rendering, and the process-pool
fan-out behind ``REPRO_BENCH_JOBS`` and ``lint --jobs``.

These are the lowest layer of the library; nothing here imports from any
other :mod:`repro` subpackage except :mod:`repro.errors`.
"""

from repro.utils.rng import SeedSequence, derive_rng
from repro.utils.stats import quantile
from repro.utils.timer import Stopwatch, TimingAccumulator
from repro.utils.memory import approximate_size_bytes
from repro.utils.tables import TextTable, format_float, format_si
from repro.utils.jobs import resolve_jobs, starmap_jobs

__all__ = [
    "SeedSequence",
    "derive_rng",
    "quantile",
    "Stopwatch",
    "TimingAccumulator",
    "approximate_size_bytes",
    "TextTable",
    "format_float",
    "format_si",
    "resolve_jobs",
    "starmap_jobs",
]
