"""Wall-clock timing helpers for the response-time metric (paper §V-C1).

The paper reports the *average response time of each request* — the latency
between a request arriving and the platform's serve/borrow/reject decision.
:class:`Stopwatch` wraps ``time.perf_counter`` and :class:`TimingAccumulator`
counts per-request latencies, sums them and keeps a reservoir sample.
"""

from __future__ import annotations

import time

from repro.utils.rng import derive_rng

__all__ = ["Stopwatch", "TimingAccumulator"]


class Stopwatch:
    """A restartable high-resolution stopwatch.

    Usable as a context manager::

        with Stopwatch() as watch:
            decide(request)
        latency = watch.elapsed_seconds

    When the wrapped block raises, the exception propagates and the watch
    is flagged ``failed`` — callers feeding a latency metric must skip
    flagged samples so aborted decisions don't contaminate the paper's
    response-time numbers (the elapsed time of a *failed* decision is
    still available for diagnostics).
    """

    __slots__ = ("_start", "elapsed_seconds", "failed")

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed_seconds = 0.0
        self.failed = False

    def start(self) -> "Stopwatch":
        """Begin (or restart) timing."""
        self._start = time.perf_counter()
        self.failed = False
        return self

    def stop(self) -> float:
        """Stop timing and return the elapsed seconds."""
        if self._start is None:
            raise RuntimeError("Stopwatch.stop() called before start()")
        self.elapsed_seconds = time.perf_counter() - self._start
        self._start = None
        return self.elapsed_seconds

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self.stop()
        if exc_type is not None:
            self.failed = True


class TimingAccumulator:
    """Accumulates per-event latencies: their count, their sum and a sample.

    Latencies are recorded in seconds.  A bounded reservoir keeps a uniform
    sample of latencies so tail percentiles stay available without storing
    every measurement.
    """

    RESERVOIR_SIZE = 1000

    def __init__(self) -> None:
        self._count = 0
        self._total = 0.0
        self._reservoir: list[float] = []
        self._reservoir_rng = derive_rng(0x5EED, "timer/reservoir")

    def record(self, seconds: float) -> None:
        """Record one latency sample, in seconds."""
        self._count += 1
        self._total += seconds
        if len(self._reservoir) < self.RESERVOIR_SIZE:
            self._reservoir.append(seconds)
        else:
            slot = self._reservoir_rng.randrange(self._count)
            if slot < self.RESERVOIR_SIZE:
                self._reservoir[slot] = seconds

    def samples(self) -> list[float]:
        """A copy of the reservoir sample of latencies, in seconds.

        Exhaustive while fewer than ``RESERVOIR_SIZE`` latencies were
        recorded; a uniform subsample afterwards.  Callers pooling
        percentiles across accumulators should use this instead of the
        private reservoir.
        """
        return list(self._reservoir)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return self._count

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded latencies, in seconds."""
        return self._total
