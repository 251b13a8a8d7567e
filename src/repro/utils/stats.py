"""Streaming statistics used by the metrics layer.

:class:`RunningStats` implements Welford's online algorithm so the simulator
can track per-request response times for 100k requests without storing each
sample (memory accounting would otherwise be polluted by the measurement
itself).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = ["RunningStats", "quantile"]


class RunningStats:
    """Single-pass mean / variance / min / max accumulator.

    Uses Welford's numerically stable update.  Supports merging two
    accumulators (parallel sweeps) via :meth:`merge`.
    """

    __slots__ = ("count", "mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        self.total += value
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples."""
        for value in values:
            self.add(value)

    @property
    def variance(self) -> float:
        """Population variance (0.0 when fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator equivalent to seeing both sample sets."""
        merged = RunningStats()
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        if merged.count == 0:
            return merged
        delta = other.mean - self.mean
        merged.mean = self.mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.6g}, "
            f"stddev={self.stddev:.6g})"
        )


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already *sorted* sample.

    ``q`` in [0, 1].  Empty input raises ``ValueError`` rather than
    returning a silent NaN.
    """
    if not sorted_values:
        raise ValueError("quantile of empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return sorted_values[low]
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction
