"""Sample statistics used by the metrics layer: an interpolated quantile."""

from __future__ import annotations

import math

__all__ = ["quantile"]


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
