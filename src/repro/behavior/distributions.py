"""Reservation-price distributions.

Each distribution exposes the CDF (the *true* acceptance probability at a
given payment, used by analysis and tests) and quantiles.  A quantile is
both the worker's latent draw per offer (inverse-transform sampling of one
hashed uniform, :meth:`repro.behavior.BehaviorOracle.reservation`) and
what workload calibration reads ("make the minimum outer payment land near
70% of the request value", §III-D).
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.errors import ConfigurationError

__all__ = [
    "ReservationDistribution",
    "UniformDistribution",
    "EmpiricalDistribution",
]


class ReservationDistribution(ABC):
    """A distribution over reservation prices (non-negative reals)."""

    @abstractmethod
    def cdf(self, value: float) -> float:
        """P(reservation <= value) — the true acceptance probability."""

    @abstractmethod
    def quantile(self, q: float) -> float:
        """Inverse CDF at ``q`` in [0, 1]."""

    def mean(self) -> float:
        """Expected reservation price (default: numeric from quantiles)."""
        steps = 512
        return sum(self.quantile((i + 0.5) / steps) for i in range(steps)) / steps

    def draw_bounds(self) -> tuple[float, float]:
        """A closed interval ``[low, high]`` holding every draw, that is
        every :meth:`quantile` at ``q`` in ``[0, 1)``.

        The behaviour oracle settles an offer without drawing when the
        payment lies outside it, so a subclass may narrow it only to bounds
        it can prove for the floating-point quantile, not for the ideal
        distribution.  The default is the whole price domain.
        """
        return 0.0, math.inf


class UniformDistribution(ReservationDistribution):
    """Uniform on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high < math.inf:
            raise ConfigurationError(
                f"need 0 <= low <= high < inf, got [{low}, {high}]"
            )
        self.low = float(low)
        self.high = float(high)

    def draw_bounds(self) -> tuple[float, float]:
        # ``low + q * (high - low)`` adds a non-negative term to ``low``, so
        # it never rounds below it; it can round past ``high``.
        return self.low, math.inf

    def cdf(self, value: float) -> float:
        # Check the upper end first so a degenerate interval (low == high)
        # has CDF 1 at its point mass, not 0.
        if value >= self.high:
            return 1.0
        if value <= self.low:
            return 0.0
        return (value - self.low) / (self.high - self.low)

    def quantile(self, q: float) -> float:
        _check_q(q)
        return self.low + q * (self.high - self.low)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"UniformDistribution({self.low}, {self.high})"


class EmpiricalDistribution(ReservationDistribution):
    """The empirical distribution of a finite sample.

    This is exactly the distribution Definition 3.1 estimates: its CDF at
    ``v`` is ``N(value <= v) / N``.  A draw at a uniform ``q`` in ``[0, 1)``
    is the member at index ``floor(q * N)``, so each member is equally
    likely.
    """

    def __init__(self, values: Sequence[float]):
        if not values:
            raise ConfigurationError("empirical distribution needs >= 1 value")
        # ``not v >= 0`` also rejects NaN, which would leave the list
        # unsorted and draw_bounds() wrong.
        if any(not v >= 0 for v in values):
            raise ConfigurationError("reservation prices must be non-negative")
        self._sorted = sorted(float(v) for v in values)

    def draw_bounds(self) -> tuple[float, float]:
        # quantile() returns a member of the sorted list.
        return self._sorted[0], self._sorted[-1]

    def cdf(self, value: float) -> float:
        return bisect.bisect_right(self._sorted, value) / len(self._sorted)

    def quantile(self, q: float) -> float:
        _check_q(q)
        index = min(len(self._sorted) - 1, int(q * len(self._sorted)))
        return self._sorted[index]

    def mean(self) -> float:
        return sum(self._sorted) / len(self._sorted)

    @property
    def values(self) -> list[float]:
        """The sorted sample."""
        return list(self._sorted)

    def __repr__(self) -> str:
        return f"EmpiricalDistribution(n={len(self._sorted)})"


def _check_q(q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
