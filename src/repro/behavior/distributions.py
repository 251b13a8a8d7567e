"""Reservation-price distributions.

Each distribution exposes sampling (the worker's latent draw per offer), the
CDF (the *true* acceptance probability at a given payment, used by analysis
and tests), and quantiles (used by workload calibration: "make the minimum
outer payment land near 70% of the request value", §III-D).
"""

from __future__ import annotations

import bisect
import math
import random
from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.errors import ConfigurationError

__all__ = [
    "ReservationDistribution",
    "UniformDistribution",
    "NormalDistribution",
    "LognormalDistribution",
    "EmpiricalDistribution",
]


class ReservationDistribution(ABC):
    """A distribution over reservation prices (non-negative reals)."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one reservation price."""

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
        """A closed interval ``[low, high]`` holding every :meth:`sample`.

        The behaviour oracle settles an offer without drawing when the
        payment lies outside it, so a subclass may narrow it only to bounds
        it can prove for the floating-point sampler, not for the ideal
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

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def draw_bounds(self) -> tuple[float, float]:
        # ``low + (high - low) * random()`` adds a non-negative term to
        # ``low``, so it never rounds below it; it can round past ``high``.
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


class NormalDistribution(ReservationDistribution):
    """Normal(mu, sigma) truncated below at zero (reservations are prices)."""

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, rng: random.Random) -> float:
        return max(0.0, rng.gauss(self.mu, self.sigma))

    def cdf(self, value: float) -> float:
        if value < 0:
            return 0.0
        # Truncation at 0 folds all mass below zero onto zero, so the CDF of
        # the truncated variable equals the untruncated CDF for value >= 0.
        z = (value - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))

    def quantile(self, q: float) -> float:
        _check_q(q)
        # Bisection on the CDF; monotone, so this is robust.
        low, high = 0.0, max(1.0, self.mu + 10.0 * self.sigma)
        if q <= self.cdf(low):
            return low
        for _ in range(80):
            mid = (low + high) / 2.0
            if self.cdf(mid) < q:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    def mean(self) -> float:
        # Mean of max(0, N(mu, sigma)).
        z = self.mu / self.sigma
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        big_phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        return self.mu * big_phi + self.sigma * phi

    def __repr__(self) -> str:
        return f"NormalDistribution(mu={self.mu}, sigma={self.sigma})"


class LognormalDistribution(ReservationDistribution):
    """Lognormal — the classic heavy-tailed fare/price model."""

    def __init__(self, mu: float, sigma: float):
        # A NaN mu, or an infinite sigma times a zero normal deviate,
        # makes sample() return NaN, which no draw_bounds() interval holds.
        if not 0 < sigma < math.inf:
            raise ConfigurationError(
                f"sigma must be positive and finite, got {sigma}"
            )
        if not math.isfinite(mu):
            raise ConfigurationError(f"mu must be finite, got {mu}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self.mu, self.sigma)

    def cdf(self, value: float) -> float:
        if value <= 0:
            return 0.0
        z = (math.log(value) - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))

    def quantile(self, q: float) -> float:
        _check_q(q)
        if q == 0.0:
            return 0.0
        z = _normal_quantile(q)
        return math.exp(self.mu + self.sigma * z)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma * self.sigma / 2.0)

    def __repr__(self) -> str:
        return f"LognormalDistribution(mu={self.mu}, sigma={self.sigma})"


class EmpiricalDistribution(ReservationDistribution):
    """The empirical distribution of a finite sample.

    This is exactly the distribution Definition 3.1 estimates: its CDF at
    ``v`` is ``N(value <= v) / N``.  Sampling draws a uniform member.
    """

    def __init__(self, values: Sequence[float]):
        if not values:
            raise ConfigurationError("empirical distribution needs >= 1 value")
        # ``not v >= 0`` also rejects NaN, which would leave the list
        # unsorted and draw_bounds() wrong.
        if any(not v >= 0 for v in values):
            raise ConfigurationError("reservation prices must be non-negative")
        self._sorted = sorted(float(v) for v in values)

    def sample(self, rng: random.Random) -> float:
        return self._sorted[rng.randrange(len(self._sorted))]

    def draw_bounds(self) -> tuple[float, float]:
        # sample() returns a member of the sorted list.
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


def _normal_quantile(q: float) -> float:
    """Acklam's rational approximation to the standard normal quantile."""
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"normal quantile needs q in (0, 1), got {q}")
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if q < p_low:
        u = math.sqrt(-2.0 * math.log(q))
        return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
    if q > 1.0 - p_low:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        return -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
    u = q - 0.5
    t = u * u
    return (((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5]) * u / (
        ((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0
    )
