"""Minimum outer-payment estimation — Algorithm 2 of the paper.

DemCOM pays outer workers as little as possible.  The minimum payment at
which *some* eligible outer worker would accept is a random quantity (each
worker's willingness is random), so Algorithm 2 estimates its expectation by
Monte-Carlo sampling: each sampling instance simulates every candidate
worker's acceptance at trial prices and bisects on the price axis to find
where acceptance switches on; the estimate is the mean over
``n_s = ceil(4 ln(2/xi) / eta^2)`` instances (Lemma 1 gives the resulting
``(xi, eta)`` accuracy guarantee).

Instances where nobody accepts even at the full request value contribute
``v_r + epsilon``; if such instances dominate, the estimate exceeds ``v_r``
and DemCOM rejects the request (Algorithm 1, lines 13-14).

The estimator is the dominant per-decision cost of DemCOM (one Eq.-4 query
per candidate per bisection step, times ``n_s`` instances), so it runs on
the snapshot *fast path*: candidate histories are materialised once
per :meth:`MinimumOuterPaymentEstimator.estimate` call
(:meth:`~repro.core.acceptance.AcceptanceEstimator.snapshot`), and the Eq.-4
probability vector at each trial price is computed once and memoised across
the Monte-Carlo instances — all ``n_s`` instances bisect the same dyadic
price grid, so the empirical-CDF evaluations collapse from
``O(n_s * depth * |candidates|)`` to ``O(grid * |candidates|)``.  The fast
path draws the *exact same RNG sequence* as the reference path (one uniform
per candidate with positive acceptance probability, in candidate order,
until one accepts), so results are bit-identical — docs/PERFORMANCE.md
spells out the argument, and the golden tests in
``tests/test_perf_fastpath.py`` pin it down.  The reference per-query loop
(:meth:`MinimumOuterPaymentEstimator._run_instances_reference`) is kept as
the oracle those tests swap in for the fast path; no option selects it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from repro.core.acceptance import AcceptanceEstimator
from repro.errors import ConfigurationError
from repro.obs import NULL_PROBE, Probe

__all__ = ["MinimumOuterPaymentEstimator", "PaymentEstimate", "sample_count"]


def sample_count(xi: float, eta: float) -> int:
    """``n_s = ceil(4 ln(2/xi) / eta^2)`` — Lemma 1's sample bound."""
    if not 0.0 < xi < 1.0:
        raise ConfigurationError(f"xi must be in (0, 1), got {xi}")
    if not 0.0 < eta < 1.0:
        raise ConfigurationError(f"eta must be in (0, 1), got {eta}")
    return int(math.ceil(4.0 * math.log(2.0 / xi) / (eta * eta)))


@dataclass(frozen=True, slots=True)
class PaymentEstimate:
    """Result of one Algorithm-2 run.

    Attributes
    ----------
    payment:
        The estimated minimum outer payment ``v'_r``.  May exceed the
        request value, which signals "reject" to DemCOM.
    samples:
        Number of Monte-Carlo instances averaged.
    rejected_instances:
        Instances in which no candidate accepted even at the full value.
    """

    payment: float
    samples: int
    rejected_instances: int

    @property
    def always_rejected(self) -> bool:
        """True iff no instance ever found an accepting worker."""
        return self.rejected_instances == self.samples


class MinimumOuterPaymentEstimator:
    """Monte-Carlo + bisection estimator of the minimum outer payment.

    Parameters
    ----------
    estimator:
        The Eq.-4 acceptance estimator (shared with the algorithm).
    xi, eta:
        Accuracy knobs of Lemma 1; they fix the instance count and the
        bisection tolerance ``xi * v_r``.
    epsilon:
        Absolute bisection floor and the surcharge marking an
        impossible-to-serve instance.

    :meth:`estimate` runs :meth:`_run_instances_fast`; the bit-identical
    :meth:`_run_instances_reference` is a test-only oracle.
    """

    def __init__(
        self,
        estimator: AcceptanceEstimator,
        xi: float = 0.1,
        eta: float = 0.5,
        epsilon: float = 1e-6,
    ):
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        self.estimator = estimator
        self.xi = xi
        self.eta = eta
        self.epsilon = epsilon
        self.samples = sample_count(xi, eta)

    def _anyone_accepts(
        self,
        payment: float,
        request_value: float,
        worker_ids: Sequence[Hashable],
        rng: random.Random,
    ) -> bool:
        """Simulate one acceptance round at ``payment`` (Alg. 2 lines 4/9).

        Reference path: one ``probability`` query per candidate.
        """
        for worker_id in worker_ids:
            probability = self.estimator.probability(
                payment, worker_id, request_value
            )
            if probability > 0.0 and rng.random() <= probability:
                return True
        return False

    def _run_instances_reference(
        self,
        request_value: float,
        worker_ids: Sequence[Hashable],
        rng: random.Random,
        tolerance: float,
    ) -> tuple[float, int, int]:
        """The pre-fast-path instance loop, the equivalence oracle for
        :meth:`_run_instances_fast`; only tests call it."""
        total = 0.0
        rejected = 0
        iterations = 0
        for _ in range(self.samples):
            if not self._anyone_accepts(
                request_value, request_value, worker_ids, rng
            ):
                total += request_value + self.epsilon
                rejected += 1
                continue
            low = 0.0
            high = request_value
            mid = high / 2.0
            while high - low > tolerance:
                iterations += 1
                if self._anyone_accepts(mid, request_value, worker_ids, rng):
                    high = mid
                else:
                    low = mid
                mid = (high + low) / 2.0
            total += mid
        return total, rejected, iterations

    def _run_instances_fast(
        self,
        request_value: float,
        worker_ids: Sequence[Hashable],
        rng: random.Random,
        tolerance: float,
    ) -> tuple[float, int, int]:
        """Snapshot fast path: same instances, same draws, shared Eq.-4 work.

        Two observations make this bit-identical to the reference loop while
        doing a fraction of its work:

        * **The probability vector at an offer is draw-independent.**  A
          round accepts/rejects by drawing one uniform per candidate whose
          Eq.-4 probability is positive, in candidate order, until one
          accepts — the draws depend only on the probability *values*, so
          precomputing ``[pr(offer, w) for w in candidates]`` and iterating
          it preserves the exact RNG sequence (a probability of 0 draws
          nothing on either path; a probability of exactly
          ``size/size == 1.0`` always satisfies ``draw() <= 1.0``, so its
          uniform is still consumed).
        * **Instances share the trial-price grid.**  Every instance first
          probes ``v_r``, then bisects midpoints of dyadic subintervals of
          ``[0, v_r]`` down to the same tolerance — a set of at most
          ``2^depth`` distinct prices probed by all ``n_s`` instances.
          Memoising the probability vector per offer therefore turns
          ``O(n_s * depth * |candidates|)`` empirical-CDF evaluations into
          ``O(grid * |candidates|)``.

        Probabilities are computed from the same histories with the same
        ``bisect_right``/division expressions as
        :meth:`AcceptanceEstimator.probability <repro.core.acceptance.
        AcceptanceEstimator.probability>`, so every float compared against
        a uniform is identical bit for bit.
        """
        snapshot = self.estimator.snapshot(worker_ids)
        rows = snapshot.rows
        # Every trial price probed below is positive (the first probe is
        # v_r > 0 and every bisection midpoint sits strictly inside
        # (0, v_r)), so the cold-start probability is the plain default.
        cold = snapshot.default_probability
        relative = snapshot.mode == "relative"
        draw = rng.random
        chop = bisect_right
        epsilon = self.epsilon
        probabilities: dict[float, list[float]] = {}
        full_offer = request_value / request_value if relative else request_value
        full_probs = [
            cold if history is None else chop(history, full_offer) / size
            for history, size in rows
        ]
        total = 0.0
        rejected = 0
        iterations = 0
        for _ in range(self.samples):
            for probability in full_probs:
                if probability > 0.0 and draw() <= probability:
                    break
            else:
                total += request_value + epsilon
                rejected += 1
                continue
            low = 0.0
            high = request_value
            mid = high / 2.0
            while high - low > tolerance:
                iterations += 1
                offer = mid / request_value if relative else mid
                probs = probabilities.get(offer)
                if probs is None:
                    probs = [
                        cold if history is None else chop(history, offer) / size
                        for history, size in rows
                    ]
                    probabilities[offer] = probs
                for probability in probs:
                    if probability > 0.0 and draw() <= probability:
                        high = mid
                        break
                else:
                    low = mid
                mid = (high + low) / 2.0
            total += mid
        return total, rejected, iterations

    def estimate(
        self,
        request_value: float,
        worker_ids: Sequence[Hashable],
        rng: random.Random,
        probe: Probe = NULL_PROBE,
    ) -> PaymentEstimate:
        """Run Algorithm 2 for a request of value ``request_value``.

        ``worker_ids`` are the outer candidates already filtered for the
        Definition-2.6 constraints (Algorithm 1, line 8 computes that set).
        ``probe`` receives a ``payment.estimate`` span plus the
        Monte-Carlo instance / bisection-iteration accounting; the no-op
        default never draws from ``rng`` differently, so telemetry cannot
        perturb the estimate.  The span is closed even when the estimator
        raises mid-run (flagged ``failed=True``, mirroring the
        ``Stopwatch`` failure pattern), so a crashing estimate never leaks
        an open span into the trace.
        """
        if request_value <= 0:
            raise ConfigurationError(
                f"request value must be positive, got {request_value}"
            )
        if not worker_ids:
            # No candidates: every instance is a rejection.
            return PaymentEstimate(
                payment=request_value + self.epsilon,
                samples=self.samples,
                rejected_instances=self.samples,
            )

        span = (
            probe.span(
                "payment.estimate",
                category="payment",
                value=request_value,
                candidates=len(worker_ids),
                samples=self.samples,
            )
            if probe.enabled
            else None
        )
        failed = True
        try:
            tolerance = max(self.epsilon, self.xi * request_value)
            total, rejected, iterations = self._run_instances_fast(
                request_value, worker_ids, rng, tolerance
            )
            estimate = PaymentEstimate(
                payment=total / self.samples,
                samples=self.samples,
                rejected_instances=rejected,
            )
            failed = False
        finally:
            if span is not None and failed:
                span.annotate(failed=True)
                span.end()
        if probe.enabled:
            probe.count("payment_mc_instances", self.samples)
            probe.count("payment_mc_iterations", iterations)
            probe.observe("payment_mc_iterations_per_estimate", iterations)
            if span is not None:
                span.annotate(
                    payment=estimate.payment,
                    rejected_instances=rejected,
                    bisection_iterations=iterations,
                )
                span.end()
        return estimate
