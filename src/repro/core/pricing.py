"""Maximum-expected-revenue pricing (Definition 4.1) used by RamCOM.

RamCOM does not pay outer workers the bare minimum; it trades revenue
against acceptance probability by choosing the payment that maximizes

    E(v', W) = (v_r - v') * pr(v', W),                      (Eq. 5)

where ``pr(v', W) = 1 - prod_w (1 - pr(v', w))`` is the probability that
*at least one* candidate accepts.  The paper delegates this maximization to
the dynamic-pricing algorithm of Tong et al. [14]; as documented in
DESIGN.md we substitute an exact maximization over a discrete payment grid
of the same objective, with the ``O(max v_r)`` complexity the paper quotes.

Candidate grid: the union of (a) an even grid over ``(0, v_r]`` and (b) the
candidates' history values below ``v_r`` — the empirical CDFs of Eq. 4 are
step functions whose steps sit exactly at history values, so including them
makes the discrete maximization exact for the estimator the algorithm
actually uses.

The any-acceptance product is the pricer's hot loop (one Eq.-4 query per
candidate per candidate payment).  :meth:`quote` prunes it without
changing a bit of the answer:

* it sweeps the candidate payments in ascending order and stops at the
  first payment whose margin ``v_r - v'`` falls *strictly* below the best
  expected revenue so far — ``pr <= 1`` bounds every later payment's
  expected revenue by its margin, which only shrinks as ``v'`` grows, and
  a tie must still be evaluated because it goes to the higher payment;
* candidate histories are materialised once per call
  (:meth:`~repro.core.acceptance.AcceptanceEstimator.snapshot`); the
  breakpoints are read from that snapshot, and each candidate keeps a
  monotone cursor into its sorted history in place of a ``bisect`` per
  (payment, candidate) — offers never decrease, so the cursor always
  equals ``bisect_right``;
* one bisect settles the leading payments below every history value:
  each leaves every factor at 1.0, so each has probability 0 and ties the
  one before it at expected revenue 0, and the reference ends that run on
  its highest payment; they still count as evaluated;
* the sweep keeps one factor ``1 - pr(v', w)`` per candidate, in candidate
  order, and a heap of the cursors' next history values, so a payment
  touches only the candidates whose cursor it moves; the product
  ``math.prod(factors)`` is recomputed only when some factor changed and
  is reused as-is otherwise (grid points between breakpoints).

The product multiplies the same factors in the same candidate order
(``x * 1.0 == x`` stands in for the reference's skipped zero-probability
candidates, and a probability-one candidate's exact ``0.0`` factor zeroes
the rest just as the reference's early exit does) and the
``(expected, payment)`` argmax does not depend on evaluation order, so
quotes are bit-identical to the reference evaluation
(:meth:`MaximumExpectedRevenuePricer._quote_reference`), which evaluates
every payment in build order and is kept as the oracle the equivalence
tests swap in for the pruned sweep; see
docs/PERFORMANCE.md#pruned-mer-quote,
docs/PERFORMANCE.md#factor-list-mer-sweep and
docs/PERFORMANCE.md#snapshot-fed-quote-and-zero-run.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from itertools import compress

from repro.core.acceptance import AcceptanceEstimator, AcceptanceSnapshot
from repro.errors import ConfigurationError

__all__ = ["MaximumExpectedRevenuePricer", "PricingQuote"]


@dataclass(frozen=True, slots=True)
class PricingQuote:
    """The pricer's answer for one cooperative request.

    Attributes
    ----------
    payment:
        The outer payment ``v'_r`` maximizing expected revenue.
    expected_revenue:
        ``(v_r - payment) * acceptance_probability`` at the optimum.
    acceptance_probability:
        Estimated probability that at least one candidate accepts.
    """

    payment: float
    expected_revenue: float
    acceptance_probability: float


class MaximumExpectedRevenuePricer:
    """Exact discrete maximizer of Definition 4.1's expected revenue.

    Parameters
    ----------
    estimator:
        The shared Eq.-4 acceptance estimator.
    grid_steps:
        Size of the even payment grid over ``(0, v_r]``.
    include_history_breakpoints:
        Also evaluate candidates' history values (the CDF step points).
        Disabling this reproduces a plain grid search (ablation knob).
    max_breakpoints:
        Cap on history breakpoints considered, for dense histories.  The
        default, 64, is the smallest measured cap whose RamCOM revenue on
        Tables V-VII and the benchmark traces is no more than 0.25% below
        the former 200's (DESIGN.md §1, docs/PERFORMANCE.md#the-breakpoint-cap).

    :meth:`quote` runs :meth:`_quote_pruned`; the bit-identical
    :meth:`_quote_reference` is a test-only oracle.
    """

    def __init__(
        self,
        estimator: AcceptanceEstimator,
        grid_steps: int = 50,
        include_history_breakpoints: bool = True,
        max_breakpoints: int = 64,
    ):
        if grid_steps < 1:
            raise ConfigurationError(f"grid_steps must be >= 1, got {grid_steps}")
        if max_breakpoints < 0:
            raise ConfigurationError(
                f"max_breakpoints must be >= 0, got {max_breakpoints}"
            )
        self.estimator = estimator
        self.grid_steps = grid_steps
        self.include_history_breakpoints = include_history_breakpoints
        self.max_breakpoints = max_breakpoints
        #: Cumulative candidate payments built and evaluated by
        #: :meth:`quote`; their ratio is the pruning rate.
        self.payments_built = 0
        self.payments_evaluated = 0

    def _candidate_payments(
        self, request_value: float, snapshot: AcceptanceSnapshot
    ) -> list[float]:
        step = request_value / self.grid_steps
        payments = [step * i for i in range(1, self.grid_steps + 1)]
        if not self.include_history_breakpoints:
            return payments
        # The CDF step points <= v_r (``rate * v_r`` in relative mode) in
        # candidate order, ascending within a candidate, up to the cap of
        # distinct payments (docs/PERFORMANCE.md#one-sort-breakpoint-build).
        relative = snapshot.mode == "relative"
        scale = request_value if relative else 1.0
        bound = 1.0 if relative else request_value
        cap = self.max_breakpoints
        rows = iter(snapshot.rows)
        prefixes: list[float] = []  # the <= v_r prefixes, read as needed
        taken = 0
        breakpoints: list[float] = []  # distinct, ascending
        while len(breakpoints) < cap:
            # A round takes the next ``room`` values; each adds at most one
            # distinct payment, so a round never overshoots the cap.
            room = cap - len(breakpoints)
            for history, size in rows:
                if history is not None:
                    end = bisect.bisect_right(history, bound)
                    # A rate just above 1.0 may pay exactly v_r (subnormal).
                    while relative and end < size and history[end] * scale <= scale:
                        end += 1
                    prefixes += history[:end]
                    if len(prefixes) >= taken + room:
                        break
            chunk = prefixes[taken : taken + room]
            if not chunk:
                break
            taken += len(chunk)
            breakpoints += [value * scale for value in chunk]
            breakpoints.sort()
            first_of_run = map(operator.ne, breakpoints, [None, *breakpoints])
            breakpoints = list(compress(breakpoints, first_of_run))
        # Every breakpoint is <= v_r already; keep the positive ones.
        payments += breakpoints[bisect.bisect_right(breakpoints, 0.0) :]
        return payments

    def _quote_reference(
        self,
        request_value: float,
        snapshot: AcceptanceSnapshot,
        payments: list[float],
    ) -> tuple[float, float, float, int]:
        """Every candidate payment, in build order, one Eq.-4 query per
        candidate — the equivalence oracle for the pruned sweep."""
        best_payment = request_value
        best_expected = -1.0
        best_probability = 0.0
        for payment in payments:
            none_accepts = 1.0
            for candidate in snapshot.probabilities(payment, request_value):
                none_accepts *= 1.0 - candidate
                if none_accepts == 0.0:
                    break
            probability = 1.0 - none_accepts
            expected = (request_value - payment) * probability
            # Tie-break toward higher payment: same platform revenue but a
            # higher chance of acceptance (and a happier lender).
            if expected > best_expected or (
                expected == best_expected and payment > best_payment
            ):
                best_expected = expected
                best_payment = payment
                best_probability = probability
        return best_payment, best_expected, best_probability, len(payments)

    def _quote_pruned(
        self,
        request_value: float,
        snapshot: AcceptanceSnapshot,
        payments: list[float],
    ) -> tuple[float, float, float, int]:
        """Ascending sweep with a strict revenue-bound stop over a list of
        per-candidate factors that only changes where a history cursor
        moves; bit-identical to :meth:`_quote_reference`
        (docs/PERFORMANCE.md#factor-list-mer-sweep,
        docs/PERFORMANCE.md#snapshot-fed-quote-and-zero-run)."""
        payments.sort()
        rows = snapshot.rows
        relative = snapshot.mode == "relative"
        cold_factor = 1.0 - snapshot.default_probability
        # factors[i] is candidate i's 1 - pr(offer) at the current offer, in
        # candidate order: 1.0 - position / size for a warm candidate whose
        # cursor sits at position = bisect_right(history, offer), and for a
        # cold one 1.0 until the first positive payment, cold_factor after.
        # Every factor starts at 1.0, so the empty offer's product is 1.0.
        factors = [1.0] * len(rows)
        # One (next history value, candidate, cursor) entry per warm
        # candidate whose cursor can still move; offers never decrease, so
        # an entry pops exactly when the offer passes its value.
        cursors = []
        cold = []
        for index, (history, _) in enumerate(rows):
            if history is None:
                cold.append(index)
            else:
                cursors.append((history[0], index, 0))
        heapq.heapify(cursors)
        # The leading payments below the lowest history value (and, with a
        # cold candidate whose factor is not 1.0, the zero payments) leave
        # every factor at 1.0: probability 0, and each ties the last at
        # expected 0, so the reference ends the run on its highest payment,
        # at margin * 0.0 (-0.0 where the top grid point rounds past v_r).
        start = len(payments)
        if cursors:
            start = bisect.bisect_left(
                payments,
                cursors[0][0],
                key=(lambda payment: payment / request_value) if relative else None,
            )
        if cold and cold_factor != 1.0:
            start = min(start, bisect.bisect_right(payments, 0.0))
        if start:
            best_payment = payments[start - 1]
            best_expected = (request_value - best_payment) * 0.0
        else:
            best_payment = request_value
            best_expected = -1.0
        none_accepts = 1.0
        best_probability = 0.0
        evaluated = start
        for payment in payments[start:]:
            margin = request_value - payment
            # expected <= margin (probability <= 1) and margin never grows
            # with payment, so once margin < best no later payment can beat
            # or tie best.  Strict, because a tie goes to the higher
            # payment.  A zero best is exempt: the top grid point may round
            # past v_r, where a zero-probability payment ties it at -0.0.
            if margin < best_expected and best_expected > 0.0:
                break
            evaluated += 1
            offer = payment / request_value if relative else payment
            moved = False
            if cold and payment > 0:
                for index in cold:
                    factors[index] = cold_factor
                cold = []
                moved = True
            while cursors and cursors[0][0] <= offer:
                _, index, position = cursors[0]
                history, size = rows[index]
                position += 1
                while position < size and history[position] <= offer:
                    position += 1
                factors[index] = 1.0 - position / size
                if position < size:
                    heapq.heapreplace(cursors, (history[position], index, position))
                else:
                    heapq.heappop(cursors)
                moved = True
            if moved:
                # The reference's left fold over the same factors in the
                # same order: x * 1.0 == x stands in for its skipped
                # zero-probability candidates, and a collapsed candidate's
                # exact 0.0 factor zeroes the rest as its early exit does.
                none_accepts = math.prod(factors)
            probability = 1.0 - none_accepts
            expected = margin * probability
            if expected > best_expected or (
                expected == best_expected and payment > best_payment
            ):
                best_expected = expected
                best_payment = payment
                best_probability = probability
        return best_payment, best_expected, best_probability, evaluated

    def quote(
        self, request_value: float, worker_ids: Sequence[Hashable]
    ) -> PricingQuote:
        """Compute the expected-revenue-maximizing payment for a request."""
        if request_value <= 0:
            raise ConfigurationError(
                f"request value must be positive, got {request_value}"
            )
        if not worker_ids:
            return PricingQuote(
                payment=request_value, expected_revenue=0.0, acceptance_probability=0.0
            )
        snapshot = self.estimator.snapshot(worker_ids)
        payments = self._candidate_payments(request_value, snapshot)
        self.payments_built += len(payments)
        payment, expected, probability, evaluated = self._quote_pruned(
            request_value, snapshot, payments
        )
        self.payments_evaluated += evaluated
        return PricingQuote(
            payment=payment,
            expected_revenue=max(0.0, expected),
            acceptance_probability=probability,
        )
