"""RamCOM — Randomized Cross Online Matching (Algorithm 3).

Two ideas on top of DemCOM:

* **Value-threshold routing.**  Draw ``k`` uniformly from ``{1..theta}``
  with ``theta = ceil(ln(max_v + 1))`` once per run; requests with
  ``v_r > e^k`` are reserved for inner workers (randomly chosen among the
  eligible ones), smaller-value requests go straight to the cooperative
  (outer) path.  This keeps inner capacity free for the big-value requests
  DemCOM squanders.

* **Expected-revenue pricing.**  Instead of the bare minimum payment,
  cooperative requests are priced by the MER pricer (Definition 4.1):
  the payment maximizing ``(v_r - v') * P(any worker accepts at v')``.
  Workers accept far more often (paper: acceptance ratio ~0.66-0.75 vs
  DemCOM's ~0.16) at a modest ~10-point increase in payment rate.

Per Theorem 2 the competitive ratio of RamCOM reaches ``1/(8e)``.
"""

from __future__ import annotations

import math

from repro.core.base import (
    Decision,
    OnlineAlgorithm,
    PlatformContext,
    run_offer_loop,
)
from repro.core.entities import Request

__all__ = ["RamCOM"]


class RamCOM(OnlineAlgorithm):
    """Algorithm 3 of the paper.

    Parameters
    ----------
    fixed_k:
        Pin the threshold exponent instead of drawing it (used by the
        paper's Example 3 and by the ablation benches).  ``None`` draws
        ``k ~ Uniform{1..theta}`` at :meth:`reset`.
    """

    name = "RamCOM"

    def __init__(self, fixed_k: int | None = None):
        self.fixed_k = fixed_k
        self._threshold = 0.0
        self._k = 0

    @property
    def threshold(self) -> float:
        """The current value threshold ``e^k``."""
        return self._threshold

    @staticmethod
    def theta_for(value_upper_bound: float) -> int:
        """``theta = ceil(ln(max_v + 1))`` (Algorithm 3, line 1)."""
        return max(1, int(math.ceil(math.log(value_upper_bound + 1.0))))

    def reset(self, context: PlatformContext) -> None:
        """Draw the run's threshold exponent (Algorithm 3, line 2)."""
        theta = self.theta_for(context.value_upper_bound)
        if self.fixed_k is not None:
            if not 1 <= self.fixed_k <= theta:
                raise ValueError(
                    f"fixed_k={self.fixed_k} outside {{1..{theta}}} for "
                    f"value bound {context.value_upper_bound}"
                )
            self._k = self.fixed_k
        else:
            self._k = context.rng.randint(1, theta)
        self._threshold = math.exp(self._k)

    def decide(self, request: Request, context: PlatformContext) -> Decision:
        if self._threshold == 0.0:
            # Defensive: a simulator always calls reset(); direct users may not.
            self.reset(context)

        # Lines 4-7: big-value requests go to a random eligible inner worker.
        if request.value > self._threshold:
            inner = context.inner_candidates(request)
            if inner:
                if context.probe.enabled:
                    context.probe.count(
                        "ramcom_routes_total",
                        platform=context.platform_id,
                        route="inner_reserved",
                    )
                worker = context.rng.choice(inner)
                return Decision.serve_inner(worker)
            # No inner available: fall through to the cooperative path, as in
            # the paper's Example 3 (r_3 exceeds the threshold but is served
            # by an outer worker because every inner worker is busy).
            route = "inner_fallback"
        else:
            route = "cooperative"
        if context.probe.enabled:
            context.probe.count(
                "ramcom_routes_total",
                platform=context.platform_id,
                route=route,
            )

        # Lines 9-11: price via Definition 4.1, then run Algorithm 1's
        # offer loop (lines 13-26) at that payment.  A degraded exchange
        # shrinks (possibly empties) the candidate set; the reject path
        # keeps Def. 2.6 intact.
        outer = context.outer_candidates(request)
        if not outer:
            return Decision.reject()
        candidate_ids = [worker.worker_id for worker in outer]
        if context.probe.enabled:
            with context.probe.span(
                "pricer.quote",
                category="payment",
                tid=context.platform_id,
                request=request.request_id,
                candidates=len(candidate_ids),
            ) as span:
                pricer = context.pricer
                built = pricer.payments_built
                evaluated = pricer.payments_evaluated
                quote = pricer.quote(request.value, candidate_ids)
                span.annotate(
                    payment=quote.payment,
                    payments_built=pricer.payments_built - built,
                    payments_evaluated=pricer.payments_evaluated - evaluated,
                )
        else:
            quote = context.pricer.quote(request.value, candidate_ids)
        payment = quote.payment
        if payment > request.value or payment <= 0.0:
            return Decision.reject()

        return run_offer_loop(request, outer, payment, context)
