"""DemCOM — Deterministic Cross Online Matching (Algorithm 1).

Greedy revenue-first strategy:

1. an incoming request is served by the *nearest eligible inner* worker if
   one exists (full value ``v_r`` to the platform);
2. otherwise the minimum outer payment ``v'_r`` is estimated with
   Algorithm 2 (:class:`~repro.core.payment.MinimumOuterPaymentEstimator`);
3. if ``v'_r > v_r`` the request is rejected (serving it would lose money);
4. otherwise a live offer at ``v'_r`` goes to every eligible outer worker;
   the request is assigned to the nearest accepting worker, or rejected if
   everyone declines.

Per the paper's Theorem 1, DemCOM's adversarial competitive ratio is
unbounded and its random-order ratio equals the plain greedy TOTA
algorithm's; its weakness (minimum payments attract few outer workers —
observed acceptance ratio around 0.16) motivates RamCOM.
"""

from __future__ import annotations

from repro.core.base import (
    Decision,
    OnlineAlgorithm,
    PlatformContext,
    run_offer_loop,
)
from repro.core.entities import Request

__all__ = ["DemCOM"]


class DemCOM(OnlineAlgorithm):
    """Algorithm 1 of the paper."""

    name = "DemCOM"

    def decide(self, request: Request, context: PlatformContext) -> Decision:
        # Lines 3-6: inner workers have absolute priority; pick the nearest.
        inner = context.inner_candidates(request)
        if inner:
            return Decision.serve_inner(inner[0])

        # Line 8: the eligible outer candidate set W^r_out.  Under the
        # resilience layer this set may be reduced (or empty) while the
        # exchange is degraded; the inner-first / reject structure below
        # is unchanged, so Def. 2.6 holds in degraded mode too.
        outer = context.outer_candidates(request)
        if not outer:
            return Decision.reject()  # lines 9-10

        # Line 12: Algorithm 2 estimates the minimum outer payment.
        candidate_ids = [worker.worker_id for worker in outer]
        estimate = context.payment_estimator.estimate(
            request.value, candidate_ids, context.rng, probe=context.probe
        )
        payment = estimate.payment
        if payment > request.value:
            # Lines 13-14: the platform would lose money; no offers are made.
            if context.probe.enabled:
                context.probe.count(
                    "payment_rejections_total", platform=context.platform_id
                )
            return Decision.reject()

        # Lines 15-26: live offers at v'_r; nearest accepting worker wins
        # (line 22's greedy pick).
        return run_offer_loop(request, outer, payment, context)
