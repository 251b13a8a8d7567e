"""The online-algorithm protocol.

Each platform runs one :class:`OnlineAlgorithm` instance.  The simulator
delivers arrivals; on each request the algorithm returns a
:class:`Decision` — serve with an inner worker, serve with a borrowed outer
worker at some payment, or reject.  The algorithm sees the world only
through its :class:`PlatformContext`:

* eligible inner/outer candidates (the exchange's shared availability view),
* the Eq.-4 acceptance estimator and the incentive machinery
  (Algorithm 2 / the MER pricer),
* a live *offer channel* to outer workers (the behaviour oracle) — the
  algorithm never sees reservations, only accept/reject answers,
* its own deterministic RNG stream.

This keeps the algorithms pure decision logic; all state mutation
(claiming workers, ledger updates, metric timing) happens in the simulator.
"""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.behavior.worker_model import BehaviorOracle
from repro.core.entities import Request, Worker
from repro.core.exchange import CooperationExchange
from repro.core.acceptance import AcceptanceEstimator
from repro.core.payment import MinimumOuterPaymentEstimator
from repro.core.pricing import MaximumExpectedRevenuePricer
from repro.analysis.sanitizer import ConstraintSanitizer
from repro.errors import ExchangeUnavailableError
from repro.obs import NULL_PROBE, Probe
from repro.utils.timer import Stopwatch

__all__ = [
    "DecisionKind",
    "Decision",
    "PlatformContext",
    "OnlineAlgorithm",
    "run_offer_loop",
]


class DecisionKind(enum.Enum):
    """The possible outcomes for an incoming request.

    DEFER is the batching extension: the request is parked and the
    simulator later asks the algorithm to flush it (the paper's model
    decides immediately; see :class:`repro.baselines.batch.BatchMatching`).
    """

    SERVE_INNER = "serve_inner"
    SERVE_OUTER = "serve_outer"
    REJECT = "reject"
    DEFER = "defer"


@dataclass(frozen=True, slots=True)
class Decision:
    """An algorithm's answer for one request.

    ``cooperative_attempt`` marks requests for which the algorithm extended
    live offers to outer workers (whether or not anyone accepted); it is the
    denominator of the paper's acceptance-ratio metric |AcpRt|.
    """

    kind: DecisionKind
    worker: Worker | None = None
    payment: float = 0.0
    cooperative_attempt: bool = False
    offers_made: int = 0

    @classmethod
    def serve_inner(cls, worker: Worker) -> "Decision":
        """Serve with an inner worker (full value to the platform)."""
        return cls(kind=DecisionKind.SERVE_INNER, worker=worker)

    @classmethod
    def serve_outer(
        cls, worker: Worker, payment: float, offers_made: int
    ) -> "Decision":
        """Serve with a borrowed worker at ``payment``."""
        return cls(
            kind=DecisionKind.SERVE_OUTER,
            worker=worker,
            payment=payment,
            cooperative_attempt=True,
            offers_made=offers_made,
        )

    @classmethod
    def reject(
        cls, cooperative_attempt: bool = False, offers_made: int = 0
    ) -> "Decision":
        """Reject the request."""
        return cls(
            kind=DecisionKind.REJECT,
            cooperative_attempt=cooperative_attempt,
            offers_made=offers_made,
        )

    @classmethod
    def defer(cls) -> "Decision":
        """Park the request for a later batch flush (extension)."""
        return cls(kind=DecisionKind.DEFER)


@dataclass
class PlatformContext:
    """Everything one platform's algorithm may consult.

    Attributes
    ----------
    platform_id:
        The platform this context belongs to.
    exchange:
        Shared availability state (inner list + outer candidates).
    acceptance:
        Eq.-4 estimator over worker histories.
    payment_estimator:
        Algorithm 2 (minimum outer payment).
    pricer:
        The MER pricer (Definition 4.1) used by RamCOM.
    oracle:
        Live offer channel; answers accept/reject per (worker, request,
        payment) deterministically in the experiment seed.
    rng:
        The algorithm's private random stream.
    value_upper_bound:
        Known bound on request values (``max(v_r)``); both RamCOM's
        threshold and Greedy-RT need it, as in the paper's analysis.
    cooperation_enabled:
        When False the exchange exposes no outer candidates (TOTA mode and
        the no-cooperation ablation).
    probe:
        Telemetry hook (:mod:`repro.obs`); the no-op default makes the
        instrumented candidate queries free when telemetry is off.
    sanitizer:
        Runtime constraint sanitizer (:mod:`repro.analysis`); ``None``
        (the default) keeps the offer loop's disabled path to a single
        ``is None`` check per offer.
    """

    platform_id: str
    exchange: CooperationExchange
    acceptance: AcceptanceEstimator
    payment_estimator: MinimumOuterPaymentEstimator
    pricer: MaximumExpectedRevenuePricer
    oracle: BehaviorOracle
    rng: random.Random
    value_upper_bound: float
    cooperation_enabled: bool = True
    probe: Probe = NULL_PROBE
    sanitizer: "ConstraintSanitizer | None" = None

    def inner_candidates(self, request: Request) -> list[Worker]:
        """Eligible inner workers, nearest first."""
        if not self.probe.enabled:
            return self.exchange.inner_candidates(self.platform_id, request)
        with self.probe.span(
            "candidates.inner", tid=self.platform_id, request=request.request_id
        ) as span:
            workers = self.exchange.inner_candidates(self.platform_id, request)
            span.annotate(count=len(workers))
        self.probe.observe(
            "candidate_count", len(workers), platform=self.platform_id, side="inner"
        )
        return workers

    def outer_candidates(self, request: Request) -> list[Worker]:
        """Eligible shareable outer workers, nearest first.

        Degraded mode: when the resilience layer reports the exchange (or
        every peer) unreachable, this returns ``[]`` — the algorithm falls
        back to inner-only matching, which trivially preserves the
        Definition-2.6 constraints (the candidate set only shrinks).
        """
        if not self.cooperation_enabled:
            return []
        if not self.probe.enabled:
            try:
                return self.exchange.outer_candidates(self.platform_id, request)
            except ExchangeUnavailableError:
                return []
        with self.probe.span(
            "candidates.outer", tid=self.platform_id, request=request.request_id
        ) as span:
            watch = Stopwatch().start()
            try:
                workers = self.exchange.outer_candidates(self.platform_id, request)
                outcome = "ok"
            except ExchangeUnavailableError:
                workers = []
                outcome = "unavailable"
            elapsed = watch.stop()
            span.annotate(count=len(workers), outcome=outcome)
        self.probe.observe(
            "exchange_rpc_seconds",
            elapsed,
            platform=self.platform_id,
            peer="exchange",
            outcome=outcome,
        )
        self.probe.observe(
            "candidate_count", len(workers), platform=self.platform_id, side="outer"
        )
        return workers


def run_offer_loop(
    request: Request,
    candidates: list[Worker],
    payment: float,
    context: PlatformContext,
) -> Decision:
    """Algorithm 1, lines 15-26: live offers at ``payment``, nearest first.

    Shared by DemCOM and RamCOM (they differ only in how the payment is
    chosen).  Returns SERVE_OUTER for the nearest accepting worker, or a
    cooperative REJECT when everyone declines.
    """
    probe = context.probe
    span = (
        probe.span(
            "offer_loop",
            tid=context.platform_id,
            request=request.request_id,
            payment=payment,
            candidates=len(candidates),
        )
        if probe.enabled
        else None
    )
    offers_made = 0
    accepted: Worker | None = None
    sanitizer = context.sanitizer
    for worker in candidates:
        if sanitizer is not None:
            # Offers may only reach eligible shareable outer workers at a
            # payment within (0, v_r] — validated before the offer goes out.
            sanitizer.check_offer(request, worker, payment, context.platform_id)
        offers_made += 1
        if context.oracle.offer(
            worker.worker_id, request.request_id, payment, request.value
        ):
            accepted = worker
            break
    if probe.enabled and span is not None:
        span.annotate(
            offers_made=offers_made,
            outcome="accepted" if accepted is not None else "declined",
        )
        span.end()
        probe.count(
            "offers_total",
            offers_made,
            platform=context.platform_id,
            outcome="accepted" if accepted is not None else "declined",
        )
    if accepted is not None:
        return Decision.serve_outer(accepted, payment, offers_made)
    return Decision.reject(cooperative_attempt=True, offers_made=offers_made)


class OnlineAlgorithm(ABC):
    """Base class for all online matching algorithms."""

    #: Registry / reporting name; subclasses override.
    name: str = "abstract"

    def on_worker_arrival(self, worker: Worker, context: PlatformContext) -> None:
        """Hook called when a worker joins this platform's waiting list.

        The default does nothing; stateful algorithms (e.g. RANKING's
        random priorities) override it.
        """

    @abstractmethod
    def decide(self, request: Request, context: PlatformContext) -> Decision:
        """Decide the fate of one incoming request, immediately."""

    def flush(
        self, time: float, context: PlatformContext
    ) -> list[tuple[Request, Decision]]:
        """Resolve deferred requests up to ``time`` (batching extension).

        Called by the simulator before each subsequent event and once with
        ``time = inf`` at end of stream.  Returned decisions must not be
        DEFER.  The default (for immediate-decision algorithms) is empty.
        """
        return []

    def reset(self, context: PlatformContext) -> None:
        """Re-initialise per-run state (e.g. RamCOM's threshold draw)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
