"""Matchings and revenue accounting (Definition 2.5).

A :class:`MatchRecord` captures one assignment: which request, which worker,
inner or outer, and — for outer assignments — the payment made to the
lender.  The :class:`MatchingLedger` accumulates records for one platform
and exposes the revenue decomposition of Eq. 1:

    Rev = Rev_in + Rev_out = sum(v_r) + sum(v_r - v'_r).

The lender side (``lender_income``) is also tracked per counterparty so the
"win-win" claim of the paper's Example 1 is directly observable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.entities import Request, Worker
from repro.errors import ConfigurationError, SimulationError

__all__ = ["AssignmentKind", "MatchRecord", "MatchingLedger"]


class AssignmentKind(enum.Enum):
    """Whether a request was served by an inner or a borrowed worker."""

    INNER = "inner"
    OUTER = "outer"


@dataclass(frozen=True, slots=True)
class MatchRecord:
    """One completed assignment.

    Attributes
    ----------
    request, worker:
        The matched pair.
    kind:
        INNER (worker's home platform == request's platform) or OUTER.
    payment:
        The outer payment ``v'_r`` (0.0 for inner assignments).
    decision_time:
        Wall-clock-free logical time of the decision (the request's arrival
        time; COM decides immediately).
    pickup_distance:
        Worker-to-request distance at assignment (km); feeds the
        travel-distance extension metrics.
    """

    request: Request
    worker: Worker
    kind: AssignmentKind
    payment: float = 0.0
    decision_time: float = 0.0
    pickup_distance: float = 0.0

    def __reduce__(self):
        # Positional: pickling skips dataclasses' per-object __getstate__.
        return (
            MatchRecord,
            (
                self.request,
                self.worker,
                self.kind,
                self.payment,
                self.decision_time,
                self.pickup_distance,
            ),
        )

    def __post_init__(self) -> None:
        if self.kind is AssignmentKind.INNER and self.payment != 0.0:
            raise ConfigurationError("inner assignments carry no outer payment")
        if self.kind is AssignmentKind.OUTER:
            if not 0.0 < self.payment <= self.request.value + 1e-9:
                raise ConfigurationError(
                    f"outer payment must be in (0, v_r], got {self.payment} "
                    f"for value {self.request.value}"
                )

    @property
    def platform_revenue(self) -> float:
        """Definition 2.5: ``v_r`` inner, ``v_r - v'_r`` outer."""
        if self.kind is AssignmentKind.INNER:
            return self.request.value
        return self.request.value - self.payment


class MatchingLedger:
    """Accumulates one platform's assignments and rejections."""

    def __init__(self, platform_id: str):
        self.platform_id = platform_id
        self.records: list[MatchRecord] = []
        self.rejected: list[Request] = []
        #: income earned by this platform's workers serving *other*
        #: platforms' requests, keyed by borrower platform id.
        self.lender_income: dict[str, float] = {}
        self._matched_requests: set[str] = set()
        self._matched_workers: set[str] = set()

    # -- recording -----------------------------------------------------------

    def record(self, record: MatchRecord) -> None:
        """Record an assignment; enforces the 1-by-1 constraint eagerly."""
        request_id = record.request.request_id
        worker_id = record.worker.worker_id
        if request_id in self._matched_requests:
            raise SimulationError(f"request {request_id} matched twice")
        if worker_id in self._matched_workers:
            raise SimulationError(f"worker {worker_id} matched twice")
        self._matched_requests.add(request_id)
        self._matched_workers.add(worker_id)
        self.records.append(record)

    def record_rejection(self, request: Request) -> None:
        """Record a rejected request."""
        if request.request_id in self._matched_requests:
            raise SimulationError(
                f"request {request.request_id} both matched and rejected"
            )
        self.rejected.append(request)

    def record_lender_income(self, borrower_platform: str, payment: float) -> None:
        """Credit payment received for lending a worker to ``borrower``."""
        self.lender_income[borrower_platform] = (
            self.lender_income.get(borrower_platform, 0.0) + payment
        )

    # -- Definition 2.5 accounting --------------------------------------------

    @property
    def revenue_inner(self) -> float:
        """``Rev_in`` — total value of requests served by inner workers."""
        return sum(
            record.request.value
            for record in self.records
            if record.kind is AssignmentKind.INNER
        )

    @property
    def revenue_outer(self) -> float:
        """``Rev_out`` — total ``v_r - v'_r`` over borrowed assignments."""
        return sum(
            record.platform_revenue
            for record in self.records
            if record.kind is AssignmentKind.OUTER
        )

    @property
    def revenue(self) -> float:
        """``Rev = Rev_in + Rev_out`` (Eq. 1)."""
        return self.revenue_inner + self.revenue_outer

    @property
    def total_lender_income(self) -> float:
        """Everything earned by lending workers out."""
        return sum(self.lender_income.values())

    # -- counters used by the paper's tables ----------------------------------

    @property
    def completed_requests(self) -> int:
        """|CpR| — requests of this platform that were served."""
        return len(self.records)

    @property
    def cooperative_requests(self) -> int:
        """|CoR| — requests served by borrowed (outer) workers."""
        return sum(
            1 for record in self.records if record.kind is AssignmentKind.OUTER
        )

    @property
    def rejected_requests(self) -> int:
        """Requests this platform rejected."""
        return len(self.rejected)

    def outer_payment_rates(self) -> list[float]:
        """``v'_r / v_r`` for every cooperative assignment."""
        return [
            record.payment / record.request.value
            for record in self.records
            if record.kind is AssignmentKind.OUTER
        ]

    def mean_pickup_distance(self) -> float:
        """Average worker-to-request distance (travel-aware extension)."""
        if not self.records:
            return 0.0
        return sum(record.pickup_distance for record in self.records) / len(
            self.records
        )
