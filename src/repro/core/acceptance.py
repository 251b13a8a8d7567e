"""Acceptance-probability estimation (Definition 3.1, Eq. 4).

The platform estimates a worker's probability of accepting payment ``v'``
for a request of value ``v_r`` as the fraction of the worker's completed
history at or below the offer.  Two reading modes of Eq. 4 are supported:

* ``"relative"`` (default) — histories store *payment rates* ``v'/v_r`` of
  past completed cooperative requests, and the estimate compares the
  offered rate against them.  This is the calibration under which the
  paper's measurements are mutually consistent: payment rates of ~0.70
  (DemCOM) / ~0.82 (RamCOM) of each request's value across all request
  sizes, with low/high acceptance respectively (see DESIGN.md §2).
* ``"absolute"`` — histories store raw values and the offer is compared
  directly (the literal reading of Eq. 4); provided for ablation.

The estimator pre-sorts each worker's history once so each query is a
binary search; DemCOM and Algorithm 2 issue thousands of queries per
request.
"""

from __future__ import annotations

import bisect
from collections.abc import Hashable, Sequence

from repro.errors import ConfigurationError

__all__ = ["AcceptanceEstimator", "AcceptanceSnapshot"]


class AcceptanceSnapshot:
    """A per-call view of candidate histories for the Algorithm-2 fast path.

    One :meth:`AcceptanceEstimator.snapshot` call materialises, for a fixed
    candidate list, everything :meth:`AcceptanceEstimator.probability` would
    look up per query — the sorted history list and its length per worker,
    plus the estimator's normalisation mode and cold-start default — so the
    Monte-Carlo/bisection loop of Algorithm 2 and the MER pricer's
    any-acceptance product can iterate over plain tuples with an inlined
    ``bisect`` instead of paying a dict lookup, a method call and a mode
    branch per (payment, worker) probe.

    ``rows`` is aligned with the ``worker_ids`` passed to ``snapshot()``:
    one ``(history, size)`` pair per candidate, where ``history`` is the
    estimator's *live* sorted list (not a copy) or ``None`` for a
    cold-start worker.  A snapshot is therefore only valid until the next
    history mutation (``record_completion`` / ``set_history``); the
    simulator never mutates histories inside a single decision, which is
    the window the fast path uses.
    """

    __slots__ = ("mode", "default_probability", "rows")

    def __init__(
        self,
        mode: str,
        default_probability: float,
        rows: list[tuple[list[float] | None, int]],
    ):
        self.mode = mode
        self.default_probability = default_probability
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def normalize(self, payment: float, request_value: float) -> float:
        """The offer in history space — ``payment/request_value`` in
        relative mode, ``payment`` in absolute mode (mirrors Eq. 4)."""
        if self.mode == "absolute":
            return payment
        if request_value <= 0:
            raise ConfigurationError(
                f"request_value must be positive, got {request_value}"
            )
        return payment / request_value

    def probabilities(
        self, payment: float, request_value: float
    ) -> list[float]:
        """Per-candidate Eq.-4 probabilities at ``payment`` (test seam;
        bit-identical to querying the estimator row by row)."""
        offer = self.normalize(payment, request_value)
        cold = self.default_probability if payment > 0 else 0.0
        bisect_right = bisect.bisect_right
        return [
            cold if history is None else bisect_right(history, offer) / size
            for history, size in self.rows
        ]


class AcceptanceEstimator:
    """Empirical-CDF acceptance estimates over worker histories.

    Parameters
    ----------
    default_probability:
        Returned for a worker with an *empty* history (a cold-start worker).
        The paper assumes N >= 1; a neutral 0.5 keeps cold-start workers
        reachable without making them free.
    mode:
        ``"relative"`` (histories hold payment rates) or ``"absolute"``
        (histories hold raw values).
    """

    def __init__(self, default_probability: float = 0.5, mode: str = "relative"):
        if not 0.0 <= default_probability <= 1.0:
            raise ConfigurationError(
                f"default_probability must be in [0, 1], got {default_probability}"
            )
        if mode not in ("relative", "absolute"):
            raise ConfigurationError(
                f"mode must be 'relative' or 'absolute', got {mode!r}"
            )
        self.default_probability = default_probability
        self.mode = mode
        self._histories: dict[Hashable, list[float]] = {}
        #: The list each worker was loaded with, possibly shared with
        #: reentry clones; never mutated (record_completion copies it).
        self._loaded: dict[Hashable, list[float]] = {}

    def _normalize(self, payment: float, request_value: float) -> float:
        if self.mode == "absolute":
            return payment
        if request_value <= 0:
            raise ConfigurationError(
                f"request_value must be positive, got {request_value}"
            )
        return payment / request_value

    def set_history(self, worker_id: Hashable, values: Sequence[float]) -> None:
        """Register (or replace) a worker's history (rates or raw values,
        matching the estimator's mode)."""
        history = sorted(map(float, values))
        self._histories[worker_id] = self._loaded[worker_id] = history

    def share_history(self, worker_id: Hashable, source_id: Hashable) -> bool:
        """Load ``worker_id`` with the very list ``source_id`` was loaded
        with — no copy, so reentry clones cost one reference each.

        Returns False (and loads nothing) when ``source_id`` was never
        loaded.  Growth made since by :meth:`record_completion` is not
        shared: that goes to a private copy.
        """
        history = self._loaded.get(source_id)
        if history is None:
            return False
        self._histories[worker_id] = self._loaded[worker_id] = history
        return True

    def record_completion(
        self, worker_id: Hashable, payment: float, request_value: float
    ) -> None:
        """Append one completed cooperative request to a worker's history.

        Keeps the history sorted; used by the simulator's online-learning
        loop where histories grow as cooperative requests complete.  The
        loaded list may be shared, so the first completion copies it.
        """
        history = self._histories.get(worker_id)
        if history is None:
            history = self._histories[worker_id] = []
        elif history is self._loaded.get(worker_id):
            history = self._histories[worker_id] = history.copy()
        bisect.insort(history, self._normalize(payment, request_value))

    def has_history(self, worker_id: Hashable) -> bool:
        """True iff the worker has at least one history entry."""
        return bool(self._histories.get(worker_id))

    def history_size(self, worker_id: Hashable) -> int:
        """N — the number of history entries for the worker."""
        return len(self._histories.get(worker_id, ()))

    def probability(
        self, payment: float, worker_id: Hashable, request_value: float
    ) -> float:
        """Eq. 4: ``pr(v', w) = N(history <= offer) / N``.

        Monotone non-decreasing in ``payment``; 0 below every history
        entry, 1 above all of them.
        """
        history = self._histories.get(worker_id)
        if not history:
            return self.default_probability if payment > 0 else 0.0
        offer = self._normalize(payment, request_value)
        return bisect.bisect_right(history, offer) / len(history)

    def snapshot(self, worker_ids: Sequence[Hashable]) -> AcceptanceSnapshot:
        """Materialise the candidates' histories once for a batch of
        probability queries (the Algorithm-2 / MER fast path).

        The returned rows alias the live history lists; see
        :class:`AcceptanceSnapshot` for the validity window.
        """
        histories = self._histories
        rows: list[tuple[list[float] | None, int]] = []
        for worker_id in worker_ids:
            history = histories.get(worker_id)
            if history:
                rows.append((history, len(history)))
            else:
                rows.append((None, 0))
        return AcceptanceSnapshot(self.mode, self.default_probability, rows)

    def support(self, worker_id: Hashable) -> tuple[float, float] | None:
        """(min, max) of the worker's history entries, or None if empty."""
        history = self._histories.get(worker_id)
        if not history:
            return None
        return history[0], history[-1]
