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

    For the array backend (docs/PERFORMANCE.md#the-array-backend) the
    snapshot also grows a *dense matrix form*: :meth:`matrix` lays the
    same candidate histories out as flat numpy arrays (per-candidate
    history segments, support bounds, normalisation denominators) for the
    vectorized kernel in :mod:`repro.core.payment_kernel`.
    """

    __slots__ = ("mode", "default_probability", "rows", "worker_ids", "array_cache")

    def __init__(
        self,
        mode: str,
        default_probability: float,
        rows: list[tuple[list[float] | None, int]],
        worker_ids: tuple[Hashable, ...] | None = None,
        array_cache: dict[Hashable, object] | None = None,
    ):
        self.mode = mode
        self.default_probability = default_probability
        self.rows = rows
        self.worker_ids = worker_ids
        self.array_cache = array_cache

    def matrix(self):
        """Struct-of-arrays form of the rows (requires numpy).

        Per-worker ndarray conversions are memoised in the owning
        estimator's ``array_cache`` (invalidated on history mutation) so
        repeated estimates over warm candidates never re-copy histories.
        """
        from repro.core.payment_kernel import build_matrix

        return build_matrix(
            self, array_cache=self.array_cache, worker_ids=self.worker_ids
        )

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
        #: Monotonic mutation counter — bumped by every history mutation.
        #: The array backend keys speculative batch results on it so a
        #: mid-batch ``record_completion`` invalidates them
        #: (docs/SERVICE.md#micro-batched-dispatch).
        self.version = 0
        #: Per-worker ndarray copies of the sorted histories, maintained
        #: lazily by the array backend (:mod:`repro.core.payment_kernel`)
        #: and dropped here on mutation.  Plain dict so this module stays
        #: numpy-free.
        self._array_cache: dict[Hashable, object] = {}
        #: Built CandidateMatrix per candidate-id tuple (array backend).
        #: Invalidated *per worker*: a mutation evicts exactly the
        #: matrices whose candidate set contains the mutated worker
        #: (tracked in ``_matrix_index``); matrices over untouched
        #: candidates stay warm across unrelated completions.
        self._matrix_cache: dict[tuple[Hashable, ...], object] = {}
        #: worker id -> matrix-cache keys that include the worker.
        self._matrix_index: dict[Hashable, set[tuple[Hashable, ...]]] = {}
        #: Per-worker mutation counters behind :meth:`history_signature`.
        self._worker_versions: dict[Hashable, int] = {}

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
        self._histories[worker_id] = sorted(float(v) for v in values)
        self._note_mutation(worker_id)

    def record_completion(
        self, worker_id: Hashable, payment: float, request_value: float
    ) -> None:
        """Append one completed cooperative request to a worker's history.

        Keeps the history sorted; used by the simulator's online-learning
        loop where histories grow as cooperative requests complete.
        """
        history = self._histories.setdefault(worker_id, [])
        bisect.insort(history, self._normalize(payment, request_value))
        self._note_mutation(worker_id)

    def _note_mutation(self, worker_id: Hashable) -> None:
        """Bump the version counters and evict exactly the cached arrays
        and matrices the mutated worker participates in."""
        self.version += 1
        versions = self._worker_versions
        versions[worker_id] = versions.get(worker_id, 0) + 1
        self._array_cache.pop(worker_id, None)
        keys = self._matrix_index.pop(worker_id, None)
        if not keys:
            return
        for key in keys:
            if self._matrix_cache.pop(key, None) is not None:
                for member in key:
                    if member != worker_id:
                        index = self._matrix_index.get(member)
                        if index is not None:
                            index.discard(key)
                            if not index:
                                del self._matrix_index[member]

    def history_signature(
        self, worker_ids: Sequence[Hashable]
    ) -> tuple[int, ...]:
        """Per-candidate mutation counters, aligned with ``worker_ids``.

        Two calls return equal signatures iff none of the candidates'
        histories changed in between — the precise validity condition
        for speculative estimates over that candidate set.  The
        global :attr:`version` is a conservative proxy (any mutation
        anywhere); the signature lets speculation survive completions
        that only touch *other* workers
        (docs/SERVICE.md#micro-batched-dispatch).
        """
        versions = self._worker_versions
        return tuple(versions.get(worker_id, 0) for worker_id in worker_ids)

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
        return AcceptanceSnapshot(
            self.mode,
            self.default_probability,
            rows,
            worker_ids=tuple(worker_ids),
            array_cache=self._array_cache,
        )

    def matrix(self, worker_ids: Sequence[Hashable]):
        """The candidates' :class:`~repro.core.payment_kernel.CandidateMatrix`,
        memoised per candidate-id tuple until the next history mutation.

        The array backend's hot path: repeated estimates over the same
        candidate set (the common case — the gateway's micro-batches
        and the benchmarks reuse candidate sets heavily) skip both the
        snapshot walk and the matrix build entirely.
        """
        key = tuple(worker_ids)
        cached = self._matrix_cache.get(key)
        if cached is not None:
            return cached
        if len(self._matrix_cache) >= 4096:
            # Unbounded candidate-set churn (e.g. adversarial workloads)
            # must not leak; matrices are cheap to rebuild.
            self._matrix_cache.clear()
            self._matrix_index.clear()
        built = self.snapshot(key).matrix()
        self._matrix_cache[key] = built
        for member in key:
            self._matrix_index.setdefault(member, set()).add(key)
        return built

    def __getstate__(self) -> dict:
        # The ndarray caches are lazily rebuilt accelerator structures;
        # dropping them keeps pickles (COMSNAP1 service snapshots, the
        # parallel runner's scenario copies) numpy-free and loadable on
        # hosts without the optional dependency.
        state = dict(self.__dict__)
        state["_array_cache"] = {}
        state["_matrix_cache"] = {}
        state["_matrix_index"] = {}
        return state

    def candidate_payments(
        self, worker_id: Hashable, request_value: float
    ) -> list[float]:
        """The payments at which this worker's estimated CDF steps, capped
        at ``request_value`` — the MER pricer's exact breakpoints."""
        history = self._histories.get(worker_id, [])
        if self.mode == "absolute":
            end = bisect.bisect_right(history, request_value)
            return history[:end]
        payments = []
        for rate in history:
            payment = rate * request_value
            if payment > request_value:
                break
            payments.append(payment)
        return payments

    def support(self, worker_id: Hashable) -> tuple[float, float] | None:
        """(min, max) of the worker's history entries, or None if empty."""
        history = self._histories.get(worker_id)
        if not history:
            return None
        return history[0], history[-1]
