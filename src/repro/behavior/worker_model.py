"""Per-worker ground-truth behaviour and the shared behaviour oracle.

Central invariant: the realized reservation of worker ``w`` for request
``r`` is a *deterministic function* of ``(experiment seed, w, r)``.  Every
consumer — DemCOM's live offers, RamCOM's live offers, and the offline
oracle OFF — therefore observes exactly the same randomness, which is what
makes "OFF >= any online algorithm" a true invariant (tested property) and
the competitive-ratio experiments meaningful.

Like the Eq.-4 estimator, the oracle supports two modes:

* ``"relative"`` (default) — reservation draws are *payment rates*: the
  worker accepts payment ``v'`` for request ``r`` iff ``v'/v_r >= rho``;
* ``"absolute"`` — draws are raw prices: accept iff ``v' >= rho``.

See DESIGN.md §2 for why the relative calibration is the one that
reproduces the paper's measured incentive behaviour.
"""

from __future__ import annotations

import math
from collections.abc import Hashable

from repro.behavior.distributions import ReservationDistribution
from repro.errors import ConfigurationError
from repro.utils.rng import derive_uniform

__all__ = ["WorkerBehavior", "BehaviorOracle"]


class WorkerBehavior:
    """The latent behaviour of one worker.

    Parameters
    ----------
    worker_id:
        The worker's globally unique id.
    distribution:
        The worker's reservation distribution (rates in relative mode).
    history:
        The platform-visible completed-request entries (what Eq. 4 sees).
    """

    __slots__ = ("worker_id", "distribution", "history")

    def __init__(
        self,
        worker_id: Hashable,
        distribution: ReservationDistribution,
        history: list[float],
    ):
        self.worker_id = worker_id
        self.distribution = distribution
        self.history = list(history)


class BehaviorOracle:
    """Realizes reservation draws deterministically per (worker, request).

    ``reservation(w, r)`` is a pure function of the oracle seed and the two
    ids; calling it twice — or from two different algorithms — returns the
    same value.  ``offer`` answers a live payment offer against that draw.
    """

    def __init__(self, seed: int, mode: str = "relative"):
        if mode not in ("relative", "absolute"):
            raise ConfigurationError(
                f"mode must be 'relative' or 'absolute', got {mode!r}"
            )
        self.seed = int(seed)
        self.mode = mode
        self._behaviors: dict[Hashable, WorkerBehavior] = {}

    def register(self, behavior: WorkerBehavior) -> None:
        """Register one worker's behaviour (id must be unique)."""
        if behavior.worker_id in self._behaviors:
            raise ConfigurationError(
                f"duplicate worker behaviour for {behavior.worker_id!r}"
            )
        self._behaviors[behavior.worker_id] = behavior

    def behavior_of(self, worker_id: Hashable) -> WorkerBehavior:
        """Look up a worker's behaviour (reentry clones resolve to base)."""
        return self._resolve(worker_id)[0]

    def _resolve(self, worker_id: Hashable) -> tuple[WorkerBehavior, Hashable]:
        """A worker's behaviour and the base id its draws are labelled
        with; a reentry clone resolves to its base worker for both."""
        behavior = self._behaviors.get(worker_id)
        base_id = worker_id
        if isinstance(worker_id, str) and "@reentry" in worker_id:
            base_id = worker_id.split("@reentry", 1)[0]
            if behavior is None:
                behavior = self._behaviors.get(base_id)
        if behavior is None:
            raise ConfigurationError(
                f"no behaviour registered for worker {worker_id!r}; every "
                "worker that can receive offers must be registered with the "
                "oracle (workload generators do this automatically)"
            )
        return behavior, base_id

    def __contains__(self, worker_id: Hashable) -> bool:
        return worker_id in self._behaviors

    def __len__(self) -> int:
        return len(self._behaviors)

    def reservation(self, worker_id: Hashable, request_id: Hashable) -> float:
        """The realized reservation draw of ``worker`` for ``request``.

        A payment *rate* in relative mode, a raw price in absolute mode.
        Deterministic in (seed, base worker id, request id), so reentry
        clones share the base worker's draw and every algorithm sees
        identical randomness.
        """
        behavior, base_id = self._resolve(worker_id)
        return self._draw(behavior, base_id, request_id)

    def _draw(
        self, behavior: WorkerBehavior, base_id: Hashable, request_id: Hashable
    ) -> float:
        # Inverse-transform sampling from one hashed uniform per draw: no
        # generator state exists, so a draw that is skipped changes no
        # other draw.
        u = derive_uniform(self.seed, f"reservation/{base_id}/{request_id}")
        return behavior.distribution.quantile(u)

    def reservation_price(
        self, worker_id: Hashable, request_id: Hashable, request_value: float
    ) -> float:
        """The realized reservation as an absolute price (what OFF pays)."""
        draw = self.reservation(worker_id, request_id)
        if self.mode == "relative":
            return draw * request_value
        return draw

    def offer(
        self,
        worker_id: Hashable,
        request_id: Hashable,
        payment: float,
        request_value: float,
    ) -> bool:
        """Answer a live offer: accept iff it clears the realized draw.

        The answer is ``payment >= reservation_price(...) - 1e-12``, but
        the draw is made only when the worker's reservation support leaves
        it open.  Every draw lies in the distribution's
        :meth:`~repro.behavior.distributions.ReservationDistribution.draw_bounds`
        ``[low, high]``; scaling by a finite ``request_value > 0`` (relative
        mode) and subtracting the tolerance both round monotonically, so a
        payment below ``low * v - 1e-12`` is rejected and one at or above
        ``high * v - 1e-12`` is accepted by every possible draw.  Each
        draw is the quantile of its own hashed uniform of (seed, base
        worker id, request id), so skipping one changes no other draw,
        and the answer is bit-identical to drawing
        (docs/PERFORMANCE.md#draw-free-offer-decisions).
        """
        behavior, base_id = self._resolve(worker_id)
        low, high = behavior.distribution.draw_bounds()
        # Absolute mode compares raw prices: ``x * 1.0 == x`` exactly.
        scale = request_value if self.mode == "relative" else 1.0
        if 0.0 < scale < math.inf:
            if payment < low * scale - 1e-12:
                return False
            if payment >= high * scale - 1e-12:
                return True
        draw = self._draw(behavior, base_id, request_id)
        return payment >= draw * scale - 1e-12

    def history_of(self, worker_id: Hashable) -> list[float]:
        """The platform-visible history entries for Eq. 4."""
        return self.behavior_of(worker_id).history
