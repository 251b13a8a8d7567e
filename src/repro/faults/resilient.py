"""Retry, circuit-breaking and degraded-mode wrapper around the exchange.

:class:`ResilientExchange` duck-types :class:`repro.core.exchange.
CooperationExchange` so the simulator, the :class:`PlatformContext` and
every algorithm keep working unchanged, while the cross-platform calls —
``outer_candidates`` and outer ``claim`` — go through a fault-aware path:

* **Outages / delays.**  Each peer probe first consults the
  :class:`~repro.faults.injector.FaultInjector`; a peer in an outage
  window, or whose cooperation message is delayed beyond the retry
  policy's call timeout, is dropped from the candidate view and counts
  as a failure on the per-peer circuit breaker.
* **Circuit breaker (degraded mode).**  After ``failure_threshold``
  consecutive failures a peer's breaker trips open: the peer is skipped
  without probing until ``reset_timeout_s`` of sim-time has passed, then
  a half-open probe re-tests the link (success closes the breaker,
  failure re-opens it).  When *no* peer is reachable the wrapper raises
  :class:`~repro.errors.ExchangeUnavailableError` and the platform falls
  back to inner-only matching — the COM constraints (Def. 2.6) still
  hold because degraded mode only ever *shrinks* the candidate set.
* **Claims.**  Outer claims may transiently fail (lost-claim race); the
  wrapper retries with exponential backoff and jitter, in sim-time, up
  to ``max_attempts``.  Exhausted retries, or a worker dropping out
  mid-assignment, raise :class:`~repro.errors.ClaimConflictError`; the
  simulator rejects the request and the worker-removal invariant is
  untouched (a worker is removed from all waiting lists exactly once).

With a zero-fault plan no injector stream is consulted and every call is
a plain delegation — simulations stay bit-identical to the unwrapped
exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.errors import ClaimConflictError, ExchangeUnavailableError
from repro.faults.injector import FaultInjector
from repro.faults.plan import CircuitBreakerConfig, RetryPolicy
from repro.obs import NULL_PROBE, Probe

if TYPE_CHECKING:  # avoid importing core at runtime (layering)
    from repro.core.entities import Request, Worker
    from repro.core.exchange import CooperationExchange
    from repro.core.waiting_list import WaitingList

__all__ = ["ResilienceStats", "CircuitBreaker", "ResilientExchange"]


@dataclass
class ResilienceStats:
    """Failure accounting for one platform in one run."""

    #: Sim-seconds this platform's exchange link was down.
    outage_seconds: float = 0.0
    #: Claim attempts that transiently failed and were retried.
    retries: int = 0
    #: Sim-seconds spent backing off between retries.
    retry_backoff_seconds: float = 0.0
    #: Claims abandoned after exhausting every retry.
    failed_claims: int = 0
    #: Requests decided with a reduced (or empty) cooperative view.
    degraded_decisions: int = 0
    #: Workers lost to mid-assignment dropout while this platform claimed.
    dropped_workers: int = 0
    #: Times one of this platform's per-peer breakers tripped open.
    breaker_trips: int = 0
    #: Cooperation messages that arrived late (within or past timeout).
    delayed_messages: int = 0

    def as_dict(self) -> dict[str, float]:
        """JSON-ready view (used by reporting)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "ResilienceStats") -> "ResilienceStats":
        """Sum two stats (aggregation across platforms)."""
        merged = ResilienceStats()
        for f in fields(self):
            setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        return merged


class CircuitBreaker:
    """A per-peer breaker over sim-time.

    States: ``closed`` (healthy), ``open`` (peer skipped), ``half_open``
    (one probe allowed after the reset timeout).
    """

    __slots__ = ("config", "state", "failures", "opened_at")

    def __init__(self, config: CircuitBreakerConfig):
        self.config = config
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0

    def allows(self, now: float) -> bool:
        """Whether a call to the peer may proceed at ``now``."""
        if self.state == "open":
            if now - self.opened_at >= self.config.reset_timeout_s:
                self.state = "half_open"
                return True
            return False
        return True

    def record_success(self, now: float) -> None:
        """A call to the peer succeeded; heal the breaker."""
        self.failures = 0
        self.state = "closed"

    def record_failure(self, now: float) -> bool:
        """A call failed; returns True when this failure trips the breaker."""
        if self.state == "half_open":
            self.state = "open"
            self.opened_at = now
            return True
        self.failures += 1
        if self.state == "closed" and self.failures >= self.config.failure_threshold:
            self.state = "open"
            self.opened_at = now
            return True
        return False


class ResilientExchange:
    """Fault-aware façade over a :class:`CooperationExchange`."""

    def __init__(
        self,
        exchange: "CooperationExchange",
        injector: FaultInjector,
        retry_policy: RetryPolicy | None = None,
        breaker_config: CircuitBreakerConfig | None = None,
        probe: Probe = NULL_PROBE,
    ):
        self._inner = exchange
        self._injector = injector
        self._policy = retry_policy or RetryPolicy()
        self._breaker_config = breaker_config or CircuitBreakerConfig()
        self._probe = probe
        self._now = 0.0
        self._stats: dict[str, ResilienceStats] = {
            platform_id: ResilienceStats() for platform_id in exchange.platform_ids
        }
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}

    # -- plumbing -------------------------------------------------------------

    def advance_to(self, time: float) -> None:
        """Move the wrapper's sim clock forward (never backward)."""
        if time > self._now:
            self._now = time

    def stats_for(self, platform_id: str) -> ResilienceStats:
        """One platform's failure counters."""
        return self._stats[platform_id]

    def finalize(self, horizon: float) -> None:
        """Fill per-platform outage totals once the run's horizon is known."""
        for platform_id, stats in self._stats.items():
            stats.outage_seconds = self._injector.outage_seconds(
                platform_id, horizon
            )

    def breaker_state(self, platform_id: str, peer_id: str) -> str:
        """The breaker state on the ``platform -> peer`` link (debugging)."""
        breaker = self._breakers.get((platform_id, peer_id))
        return breaker.state if breaker is not None else "closed"

    def _breaker(self, platform_id: str, peer_id: str) -> CircuitBreaker:
        key = (platform_id, peer_id)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self._breaker_config)
            self._breakers[key] = breaker
        return breaker

    def _record_failure(
        self,
        breaker: CircuitBreaker,
        stats: ResilienceStats,
        platform_id: str = "",
        peer_id: str = "",
    ) -> None:
        if breaker.record_failure(self._now):
            stats.breaker_trips += 1
            if self._probe.enabled:
                self._probe.instant(
                    "breaker.open",
                    category="faults",
                    tid=platform_id,
                    peer=peer_id,
                )
                self._probe.count(
                    "breaker_trips_total", platform=platform_id, peer=peer_id
                )

    # -- transparent delegations ----------------------------------------------

    @property
    def platform_ids(self) -> list[str]:
        """The cooperating platforms."""
        return self._inner.platform_ids

    def inner_list(self, platform_id: str) -> "WaitingList":
        """The platform's own waiting list (local; never fails)."""
        return self._inner.inner_list(platform_id)

    def worker_arrives(self, worker: "Worker") -> None:
        """Register a worker arrival (local; never fails)."""
        self._inner.worker_arrives(worker)

    def inner_candidates(
        self, platform_id: str, request: "Request"
    ) -> list["Worker"]:
        """Eligible inner workers (local; never fails)."""
        return self._inner.inner_candidates(platform_id, request)

    def is_available(self, worker_id: str) -> bool:
        """True iff the worker is still waiting somewhere."""
        return self._inner.is_available(worker_id)

    def available_count(self, platform_id: str | None = None) -> int:
        """Waiting workers on one platform or overall."""
        return self._inner.available_count(platform_id)

    def home_of(self, worker_id: str) -> str | None:
        """The worker's home platform, if still waiting."""
        return self._inner.home_of(worker_id)

    def evict(self, worker_id: str) -> "Worker":
        """Administrative removal (shift end); bypasses fault injection."""
        return self._inner.evict(worker_id)

    # -- fault-aware cross-platform calls -------------------------------------

    def outer_candidates(
        self, platform_id: str, request: "Request"
    ) -> list["Worker"]:
        """Eligible shareable outer workers across *reachable* peers.

        Raises :class:`ExchangeUnavailableError` when the platform's own
        link is down or every peer is unreachable (degraded mode).
        """
        if not self._injector.active:
            return self._inner.outer_candidates(platform_id, request)

        now = self._now
        stats = self._stats[platform_id]
        if self._injector.outage_active(platform_id, now):
            # Our own link to the exchange is down: no cooperative view.
            stats.degraded_decisions += 1
            if self._probe.enabled:
                self._probe.count(
                    "degraded_decisions_total", platform=platform_id
                )
                self._probe.instant(
                    "exchange.outage", category="faults", tid=platform_id
                )
            raise ExchangeUnavailableError(
                "platform link to the cooperation exchange is down",
                time=now,
                platform_id=platform_id,
                request_id=request.request_id,
            )

        probe = self._probe
        reachable: list[str] = []
        skipped = 0
        for peer_id in self._inner.platform_ids:
            if peer_id == platform_id:
                continue
            breaker = self._breaker(platform_id, peer_id)
            if not breaker.allows(now):
                skipped += 1
                if probe.enabled:
                    probe.count(
                        "peer_probes_total",
                        platform=platform_id,
                        peer=peer_id,
                        outcome="breaker_open",
                    )
                continue
            if self._injector.outage_active(peer_id, now):
                skipped += 1
                self._record_failure(breaker, stats, platform_id, peer_id)
                if probe.enabled:
                    # An RPC into an outage burns the whole call budget.
                    probe.observe(
                        "exchange_rpc_seconds",
                        self._policy.call_timeout_s,
                        platform=platform_id,
                        peer=peer_id,
                        outcome="outage",
                    )
                continue
            delay = self._injector.message_delay(
                platform_id, peer_id, request.request_id
            )
            if delay > 0.0:
                stats.delayed_messages += 1
            if delay > self._policy.call_timeout_s:
                skipped += 1
                self._record_failure(breaker, stats, platform_id, peer_id)
                if probe.enabled:
                    probe.observe(
                        "exchange_rpc_seconds",
                        delay,
                        platform=platform_id,
                        peer=peer_id,
                        outcome="timeout",
                    )
                continue
            healed = breaker.state == "half_open"
            breaker.record_success(now)
            if probe.enabled:
                probe.observe(
                    "exchange_rpc_seconds",
                    delay,
                    platform=platform_id,
                    peer=peer_id,
                    outcome="ok",
                )
                if healed:
                    probe.instant(
                        "breaker.close",
                        category="faults",
                        tid=platform_id,
                        peer=peer_id,
                    )
            reachable.append(peer_id)

        if skipped:
            stats.degraded_decisions += 1
            if probe.enabled:
                probe.count("degraded_decisions_total", platform=platform_id)
        if not reachable and skipped:
            raise ExchangeUnavailableError(
                "no cooperating peer is reachable",
                time=now,
                platform_id=platform_id,
                request_id=request.request_id,
            )
        return self._inner.outer_candidates(platform_id, request, peers=reachable)

    def claim(self, worker_id: str, claimant: str | None = None) -> "Worker":
        """Claim a worker, riding out transient failures.

        ``claimant`` is the platform performing the assignment (failure
        accounting and the circuit breaker attribute faults to it); when
        omitted, faults are attributed to the worker's home platform.
        """
        if not self._injector.active:
            return self._inner.claim(worker_id)

        home = self._inner.home_of(worker_id)
        owner = claimant if claimant is not None else home
        stats = self._stats.get(owner or "", None)
        outer = home is not None and claimant is not None and claimant != home
        breaker = (
            self._breaker(claimant, home) if outer and home is not None else None
        )

        probe = self._probe
        if home is not None and self._injector.worker_drops_out(worker_id):
            # The worker is gone for good: remove them from every list
            # (exactly once) and fail the assignment.
            self._inner.claim(worker_id)
            if stats is not None:
                stats.dropped_workers += 1
            if breaker is not None:
                self._record_failure(breaker, stats, claimant or "", home or "")
            if probe.enabled:
                probe.instant(
                    "claim.dropout",
                    category="faults",
                    tid=owner or "",
                    worker=worker_id,
                )
                probe.count(
                    "claims_total", platform=owner or "", outcome="dropout"
                )
            raise ClaimConflictError(
                "worker dropped out mid-assignment",
                time=self._now,
                platform_id=owner,
                worker_id=worker_id,
            )

        attempt = 0
        while outer and self._injector.claim_fails(worker_id):
            attempt += 1
            if attempt >= self._policy.max_attempts:
                if stats is not None:
                    stats.failed_claims += 1
                if breaker is not None:
                    self._record_failure(
                        breaker, stats, claimant or "", home or ""
                    )
                if probe.enabled:
                    probe.count(
                        "claims_total",
                        platform=owner or "",
                        outcome="retries_exhausted",
                    )
                raise ClaimConflictError(
                    f"claim lost {attempt} races, retries exhausted",
                    time=self._now,
                    platform_id=owner,
                    worker_id=worker_id,
                )
            if stats is not None:
                stats.retries += 1
                backoff = self._policy.backoff_for(
                    attempt - 1, self._injector.backoff_rng(worker_id, attempt)
                )
                stats.retry_backoff_seconds += backoff
                if probe.enabled:
                    probe.instant(
                        "claim.retry",
                        category="faults",
                        tid=owner or "",
                        worker=worker_id,
                        attempt=attempt,
                        backoff_s=backoff,
                    )
                    probe.count("claim_retries_total", platform=owner or "")
                    probe.observe(
                        "claim_backoff_seconds", backoff, platform=owner or ""
                    )

        if breaker is not None:
            breaker.record_success(self._now)
        return self._inner.claim(worker_id)
