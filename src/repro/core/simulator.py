"""The arrival-driven online simulation engine.

The simulator replays an interleaved arrival stream (paper Table II) across
N cooperating platforms, delegating each request decision to the platform's
:class:`~repro.core.base.OnlineAlgorithm`, enforcing the COM constraints by
construction (workers are claimed atomically through the exchange), and
recording the exact metrics the paper's evaluation section reports:
per-platform revenue, completed / cooperative request counts, acceptance
ratio, outer-payment rate, per-request response time, and memory footprint.

Everything stochastic flows from ``SimulatorConfig.seed`` through labelled
child streams, so a run is a pure function of (scenario, config).

The engine is exposed at two granularities:

* :meth:`Simulator.run` — batch replay of a whole :class:`Scenario`;
* :class:`SimulationSession` — the same engine driven one arrival at a
  time (``submit_worker`` / ``submit_request`` / ``finalize``).  This is
  the seam the :mod:`repro.service` gateway uses to serve decisions from a
  long-running process; ``Simulator.run`` is a thin loop over a session,
  so a session fed the same events in the same order produces a
  byte-identical :class:`SimulationResult`.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.analysis.concurrency import ConcurrencyMonitor, concurrency_from_env
from repro.analysis.sanitizer import ConstraintSanitizer, sanitize_from_env
from repro.behavior.worker_model import BehaviorOracle, WorkerBehavior
from repro.core.acceptance import AcceptanceEstimator
from repro.core.base import Decision, DecisionKind, OnlineAlgorithm, PlatformContext
from repro.core.entities import Request, Worker
from repro.core.events import EventKind, EventStream
from repro.core.exchange import CooperationExchange
from repro.core.matching import AssignmentKind, MatchRecord, MatchingLedger
from repro.core.payment import MinimumOuterPaymentEstimator
from repro.core.pricing import MaximumExpectedRevenuePricer
from repro.errors import (
    ClaimConflictError,
    ConfigurationError,
    ExchangeUnavailableError,
    SimulationError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import CircuitBreakerConfig, FaultPlan, RetryPolicy
from repro.faults.resilient import ResilienceStats, ResilientExchange
from repro.obs import NULL_PROBE, Telemetry, TelemetrySummary
from repro.utils.memory import approximate_size_bytes
from repro.utils.rng import SeedSequence
from repro.utils.timer import Stopwatch, TimingAccumulator

__all__ = [
    "Scenario",
    "SimulatorConfig",
    "SimulationResult",
    "Simulator",
    "SimulationSession",
    "DecisionLogEntry",
]


@dataclass
class Scenario:
    """One runnable problem instance.

    Produced by the workload generators; consumed by the simulator and the
    offline baseline.
    """

    events: EventStream
    oracle: BehaviorOracle
    platform_ids: list[str]
    value_upper_bound: float = 0.0
    name: str = "scenario"

    def __post_init__(self) -> None:
        if not self.platform_ids:
            raise ConfigurationError("a scenario needs at least one platform")
        if self.value_upper_bound <= 0.0:
            values = [request.value for request in self.events.requests]
            self.value_upper_bound = max(values) if values else 1.0

    @property
    def request_count(self) -> int:
        """Total requests across platforms."""
        return len(self.events.requests)

    @property
    def worker_count(self) -> int:
        """Total workers across platforms."""
        return len(self.events.workers)


@dataclass
class SimulatorConfig:
    """Tunables of one simulation run."""

    seed: int = 0
    #: Lemma-1 accuracy knobs for Algorithm 2.
    payment_xi: float = 0.1
    payment_eta: float = 0.5
    #: MER pricer grid resolution.
    pricer_grid_steps: int = 50
    #: Also evaluate history CDF breakpoints in the MER maximization.
    pricer_history_breakpoints: bool = True
    #: Eq.-4 estimate for workers with no history.
    default_acceptance: float = 0.5
    #: Run Algorithm 2 on the snapshot fast path and the MER pricer on the
    #: pruned sweep (docs/PERFORMANCE.md).  ``False`` selects the
    #: reference per-query implementations — bit-identical results, ~2-5x
    #: slower; kept for the fast-path equivalence tests and
    #: ``benchmarks/bench_hotpath.py``.
    payment_fast_path: bool = True
    #: Algorithm-2 implementation.  Only ``"python"`` exists; any other
    #: value raises :class:`~repro.errors.ConfigurationError`.  Kept so
    #: configurations that name it explicitly still load.
    payment_backend: str = "python"
    #: Grid-index cell edge (km).
    cell_size_km: float = 1.0
    #: When False, outer candidate queries return nothing (no-cooperation
    #: ablation; TOTA ignores outer candidates regardless).
    cooperation_enabled: bool = True
    #: Wall-clock the decide() call per request (the response-time metric).
    measure_response_time: bool = True
    #: Extension: a served worker re-enters their platform's waiting list
    #: after the service completes, at their home location.
    worker_reentry: bool = False
    #: Constant occupation per service (used when ``service_model`` is None).
    service_duration: float = 600.0
    #: Optional richer occupation model (e.g. TravelAwareServiceTime);
    #: overrides ``service_duration`` when set.
    service_model: object | None = None
    #: Record one DecisionLogEntry per request (debugging / analysis).
    decision_log: bool = False
    #: Extension (paper §II): replace Euclidean range checks with
    #: shortest-path distance over this road network.
    road_network: object | None = None
    #: Resilience extension: inject faults into the cooperation exchange.
    #: ``None`` (and any zero plan) leaves runs bit-identical to the
    #: unwrapped exchange; see docs/RESILIENCE.md.
    fault_plan: FaultPlan | None = None
    #: Sim-time retry/backoff policy for exchange claims (defaults apply
    #: when a fault plan is set and this is None).
    retry_policy: RetryPolicy | None = None
    #: Per-peer circuit breaker tunables (defaults when None).
    breaker: CircuitBreakerConfig | None = None
    #: Telemetry bundle (:class:`repro.obs.Telemetry`): a live metrics
    #: registry plus (optionally) a span tracer, surfaced after the run as
    #: ``SimulationResult.telemetry``.  ``None`` (the default) routes every
    #: probe point to the no-op probe — the measured-negligible disabled
    #: path.  Pass a *fresh* bundle per run unless pooling across runs is
    #: intended (the registry accumulates).
    telemetry: Telemetry | None = None
    #: Runtime constraint sanitizer (:mod:`repro.analysis`): validate every
    #: assignment decision against the four Definition-2.6 constraints,
    #: waiting-list consistency and ledger/revenue conservation, raising
    #: :class:`repro.errors.SanitizerViolation` on the first bad decision.
    #: The ``COM_REPRO_SANITIZE`` environment variable force-enables this
    #: regardless of the config value; the disabled path is a single
    #: ``is None`` check per decision.
    sanitize: bool = False
    #: Runtime concurrency sanitizer (:mod:`repro.analysis.concurrency`):
    #: an :class:`~repro.analysis.concurrency.OwnershipGuard` per
    #: gateway-owned structure (session, journal buffer, event ring)
    #: raising :class:`repro.errors.ConcurrencyViolation` on cross-task
    #: mutation, plus an event-loop stall detector.  Force-enabled by
    #: ``COM_REPRO_SANITIZE_CONCURRENCY``; the disabled path is a single
    #: ``is None`` check per guarded mutation.
    sanitize_concurrency: bool = False


@dataclass(frozen=True, slots=True)
class DecisionLogEntry:
    """One request's audited outcome (``SimulatorConfig.decision_log``)."""

    time: float
    platform_id: str
    request_id: str
    kind: str
    worker_id: str | None
    payment: float
    value: float


@dataclass
class PlatformOutcome:
    """Everything measured for one platform in one run."""

    ledger: MatchingLedger
    response_time: TimingAccumulator = field(default_factory=TimingAccumulator)
    cooperative_attempts: int = 0
    offers_made: int = 0
    #: Failure accounting (all zeros unless a fault plan was active).
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    @property
    def acceptance_ratio(self) -> float | None:
        """|AcpRt| — accepted cooperative requests / attempted ones."""
        if self.cooperative_attempts == 0:
            return None
        return self.ledger.cooperative_requests / self.cooperative_attempts

    @property
    def mean_payment_rate(self) -> float | None:
        """Mean ``v'_r / v_r`` over cooperative assignments."""
        rates = self.ledger.outer_payment_rates()
        if not rates:
            return None
        return sum(rates) / len(rates)


@dataclass
class SimulationResult:
    """Aggregate output of one run."""

    algorithm_name: str
    scenario_name: str
    seed: int
    platforms: dict[str, PlatformOutcome]
    memory_bytes: int = 0
    #: Populated when ``SimulatorConfig.decision_log`` is on.
    decisions: list[DecisionLogEntry] = field(default_factory=list)
    #: Populated when ``SimulatorConfig.telemetry`` was set: the run's
    #: metrics snapshot plus trace statistics.
    telemetry: TelemetrySummary | None = None

    @property
    def total_revenue(self) -> float:
        """Sum of Definition-2.5 revenue across platforms."""
        return sum(p.ledger.revenue for p in self.platforms.values())

    @property
    def total_completed(self) -> int:
        """Completed requests across platforms."""
        return sum(p.ledger.completed_requests for p in self.platforms.values())

    @property
    def total_cooperative(self) -> int:
        """|CoR| across platforms."""
        return sum(p.ledger.cooperative_requests for p in self.platforms.values())

    @property
    def total_rejected(self) -> int:
        """Rejected requests across platforms."""
        return sum(p.ledger.rejected_requests for p in self.platforms.values())

    @property
    def mean_response_time_ms(self) -> float:
        """Mean per-request decision latency across platforms."""
        total_seconds = sum(
            p.response_time.total_seconds for p in self.platforms.values()
        )
        count = sum(p.response_time.count for p in self.platforms.values())
        return (total_seconds / count) * 1e3 if count else 0.0

    def response_time_percentile_ms(self, q: float) -> float:
        """Pooled per-request latency percentile (reservoir estimate)."""
        samples: list[float] = []
        for platform in self.platforms.values():
            samples.extend(platform.response_time.samples())
        if not samples:
            return 0.0
        from repro.utils.stats import quantile

        return quantile(sorted(samples), q) * 1e3

    @property
    def resilience(self) -> ResilienceStats:
        """Pooled failure accounting across platforms (zeros without a
        fault plan)."""
        total = ResilienceStats()
        for platform in self.platforms.values():
            total = total.merge(platform.resilience)
        return total

    @property
    def total_retries(self) -> int:
        """Transiently failed claim attempts that were retried."""
        return self.resilience.retries

    @property
    def total_failed_claims(self) -> int:
        """Claims abandoned after exhausting retries."""
        return self.resilience.failed_claims

    @property
    def total_degraded_decisions(self) -> int:
        """Requests decided with a reduced or absent cooperative view."""
        return self.resilience.degraded_decisions

    @property
    def total_dropped_workers(self) -> int:
        """Workers lost to mid-assignment dropout."""
        return self.resilience.dropped_workers

    @property
    def total_outage_seconds(self) -> float:
        """Sim-seconds of platform-exchange link outage, summed."""
        return self.resilience.outage_seconds

    @property
    def overall_acceptance_ratio(self) -> float | None:
        """|AcpRt| pooled across platforms."""
        attempts = sum(p.cooperative_attempts for p in self.platforms.values())
        if attempts == 0:
            return None
        return self.total_cooperative / attempts

    @property
    def overall_payment_rate(self) -> float | None:
        """Mean ``v'_r / v_r`` pooled across platforms."""
        rates: list[float] = []
        for platform in self.platforms.values():
            rates.extend(platform.ledger.outer_payment_rates())
        if not rates:
            return None
        return sum(rates) / len(rates)

    def all_records(self) -> list[MatchRecord]:
        """Every assignment across platforms (for constraint validation)."""
        records: list[MatchRecord] = []
        for platform in self.platforms.values():
            records.extend(platform.ledger.records)
        return records


class SimulationSession:
    """One in-flight simulation, driven arrival by arrival.

    A session owns everything :meth:`Simulator.run` used to set up — the
    exchange, the incentive machinery, one algorithm instance per platform,
    the reentry/departure queues — and exposes the engine's per-event step
    as methods:

    * :meth:`submit_worker` / :meth:`submit_request` — deliver one arrival
      (in global time order; each advances simulation time first);
    * :meth:`finalize` — end of stream: flush batching algorithms, auto-
      reject still-deferred requests and return the
      :class:`SimulationResult`.

    Feeding a session the events of a scenario in stream order is exactly
    ``Simulator.run`` (which is implemented as that loop), so a service
    replaying a recorded trace through a session produces a byte-identical
    result.  The optional :attr:`on_resolution` hook observes decisions the
    caller did not receive synchronously (batch flushes and end-of-stream
    auto-rejects); :mod:`repro.service.gateway` uses it to answer outcome
    queries for deferred requests.
    """

    def __init__(
        self,
        config: SimulatorConfig,
        scenario: Scenario,
        algorithm_factory: Callable[[], OnlineAlgorithm],
    ):
        self.config = config
        self.scenario = scenario
        seeds = SeedSequence(config.seed)
        self._probe = (
            config.telemetry.probe if config.telemetry is not None else NULL_PROBE
        )
        self._sanitizer = (
            ConstraintSanitizer()
            if (config.sanitize or sanitize_from_env())
            else None
        )
        #: Concurrency monitor shared with the gateway (which guards its
        #: journal buffer / event ring through the same instance).  The
        #: session itself only carries it; ownership is claimed by the
        #: first task-context mutation, i.e. the gateway decision loop.
        self.concurrency_monitor = (
            ConcurrencyMonitor()
            if (config.sanitize_concurrency or concurrency_from_env())
            else None
        )
        exchange: CooperationExchange | ResilientExchange = CooperationExchange(
            scenario.platform_ids,
            cell_size_km=config.cell_size_km,
            road_network=config.road_network,
        )
        self._resilient: ResilientExchange | None = None
        if config.fault_plan is not None:
            self._resilient = ResilientExchange(
                exchange,
                FaultInjector(config.fault_plan),
                retry_policy=config.retry_policy,
                breaker_config=config.breaker,
                probe=self._probe,
            )
            exchange = self._resilient
        self.exchange = exchange
        # The estimator interprets histories in the same space (relative
        # rates vs absolute prices) as the scenario's ground truth.
        self.acceptance = AcceptanceEstimator(
            default_probability=config.default_acceptance,
            mode=scenario.oracle.mode,
        )
        if config.payment_backend != "python":
            raise ConfigurationError(
                "payment_backend must be 'python', got "
                f"{config.payment_backend!r}"
            )
        self.payment_estimator = payment_estimator = MinimumOuterPaymentEstimator(
            self.acceptance,
            xi=config.payment_xi,
            eta=config.payment_eta,
            fast_path=config.payment_fast_path,
        )
        self.pricer = pricer = MaximumExpectedRevenuePricer(
            self.acceptance,
            grid_steps=config.pricer_grid_steps,
            include_history_breakpoints=config.pricer_history_breakpoints,
            fast_path=config.payment_fast_path,
        )

        self.algorithms: dict[str, OnlineAlgorithm] = {}
        self.contexts: dict[str, PlatformContext] = {}
        self.outcomes: dict[str, PlatformOutcome] = {}
        for platform_id in scenario.platform_ids:
            algorithm = algorithm_factory()
            context = PlatformContext(
                platform_id=platform_id,
                exchange=exchange,
                acceptance=self.acceptance,
                payment_estimator=payment_estimator,
                pricer=pricer,
                oracle=scenario.oracle,
                rng=seeds.child("algorithm").rng(platform_id),
                value_upper_bound=scenario.value_upper_bound,
                cooperation_enabled=config.cooperation_enabled,
                probe=self._probe,
                sanitizer=self._sanitizer,
            )
            algorithm.reset(context)
            self.algorithms[platform_id] = algorithm
            self.contexts[platform_id] = context
            self.outcomes[platform_id] = PlatformOutcome(
                ledger=MatchingLedger(platform_id)
            )

        # Pre-load every worker's history into the Eq.-4 estimator.
        for event in scenario.events:
            if event.kind is EventKind.WORKER:
                assert event.worker is not None
                worker_id = event.worker.worker_id
                if worker_id in scenario.oracle:
                    self.acceptance.set_history(
                        worker_id, scenario.oracle.history_of(worker_id)
                    )

        # Reentry queue: (time, sequence, worker) — sequence breaks ties.
        self._reentry_heap: list[tuple[float, int, Worker]] = []
        self._reentry_sequence = 0
        # Departure queue (shift ends): (time, worker_id).
        self._departure_heap: list[tuple[float, str]] = []

        self.algorithm_name = next(iter(self.algorithms.values())).name
        self.decision_entries: list[DecisionLogEntry] = []
        #: request_id -> Request for every deferred, not-yet-resolved request.
        self.deferred: dict[str, Request] = {}
        #: Observes (request, decision) pairs resolved *asynchronously* —
        #: batch flushes and end-of-stream auto-rejects.  Immediate
        #: decisions are returned by :meth:`submit_request` instead.
        self.on_resolution: Callable[[Request, Decision], None] | None = None

        self._run_span = (
            self._probe.span(
                "simulation.run",
                tid="simulator",
                scenario=scenario.name,
                algorithm=self.algorithm_name,
                seed=config.seed,
            )
            if self._probe.enabled
            else None
        )
        self.last_event_time = 0.0
        self._finalized = False

    def _run_flush(self, platform_id: str, time: float) -> None:
        probe = self._probe
        resolved = self.algorithms[platform_id].flush(
            time, self.contexts[platform_id]
        )
        if resolved and probe.enabled:
            probe.instant("flush", tid=platform_id, resolved=len(resolved))
        for flushed_request, flushed_decision in resolved:
            if flushed_request.request_id not in self.deferred:
                raise SimulationError(
                    "flush returned non-deferred request",
                    time=time,
                    platform_id=platform_id,
                    request_id=flushed_request.request_id,
                )
            if flushed_decision.kind is DecisionKind.DEFER:
                raise SimulationError("flush may not re-defer a request")
            del self.deferred[flushed_request.request_id]
            outcome = self.outcomes[flushed_request.platform_id]
            if flushed_decision.cooperative_attempt:
                outcome.cooperative_attempts += 1
                outcome.offers_made += flushed_decision.offers_made
            if probe.enabled:
                probe.count(
                    "decisions_total",
                    platform=flushed_request.platform_id,
                    kind=flushed_decision.kind.value,
                )
            self._apply_decision(flushed_request, flushed_decision)
            if self.on_resolution is not None:
                self.on_resolution(flushed_request, flushed_decision)

    def advance_to(self, time: float) -> None:
        """Move simulation time forward to ``time``.

        Performs everything the engine does *between* arrivals: reinject
        workers whose service completed, give batching algorithms a flush
        opportunity, and evict workers whose shift ended.  Idempotent for
        a repeated ``time``; called automatically by the submit methods.
        """
        if self.concurrency_monitor is not None:
            self.concurrency_monitor.touch("session")
        self.last_event_time = max(self.last_event_time, time)
        self._probe.advance(time)
        if self._resilient is not None:
            self._resilient.advance_to(time)
        # Inject any workers whose service completed before this instant.
        while self._reentry_heap and self._reentry_heap[0][0] <= time:
            _, _, returning = heapq.heappop(self._reentry_heap)
            self.exchange.worker_arrives(returning)
            if self._sanitizer is not None:
                self._sanitizer.observe_worker(returning)
            if returning.departure_time is not None:
                heapq.heappush(
                    self._departure_heap,
                    (returning.departure_time, returning.worker_id),
                )
            self.algorithms[returning.platform_id].on_worker_arrival(
                returning, self.contexts[returning.platform_id]
            )

        # Give batching algorithms a chance to flush before this instant.
        for platform_id in self.scenario.platform_ids:
            self._run_flush(platform_id, time)

        # Shift ends: still-waiting workers leave every list.  This is
        # an administrative removal, not a cross-platform claim, so it
        # bypasses fault injection (``evict``).
        while self._departure_heap and self._departure_heap[0][0] < time:
            __, departing_id = heapq.heappop(self._departure_heap)
            if self.exchange.is_available(departing_id):
                self.exchange.evict(departing_id)

    def submit_worker(self, worker: Worker, time: float | None = None) -> None:
        """Deliver one worker arrival (at ``worker.arrival_time``)."""
        if self.concurrency_monitor is not None:
            self.concurrency_monitor.touch("session")
        self.advance_to(worker.arrival_time if time is None else time)
        probe = self._probe
        if worker.platform_id not in self.outcomes:
            raise SimulationError(
                "worker belongs to unknown platform",
                time=worker.arrival_time,
                platform_id=worker.platform_id,
                worker_id=worker.worker_id,
            )
        self.exchange.worker_arrives(worker)
        if self._sanitizer is not None:
            self._sanitizer.observe_worker(worker)
        if probe.enabled:
            probe.count("worker_arrivals_total", platform=worker.platform_id)
        if worker.departure_time is not None:
            heapq.heappush(
                self._departure_heap, (worker.departure_time, worker.worker_id)
            )
        self.algorithms[worker.platform_id].on_worker_arrival(
            worker, self.contexts[worker.platform_id]
        )

    def submit_request(
        self, request: Request, time: float | None = None
    ) -> Decision:
        """Deliver one request arrival; returns the algorithm's decision.

        A returned ``DEFER`` decision means the request is parked with a
        batching algorithm; its resolution arrives later through
        :attr:`on_resolution` (or as an auto-reject at :meth:`finalize`).
        """
        if self.concurrency_monitor is not None:
            self.concurrency_monitor.touch("session")
        self.advance_to(request.arrival_time if time is None else time)
        config = self.config
        probe = self._probe
        platform_id = request.platform_id
        if platform_id not in self.outcomes:
            raise SimulationError(
                "request targets unknown platform",
                time=request.arrival_time,
                platform_id=platform_id,
                request_id=request.request_id,
            )
        outcome = self.outcomes[platform_id]

        decision_span = (
            probe.span(
                "decision",
                tid=platform_id,
                request=request.request_id,
                value=request.value,
            )
            if probe.enabled
            else None
        )
        if config.measure_response_time:
            with Stopwatch() as watch:
                decision = self.algorithms[platform_id].decide(
                    request, self.contexts[platform_id]
                )
            if not watch.failed:
                outcome.response_time.record(watch.elapsed_seconds)
        else:
            decision = self.algorithms[platform_id].decide(
                request, self.contexts[platform_id]
            )
        if decision_span is not None:
            decision_span.annotate(kind=decision.kind.value)
            decision_span.end()
            probe.count(
                "decisions_total",
                platform=platform_id,
                kind=decision.kind.value,
            )
            if config.measure_response_time:
                probe.observe(
                    "decision_seconds",
                    watch.elapsed_seconds,
                    platform=platform_id,
                )

        if decision.kind is DecisionKind.DEFER:
            self.deferred[request.request_id] = request
            return decision

        if decision.cooperative_attempt:
            outcome.cooperative_attempts += 1
            outcome.offers_made += decision.offers_made

        self._apply_decision(request, decision)
        return decision

    def breaker_trips(self) -> dict[str, int]:
        """Cumulative circuit-breaker trips per platform (empty sans faults).

        The serving layer diffs this after each decision to surface trips
        as operational events without threading a probe (which would make
        the session unpicklable for ``COMSNAP1`` snapshots).
        """
        if self._resilient is None:
            return {}
        return {
            platform_id: self._resilient.stats_for(platform_id).breaker_trips
            for platform_id in self.scenario.platform_ids
        }

    def finalize(self) -> SimulationResult:
        """End of stream: flush, auto-reject leftovers, return the result."""
        if self.concurrency_monitor is not None:
            self.concurrency_monitor.touch("session")
        if self._finalized:
            raise SimulationError("session already finalized")
        self._finalized = True
        config = self.config
        probe = self._probe
        scenario = self.scenario
        for platform_id in scenario.platform_ids:
            self._run_flush(platform_id, float("inf"))
        for leftover in list(self.deferred.values()):
            if self._sanitizer is not None:
                self._sanitizer.observe_rejection(leftover, self.last_event_time)
            self.outcomes[leftover.platform_id].ledger.record_rejection(leftover)
            if probe.enabled:
                probe.count(
                    "decisions_total",
                    platform=leftover.platform_id,
                    kind="auto_reject",
                )
            if self.on_resolution is not None:
                self.on_resolution(leftover, Decision.reject())
        self.deferred.clear()

        if self._sanitizer is not None:
            self._sanitizer.finalize(
                {pid: outcome.ledger for pid, outcome in self.outcomes.items()},
                self.last_event_time,
            )

        if self._resilient is not None:
            self._resilient.finalize(self.last_event_time)
            for platform_id in scenario.platform_ids:
                self.outcomes[platform_id].resilience = self._resilient.stats_for(
                    platform_id
                )

        memory_bytes = approximate_size_bytes(
            {
                "outcomes": {
                    pid: outcome.ledger.records
                    for pid, outcome in self.outcomes.items()
                },
                "waiting": {
                    pid: self.exchange.inner_list(pid).workers()
                    for pid in scenario.platform_ids
                },
                "entities": (scenario.events.workers, scenario.events.requests),
            }
        )

        telemetry_summary: TelemetrySummary | None = None
        if config.telemetry is not None:
            if probe.enabled:
                probe.gauge("memory_bytes", memory_bytes)
                for pid in scenario.platform_ids:
                    probe.gauge(
                        "waiting_workers",
                        len(self.exchange.inner_list(pid)),
                        platform=pid,
                    )
            if self._run_span is not None:
                self._run_span.annotate(
                    requests=scenario.request_count,
                    workers=scenario.worker_count,
                )
                self._run_span.end()
            telemetry_summary = config.telemetry.summary()

        return SimulationResult(
            algorithm_name=self.algorithm_name,
            scenario_name=scenario.name,
            seed=config.seed,
            platforms=self.outcomes,
            memory_bytes=memory_bytes,
            decisions=self.decision_entries,
            telemetry=telemetry_summary,
        )

    def _apply_decision(self, request: Request, decision: Decision) -> None:
        """Mutate world state according to a non-DEFER decision."""
        config = self.config
        exchange = self.exchange
        sanitizer = self._sanitizer
        scenario = self.scenario
        outcome = self.outcomes[request.platform_id]

        if config.decision_log:
            self.decision_entries.append(
                DecisionLogEntry(
                    time=request.arrival_time,
                    platform_id=request.platform_id,
                    request_id=request.request_id,
                    kind=decision.kind.value,
                    worker_id=(
                        decision.worker.worker_id if decision.worker else None
                    ),
                    payment=decision.payment,
                    value=request.value,
                )
            )

        if decision.kind is DecisionKind.REJECT:
            if sanitizer is not None:
                sanitizer.observe_rejection(request, request.arrival_time)
            outcome.ledger.record_rejection(request)
            return

        worker = decision.worker
        if worker is None:
            raise SimulationError(
                "serve decision without a worker",
                time=request.arrival_time,
                platform_id=request.platform_id,
                request_id=request.request_id,
            )
        outer_kind = decision.kind is DecisionKind.SERVE_OUTER
        if sanitizer is not None:
            # Validated *before* any world-state mutation: a violation
            # surfaces with the waiting lists and ledgers untouched.
            sanitizer.check_assignment(
                request,
                worker,
                outer=outer_kind,
                payment=decision.payment,
                exchange=exchange,
            )
        if not exchange.is_available(worker.worker_id):
            raise SimulationError(
                "algorithm picked unavailable worker",
                time=request.arrival_time,
                platform_id=request.platform_id,
                request_id=request.request_id,
                worker_id=worker.worker_id,
            )
        probe = self._probe
        claim_span = (
            probe.span(
                "exchange.claim",
                category="exchange",
                tid=request.platform_id,
                worker=worker.worker_id,
                outer=decision.kind is DecisionKind.SERVE_OUTER,
            )
            if probe.enabled
            else None
        )
        try:
            exchange.claim(worker.worker_id, claimant=request.platform_id)
        except (ClaimConflictError, ExchangeUnavailableError):
            # The assignment could not be committed (lost-claim race with
            # retries exhausted, worker dropout, or the exchange going
            # down mid-claim): the request is rejected, never re-matched
            # (the paper's invariable constraint), and the failure is
            # already accounted by the resilience wrapper.
            if claim_span is not None:
                claim_span.annotate(outcome="conflict")
                claim_span.end()
                probe.count(
                    "claims_total",
                    platform=request.platform_id,
                    outcome="conflict",
                )
            if sanitizer is not None:
                sanitizer.observe_rejection(request, request.arrival_time)
            outcome.ledger.record_rejection(request)
            return
        if claim_span is not None:
            claim_span.annotate(outcome="ok")
            claim_span.end()
            probe.count(
                "claims_total", platform=request.platform_id, outcome="ok"
            )

        kind = (
            AssignmentKind.INNER
            if decision.kind is DecisionKind.SERVE_INNER
            else AssignmentKind.OUTER
        )
        record = MatchRecord(
            request=request,
            worker=worker,
            kind=kind,
            payment=decision.payment if kind is AssignmentKind.OUTER else 0.0,
            decision_time=request.arrival_time,
            pickup_distance=worker.location.distance_to(request.location),
        )
        outcome.ledger.record(record)

        if kind is AssignmentKind.OUTER:
            # Credit the lender platform and grow the worker's visible
            # history (the online-learning loop behind Eq. 4).
            self.outcomes[worker.platform_id].ledger.record_lender_income(
                request.platform_id, decision.payment
            )
            self.acceptance.record_completion(
                worker.worker_id, decision.payment, request.value
            )

        if sanitizer is not None:
            sanitizer.commit_assignment(
                request, worker, outer=outer_kind, payment=decision.payment
            )
            sanitizer.check_lender_conservation(
                {pid: out.ledger for pid, out in self.outcomes.items()},
                request.arrival_time,
            )

        occupation = config.service_duration
        if config.service_model is not None:
            occupation = config.service_model.duration(
                worker, request, config.seed
            )
        past_shift = (
            worker.departure_time is not None
            and request.arrival_time + occupation > worker.departure_time
        )
        if config.worker_reentry and not past_shift:
            self._reentry_sequence += 1
            if probe.enabled:
                probe.count(
                    "worker_reentries_total", platform=worker.platform_id
                )
            return_time = request.arrival_time + occupation
            returned = self._reentered_worker(worker, request, return_time, scenario)
            self.acceptance.set_history(
                returned.worker_id, scenario.oracle.history_of(worker.worker_id)
            )
            heapq.heappush(
                self._reentry_heap,
                (return_time, self._reentry_sequence, returned),
            )

    @staticmethod
    def _reentered_worker(
        worker: Worker, request: Request, return_time: float, scenario: Scenario
    ) -> Worker:
        """Clone a worker for reentry at their home location.

        The clone gets a fresh id (the 1-by-1 constraint is per engagement)
        and inherits the original's behaviour in the oracle.  Re-entering at
        the worker's *original* location (the "return home" model) keeps the
        offline copy relaxation in :func:`repro.baselines.offline.
        solve_offline_reentry` a true upper bound; see DESIGN.md §2.
        """
        base_id, _, suffix = worker.worker_id.partition("@reentry")
        generation = int(suffix) + 1 if suffix else 1
        new_id = f"{base_id}@reentry{generation}"
        clone = replace(
            worker,
            worker_id=new_id,
            arrival_time=return_time,
        )
        if new_id not in scenario.oracle:
            original = scenario.oracle.behavior_of(worker.worker_id)
            scenario.oracle.register(
                WorkerBehavior(new_id, original.distribution, original.history)
            )
        return clone


class Simulator:
    """Runs one online algorithm per platform over a scenario."""

    def __init__(self, config: SimulatorConfig | None = None):
        self.config = config or SimulatorConfig()

    def session(
        self,
        scenario: Scenario,
        algorithm_factory: Callable[[], OnlineAlgorithm],
    ) -> SimulationSession:
        """Begin a stepwise run (see :class:`SimulationSession`)."""
        return SimulationSession(self.config, scenario, algorithm_factory)

    def run(
        self,
        scenario: Scenario,
        algorithm_factory: Callable[[], OnlineAlgorithm],
    ) -> SimulationResult:
        """Replay the scenario and return the measured outcome.

        ``algorithm_factory`` is called once per platform so platforms do
        not share mutable algorithm state (each platform is an independent
        decision maker in the paper's model).
        """
        session = self.session(scenario, algorithm_factory)
        for event in scenario.events:
            if event.kind is EventKind.WORKER:
                assert event.worker is not None
                session.submit_worker(event.worker, time=event.time)
            else:
                assert event.request is not None
                session.submit_request(event.request, time=event.time)
        return session.finalize()
