"""The per-run telemetry digest attached to simulation results.

:class:`TelemetrySummary` is the JSON-facing view of one run's telemetry:
the full metrics snapshot plus light trace statistics.  It merges the way
the underlying snapshots do (counters/histograms sum), so per-platform or
per-run summaries pool into exactly the global one — the property tests
in ``tests/test_property_invariants.py`` pin that down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsSnapshot

__all__ = [
    "TelemetrySummary",
    "WALL_CLOCK_FAMILIES",
    "strip_wall_clock_families",
]

#: Metric families whose *values* come from wall-clock reads (Stopwatch
#: timings).  Everything else in a summary is a deterministic function of
#: (scenario, seed); strip these before byte-level comparisons — e.g. the
#: pooled-vs-in-process identity guarantee of
#: :func:`repro.experiments.harness.run_comparison`.
#: ``service_latency_seconds`` is the gateway's end-to-end wall latency
#: histogram (:mod:`repro.service.gateway`); ``claim_backoff_seconds`` is
#: *not* listed — its values are seeded simulated backoffs, deterministic
#: per (scenario, seed).
WALL_CLOCK_FAMILIES: tuple[str, ...] = (
    "decision_seconds",
    "exchange_rpc_seconds",
    "service_latency_seconds",
)

#: The three sections of a :meth:`MetricsSnapshot.as_dict` payload.
_SNAPSHOT_SECTIONS = ("counters", "gauges", "histograms")


def strip_wall_clock_families(payload: object) -> object:
    """Strip :data:`WALL_CLOCK_FAMILIES` from *nested* snapshot payloads.

    :meth:`MetricsSnapshot.without_families` only sees one flat snapshot;
    exported payloads (gateway ``stats``, the dashboard ``/state`` body,
    ``metrics_to_dict`` rows with telemetry attached) embed snapshot
    dicts at arbitrary depth.  This walks any JSON-shaped payload and
    removes wall-clock families from every ``counters`` / ``gauges`` /
    ``histograms`` section it finds, returning a filtered copy (the
    input is never mutated).
    """
    if isinstance(payload, dict):
        filtered: dict = {}
        for key, value in payload.items():
            if key in _SNAPSHOT_SECTIONS and isinstance(value, dict):
                filtered[key] = {
                    name: strip_wall_clock_families(entries)
                    for name, entries in value.items()
                    if name not in WALL_CLOCK_FAMILIES
                }
            else:
                filtered[key] = strip_wall_clock_families(value)
        return filtered
    if isinstance(payload, list):
        return [strip_wall_clock_families(item) for item in payload]
    return payload


@dataclass(frozen=True)
class TelemetrySummary:
    """Metrics snapshot + trace statistics for one simulation run."""

    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: Total trace records (spans + instants); 0 when tracing was off.
    trace_events: int = 0
    #: Span count per span name (empty when tracing was off).
    span_counts: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready view (used by the reporting layer)."""
        return {
            "metrics": self.metrics.as_dict(),
            "trace_events": self.trace_events,
            "span_counts": dict(self.span_counts),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TelemetrySummary":
        """Rebuild a summary from :meth:`as_dict` output."""
        return cls(
            metrics=MetricsSnapshot.from_dict(payload.get("metrics", {})),
            trace_events=payload.get("trace_events", 0),
            span_counts=dict(payload.get("span_counts", {})),
        )

    def merge(self, other: "TelemetrySummary") -> "TelemetrySummary":
        """Pool two summaries (metrics merge; trace stats sum)."""
        span_counts = dict(self.span_counts)
        for name, count in other.span_counts.items():
            span_counts[name] = span_counts.get(name, 0) + count
        return TelemetrySummary(
            metrics=self.metrics.merge(other.metrics),
            trace_events=self.trace_events + other.trace_events,
            span_counts=dict(sorted(span_counts.items())),
        )

    def counter_value(self, name: str, **labels: str) -> float:
        """Convenience passthrough to the snapshot."""
        return self.metrics.counter_value(name, **labels)

    def without_wall_clock(self) -> "TelemetrySummary":
        """The summary minus :data:`WALL_CLOCK_FAMILIES` — the part that is
        a deterministic function of (scenario, seed).

        Strips recursively via :func:`strip_wall_clock_families`, so
        wall-clock histogram series survive in *no* snapshot section even
        when a merged/pooled payload carries nested snapshot dicts.
        """
        payload = strip_wall_clock_families(self.metrics.as_dict())
        assert isinstance(payload, dict)
        return TelemetrySummary(
            metrics=MetricsSnapshot.from_dict(payload),
            trace_events=self.trace_events,
            span_counts=dict(self.span_counts),
        )
