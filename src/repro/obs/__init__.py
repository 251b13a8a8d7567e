"""Unified telemetry substrate: metrics, tracing, and profiling hooks.

Zero-dependency observability for the COM engine, in three pillars:

* :mod:`repro.obs.metrics` — a labelled-series **metrics registry**
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`) with
  deterministic, mergeable snapshots;
* :mod:`repro.obs.tracing` — a **span tracer** emitting structured JSONL
  and Chrome/Perfetto trace-event JSON;
* :mod:`repro.obs.probe` — the **profiling-hook seam**: engine components
  call a :class:`Probe` at phase boundaries; the default
  :data:`NULL_PROBE` is a measured-negligible no-op, and
  :class:`Telemetry` bundles a live registry + tracer for a run;
* :mod:`repro.obs.events` — the **gateway event log** (``COMEVT1``): an
  append-only framed stream of arrivals/decisions/sheds/breaker-trips
  behind the :class:`EventSink` seam (:data:`NULL_EVENT_SINK` default),
  whose canonical projection replays byte-identically
  (``com-repro replay --log FILE --verify``; docs/DASHBOARD.md).

Layering: ``repro.obs`` sits below :mod:`repro.core` and imports nothing
from the rest of the package (mirroring :mod:`repro.utils`).  See
docs/OBSERVABILITY.md for the architecture, probe-point catalogue and
trace schema.
"""

from repro.obs.events import (
    CANONICAL_KINDS,
    EVENT_FORMAT,
    EVENT_SCHEMA,
    NULL_EVENT_SINK,
    OPS_KINDS,
    EventLog,
    EventSink,
    GatewayEvent,
    canonical_projection,
    encode_canonical,
    read_events,
    row_digest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.probe import NULL_PROBE, NullProbe, Probe, Telemetry, TelemetryProbe
from repro.obs.summary import (
    WALL_CLOCK_FAMILIES,
    TelemetrySummary,
    strip_wall_clock_families,
)
from repro.obs.tracing import SpanHandle, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Probe",
    "NullProbe",
    "NULL_PROBE",
    "TelemetryProbe",
    "Telemetry",
    "TelemetrySummary",
    "WALL_CLOCK_FAMILIES",
    "strip_wall_clock_families",
    "SpanHandle",
    "Tracer",
    "EVENT_SCHEMA",
    "EVENT_FORMAT",
    "CANONICAL_KINDS",
    "OPS_KINDS",
    "EventSink",
    "NULL_EVENT_SINK",
    "EventLog",
    "GatewayEvent",
    "canonical_projection",
    "encode_canonical",
    "read_events",
    "row_digest",
]
