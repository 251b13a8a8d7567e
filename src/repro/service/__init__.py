"""repro.service — an asyncio gateway that serves COM decisions online.

The batch :class:`~repro.core.simulator.Simulator` replays a complete
scenario in one call; this package wraps the same engine — literally the
same :class:`~repro.core.simulator.SimulationSession` code path — behind
a long-running service so matching decisions can be requested one arrival
at a time over a socket:

- :mod:`~repro.service.gateway` — the in-process facade: a serialized
  decision loop around one session, with admission control and metrics.
- :mod:`~repro.service.server` / :mod:`~repro.service.client` — a
  JSONL-over-TCP transport and its asyncio client + trace driver.
- :mod:`~repro.service.clock` — pluggable real-time vs deterministic
  virtual clocks; under the virtual clock a replayed trace produces
  byte-identical metrics to ``Simulator.run``.
- :mod:`~repro.service.admission` — bounded ingress with load shedding.
- :mod:`~repro.service.snapshot` — checkpoint/restore of matching state.
- :mod:`~repro.service.journal` / :mod:`~repro.service.recovery` — the
  ``COMWAL1`` write-ahead event journal and crash recovery (checkpoint +
  suffix replay, byte-identical to the uninterrupted run).
- :mod:`~repro.service.soak` — the chaos soak harness: paced load
  through repeated induced crash→recover cycles, sanitizer on.
- :mod:`~repro.service.dashboard` / :mod:`~repro.service.replay` — live
  ops over the ``COMEVT1`` event stream (:mod:`repro.obs.events`): a
  stdlib HTTP + SSE dashboard, and verified byte-identical replay of
  recorded streams (``com-repro replay --log FILE --verify``).

See docs/SERVICE.md for the protocol and operational guidance,
docs/DASHBOARD.md for the event schema and live-ops endpoints, and
docs/RESILIENCE.md for the crash model.
"""

from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.clock import RealTimeClock, ServiceClock, VirtualClock
from repro.service.client import GatewayClient, drive_trace
from repro.service.dashboard import DashboardServer, LiveState
from repro.service.gateway import (
    STATUS_DEFERRED,
    STATUS_SHED,
    MatchingGateway,
    ServiceOutcome,
)
from repro.service.server import (
    DEFAULT_HOST,
    MatchingServer,
    request_from_wire,
    request_to_wire,
    worker_from_wire,
    worker_to_wire,
)
from repro.service.journal import (
    FSYNC_POLICIES,
    JOURNAL_FORMAT,
    Journal,
    JournalConfig,
    scan_journal,
)
from repro.service.recovery import RecoveryReport, recover_gateway
from repro.service.replay import ReplayReport, replay_event_log
from repro.service.snapshot import SNAPSHOT_FORMAT, read_snapshot, write_snapshot
from repro.service.soak import SoakConfig, SoakReport, run_soak

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "DEFAULT_HOST",
    "DashboardServer",
    "FSYNC_POLICIES",
    "GatewayClient",
    "LiveState",
    "ReplayReport",
    "JOURNAL_FORMAT",
    "Journal",
    "JournalConfig",
    "MatchingGateway",
    "MatchingServer",
    "RealTimeClock",
    "RecoveryReport",
    "SNAPSHOT_FORMAT",
    "STATUS_DEFERRED",
    "STATUS_SHED",
    "ServiceClock",
    "ServiceOutcome",
    "SoakConfig",
    "SoakReport",
    "VirtualClock",
    "drive_trace",
    "read_snapshot",
    "recover_gateway",
    "replay_event_log",
    "request_from_wire",
    "request_to_wire",
    "run_soak",
    "scan_journal",
    "worker_from_wire",
    "worker_to_wire",
    "write_snapshot",
]
