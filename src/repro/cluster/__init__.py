"""Sharded multi-gateway cluster with spatial routing (docs/CLUSTER.md).

One :class:`~repro.cluster.plan.ShardPlan` partitions the city into grid
cells, a :class:`~repro.cluster.router.ClusterRouter` routes arrivals to
the shard gateway owning each cell and forwards rejected requests across
shard borders (the cross-shard cooperation exchange), and the recording
helpers merge per-shard ``COMEVT1`` streams into one cluster-ordered
stream.  That merged recording carries its shard count and plan, so
:func:`~repro.service.replay.replay_event_log` — the one replay entry
point — verifies it byte for byte like any other recording.
"""

from repro.cluster.plan import ShardPlan, reach_from_events
from repro.cluster.recording import (
    final_statuses_of,
    merge_shard_streams,
    shard_streams_of,
    write_recording,
)
from repro.cluster.router import (
    ClusterResult,
    ClusterRouter,
    LocalShard,
    RemoteShard,
    ShardHandle,
    merge_rows,
)
from repro.cluster.server import (
    ClusterServer,
    build_shard_gateway,
    drive_cluster,
    local_cluster,
    recording_of,
    stop_tcp_cluster,
    tcp_cluster,
)

__all__ = [
    "ShardPlan",
    "reach_from_events",
    "ClusterRouter",
    "ClusterResult",
    "LocalShard",
    "RemoteShard",
    "ShardHandle",
    "merge_rows",
    "merge_shard_streams",
    "shard_streams_of",
    "final_statuses_of",
    "write_recording",
    "ClusterServer",
    "build_shard_gateway",
    "local_cluster",
    "tcp_cluster",
    "stop_tcp_cluster",
    "drive_cluster",
    "recording_of",
]
