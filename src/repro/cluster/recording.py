"""Cluster-ordered ``COMEVT1`` recordings from per-shard event streams.

Each shard gateway records its own ``COMEVT1`` stream.  A cluster run's
record of truth is the *merge*: one stream, deterministically ordered,
with every canonical event annotated with the shard that produced it, a
single cluster ``meta`` event carrying the shard plan, and a final
cluster ``drain`` event carrying the digest of the merged metric row.

The merge order is the cluster's arrival order: ``(time, kind-rank,
entity id, shard, seq)``, with workers ranked before decisions at equal
times — exactly the :meth:`~repro.core.events.ArrivalEvent.sort_key`
convention the trace generators use, extended with the shard id so a
request forwarded across a shard border (one ``reject`` at home, one
answer next door, same entity at the same instant) lands in cooperation
order.  Because both the live run and its replay merge with the same
key, byte-comparing canonical projections of the two merged streams is
exactly the single-gateway replay identity, cluster-wide.

The cluster ``meta`` event carries ``shards`` and the plan, so a
recording says what shape it has:
:func:`~repro.service.replay.replay_event_log` (``replay --log FILE
--verify``) splits it with :func:`shard_streams_of`, re-drives every
shard, and re-merges with :func:`merge_shard_streams` and
:func:`~repro.cluster.router.merge_rows` — no shard count is passed in.
The degenerate single-shard merge is the identity: a 1-shard cluster
recording is byte-identical to the wrapped gateway's own stream, so it
replays as a plain recording.
"""

from __future__ import annotations

from pathlib import Path

from repro.cluster.plan import ShardPlan
from repro.errors import EventLogError
from repro.obs.events import (
    EVENT_MAGIC,
    GatewayEvent,
    RecordFile,
    encode_canonical,
    row_digest,
)

__all__ = [
    "merge_shard_streams",
    "write_recording",
    "shard_streams_of",
    "final_statuses_of",
]

#: Merge ranks: workers enter before same-instant request answers (the
#: trace sort-key convention); resolutions follow the decisions that
#: flushed them; ops markers and drains close an instant.
_KIND_RANK = {
    "meta": 0,
    "worker": 1,
    "decision": 2,
    "shed": 2,
    "resolution": 3,
    "breaker": 4,
    "metrics": 4,
    "crash": 4,
    "recovered": 4,
    "drain": 5,
}


def _entity_id(event: GatewayEvent) -> str:
    """The id that anchors an event's merge position at equal times."""
    if event.kind == "worker":
        worker = event.fields.get("worker")
        if isinstance(worker, dict):
            return str(worker.get("id", ""))
    if event.kind in ("decision", "shed"):
        request = event.fields.get("request")
        if isinstance(request, dict):
            return str(request.get("id", ""))
    if event.kind == "resolution":
        return str(event.fields.get("request", ""))
    return ""


def _merge_key(
    event: GatewayEvent, shard_id: int
) -> tuple[float, int, str, int, int]:
    return (
        event.time,
        _KIND_RANK.get(event.kind, 4),
        _entity_id(event),
        shard_id,
        event.seq,
    )


def merge_shard_streams(
    shard_events: list[list[GatewayEvent]],
    plan: ShardPlan,
    row: dict,
) -> list[GatewayEvent]:
    """Merge per-shard streams into one cluster-ordered recording.

    ``row`` is the cluster metric row (:func:`repro.cluster.router.
    merge_rows` output, or the sole shard's row): its digest seals the
    recording in the final cluster ``drain`` event.  For a single shard
    the merge is the identity — the shard's stream, untouched.
    """
    if len(shard_events) != plan.shard_count:
        raise EventLogError(
            f"plan wants {plan.shard_count} shard streams, "
            f"got {len(shard_events)}"
        )
    if plan.shard_count == 1:
        return list(shard_events[0])

    metas = [
        next((event for event in events if event.kind == "meta"), None)
        for events in shard_events
    ]
    first_meta = next((meta for meta in metas if meta is not None), None)
    if first_meta is None:
        raise EventLogError("no shard stream carries a meta event")

    keyed: list[tuple[tuple[float, int, str, int, int], GatewayEvent]] = []
    last_time = 0.0
    for shard_id, events in enumerate(shard_events):
        for event in events:
            if event.kind == "meta":
                continue
            last_time = max(last_time, event.time)
            annotated = GatewayEvent(
                seq=event.seq,
                kind=event.kind,
                time=event.time,
                fields={**event.fields, "shard": shard_id},
            )
            keyed.append((_merge_key(event, shard_id), annotated))
    keyed.sort(key=lambda pair: pair[0])

    merged: list[GatewayEvent] = [
        GatewayEvent(
            seq=0,
            kind="meta",
            time=0.0,
            fields={
                **first_meta.fields,
                "shards": plan.shard_count,
                "plan": plan.as_dict(),
            },
        )
    ]
    for _key, event in keyed:
        merged.append(
            GatewayEvent(
                seq=len(merged),
                kind=event.kind,
                time=event.time,
                fields=event.fields,
            )
        )
    merged.append(
        GatewayEvent(
            seq=len(merged),
            kind="drain",
            time=last_time,
            fields={
                "shards": plan.shard_count,
                "metrics_sha256": row_digest(row),
            },
        )
    )
    return merged


def write_recording(events: list[GatewayEvent], path: str | Path) -> Path:
    """Write a merged recording as a ``COMEVT1`` event-log file."""
    file = RecordFile.create(path, EVENT_MAGIC, EventLogError)
    for event in events:
        file.append(encode_canonical(event.as_dict()))
    file.close()
    return file.path


def shard_streams_of(
    events: list[GatewayEvent], shard_count: int
) -> list[list[GatewayEvent]]:
    """Split a merged recording back into per-shard substreams.

    The cluster meta and the final cluster ``drain`` (the only canonical
    events without a ``shard`` annotation) belong to no shard.  Within a
    substream the merged order *is* the shard's submission order — the
    merge key restricted to one shard preserves it.
    """
    streams: list[list[GatewayEvent]] = [[] for _ in range(shard_count)]
    for event in events:
        shard = event.fields.get("shard")
        if shard is None:
            continue
        shard_id = int(shard)  # type: ignore[call-overload]
        if not 0 <= shard_id < shard_count:
            raise EventLogError(
                f"event annotated with shard {shard_id}, "
                f"but the plan has {shard_count} shards"
            )
        streams[shard_id].append(event)
    return streams


def final_statuses_of(events: list[GatewayEvent]) -> dict[str, str]:
    """Cluster-final status per request id, from canonical events.

    A serve on any shard wins (the router stops forwarding at the first
    accept, so there is at most one); a ``resolution`` overrides the
    ``deferred`` decision it settles; otherwise the last recorded status
    stands (``reject`` everywhere, or ``shed``).  This mirrors how the
    live router computes the statuses fed to ``merge_rows``, so a replay
    reconstructs the identical cluster row.
    """
    from repro.cluster.router import SERVE_STATUSES

    statuses: dict[str, str] = {}
    for event in events:
        if event.kind not in ("decision", "resolution", "shed"):
            continue
        request_id = _entity_id(event)
        if not request_id or statuses.get(request_id) in SERVE_STATUSES:
            continue
        statuses[request_id] = (
            "shed" if event.kind == "shed" else str(event.fields.get("status", ""))
        )
    return statuses
