"""Tests for :mod:`repro.cluster` — the sharded multi-gateway cluster.

The anchor properties:

* **degenerate identity** — a 1-shard cluster is byte-identical to a
  single :class:`MatchingGateway`: same metric row as ``Simulator.run``
  (DemCOM and RamCOM) and the same canonical event stream;
* **conservation** — cross-shard forwarding keeps border requests alive,
  so an N-shard cluster completes (at least) the single-shard matches
  and the sanitizer's cluster-wide Def. 2.5/2.6 checks hold;
* **verified replay** — the merged cluster recording re-drives through
  fresh shards to a byte-identical stream and row, via the same
  :func:`~repro.service.replay.replay_event_log` entry point as a plain
  gateway stream (the shard count comes from the recording);
* **operations** — snapshot handoff leaves the final row byte-identical,
  and a mid-stream shard crash degrades to the survivors instead of
  taking the cluster down.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import (
    ClusterRouter,
    LocalShard,
    ShardPlan,
    drive_cluster,
    final_statuses_of,
    local_cluster,
    merge_shard_streams,
    reach_from_events,
    recording_of,
    shard_streams_of,
    stop_tcp_cluster,
    tcp_cluster,
)
from repro.core import Simulator, SimulatorConfig
from repro.core.registry import algorithm_factory
from repro.errors import ConfigurationError, SanitizerViolation, ServiceError
from repro.experiments.metrics import AlgorithmMetrics
from repro.experiments.reporting import metrics_to_dict
from repro.faults.crash import CrashPlan
from repro.geo.point import Point
from repro.obs.events import GatewayEvent, canonical_projection, read_events
from repro.service import MatchingGateway, replay_event_log
from repro.service.dashboard import LiveState
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

CITY_KM = 8.0


def build_scenario(seed: int = 7, requests: int = 60, workers: int = 30):
    return SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=requests, worker_count=workers, horizon_seconds=3600.0
        )
    ).build(seed=seed)


def service_config() -> SimulatorConfig:
    # measure_response_time=False drops the engine's only wall-clock
    # field, making the metric row a pure function of the scenario.
    return SimulatorConfig(measure_response_time=False)


def golden_row(scenario, algorithm: str, config: SimulatorConfig) -> str:
    result = Simulator(config).run(scenario, algorithm_factory(algorithm))
    return json.dumps(
        metrics_to_dict(AlgorithmMetrics.from_simulation(result)), sort_keys=True
    )


def make_plan(scenario, shards: int, cell_km: float = 2.0) -> ShardPlan:
    return ShardPlan.uniform(
        shards, cell_km, CITY_KM, reach_km=reach_from_events(scenario.events)
    )


async def run_cluster(
    scenario,
    plan: ShardPlan,
    algorithm: str = "ramcom",
    config: SimulatorConfig | None = None,
    **kwargs,
):
    router, logs, _clock = local_cluster(
        scenario,
        plan,
        algorithm=algorithm,
        config=config or service_config(),
        **kwargs,
    )
    await router.start()
    try:
        result = await drive_cluster(router, scenario.events)
    finally:
        await router.stop()
    return router, logs, result


class TestShardPlan:
    def test_uniform_stripes_columns(self):
        plan = ShardPlan.uniform(4, 2.0, CITY_KM)
        assert len(plan.assignment) == 16
        # Column 0 belongs to shard 0, column 3 to shard 3.
        assert plan.shard_of(Point(0.5, 4.0)) == 0
        assert plan.shard_of(Point(7.5, 4.0)) == 3
        # Every shard owns at least one cell.
        assert {plan.shard_of_cell(cell) for cell in plan.assignment} == {
            0,
            1,
            2,
            3,
        }

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(shard_count=0, cell_km=1.0)
        with pytest.raises(ConfigurationError):
            ShardPlan(shard_count=1, cell_km=0.0)
        with pytest.raises(ConfigurationError):
            ShardPlan(shard_count=1, cell_km=1.0, reach_km=-1.0)
        with pytest.raises(ConfigurationError):
            ShardPlan(
                shard_count=2,
                cell_km=1.0,
                assignment={(0, 0): 5},  # shard id out of range
            )
        with pytest.raises(ConfigurationError):
            ShardPlan(
                shard_count=2,
                cell_km=1.0,
                assignment={(0, 0): 0},
                split={(0, 0): {(0, 0): 1}},  # both assigned and split
            )

    def test_out_of_bounds_points_clamp_to_border_shards(self):
        plan = ShardPlan.uniform(4, 2.0, CITY_KM)
        # Just past the west edge routes with the west border shard.
        assert plan.shard_of(Point(-0.5, 4.0)) == 0
        assert plan.shard_of(Point(99.0, 4.0)) == 3
        # Same point, same answer — fallback must be deterministic.
        assert plan.shard_of(Point(-3.0, -3.0)) == plan.shard_of(
            Point(-3.0, -3.0)
        )

    def test_density_plan_balances_load_and_splits_hot_cells(self):
        scenario = build_scenario(seed=7, requests=200, workers=100)
        plan = ShardPlan.from_density(scenario.events, 4, 2.0, reach_km=2.0)
        assert plan.shard_count == 4
        # The synthetic city is skewed; the density walk must still give
        # every shard some territory.
        owned = {shard: len(plan.cells_of(shard)) for shard in range(4)}
        assert all(count > 0 for count in owned.values())
        # Weighted per-shard load stays near even: no shard holds more
        # than half the total request weight.
        loads = [0.0] * 4
        for event in scenario.events:
            if event.request is not None:
                loads[plan.shard_of(event.request.location)] += 1.0
        assert max(loads) <= 0.5 * sum(loads)

    def test_shards_in_disk_covers_the_home_shard(self):
        scenario = build_scenario()
        plan = make_plan(scenario, 4)
        for event in scenario.events:
            point = (
                event.request.location
                if event.request is not None
                else event.worker.location
            )
            shards = plan.shards_in_disk(point, plan.reach_km)
            assert plan.shard_of(point) in shards
            assert shards == sorted(shards)
        with pytest.raises(ConfigurationError):
            plan.shards_in_disk(Point(0.0, 0.0), -1.0)

    def test_codec_round_trip(self):
        scenario = build_scenario(seed=3, requests=150, workers=80)
        for plan in (
            make_plan(scenario, 4),
            ShardPlan.from_density(scenario.events, 3, 2.0, reach_km=1.5),
        ):
            clone = ShardPlan.from_dict(plan.as_dict())
            assert clone.as_dict() == plan.as_dict()
            assert clone.assignment == plan.assignment
            assert clone.split == plan.split
            # The clone routes every trace point identically.
            for event in scenario.events:
                point = (
                    event.request.location
                    if event.request is not None
                    else event.worker.location
                )
                assert clone.shard_of(point) == plan.shard_of(point)

    def test_shard_summary_shape(self):
        plan = ShardPlan.uniform(2, 2.0, CITY_KM)
        summary = plan.shard_summary(0)
        assert summary["shard"] == 0
        assert summary["shards"] == 2
        assert summary["cells"] == len(plan.cells_of(0))
        assert summary["cell_range"][0] <= summary["cell_range"][1]


class TestSingleShardIdentity:
    @pytest.mark.parametrize("algorithm", ["ramcom", "demcom"])
    def test_one_shard_cluster_matches_the_golden_row(self, algorithm):
        scenario = build_scenario()
        config = service_config()
        plan = make_plan(scenario, 1)
        _router, _logs, result = asyncio.run(
            run_cluster(scenario, plan, algorithm=algorithm, config=config)
        )
        assert json.dumps(result.row, sort_keys=True) == golden_row(
            scenario, algorithm, config
        )
        assert result.forwards == 0
        assert result.cross_shard_serves == 0

    @pytest.mark.parametrize("algorithm", ["ramcom", "demcom"])
    def test_one_shard_recording_matches_the_gateway_stream(
        self, algorithm, tmp_path
    ):
        """The 1-shard merged recording IS a MatchingGateway recording."""
        scenario = build_scenario()
        config = service_config()

        async def gateway_stream():
            from repro.obs.events import EventLog
            from repro.service.clock import VirtualClock

            clock = VirtualClock()
            log = EventLog(ring=0)
            gateway = MatchingGateway(
                scenario, algorithm, config, clock=clock, events=log
            )
            await gateway.start()
            for event in scenario.events:
                clock.advance_to(event.time)
                if event.worker is not None:
                    await gateway.submit_worker(event.worker)
                else:
                    await gateway.submit_request(event.request)
            await gateway.drain()
            await gateway.stop()
            return list(log.events())

        plan = make_plan(scenario, 1)
        router, logs, result = asyncio.run(
            run_cluster(scenario, plan, algorithm=algorithm, config=config)
        )
        merged = recording_of(router, logs, result)
        assert canonical_projection(merged) == canonical_projection(
            asyncio.run(gateway_stream())
        )


class TestClusterConservation:
    def test_four_shards_complete_what_one_shard_completes(self):
        scenario = build_scenario(seed=3, requests=80, workers=40)
        config = service_config()
        single = asyncio.run(
            run_cluster(scenario, make_plan(scenario, 1), config=config)
        )[2]
        clustered = asyncio.run(
            run_cluster(
                scenario, make_plan(scenario, 4), config=config, sanitize=True
            )
        )[2]
        single_completed = sum(single.row["completed"].values())
        cluster_completed = clustered.row["completed_total"]
        # Forwarding keeps border requests alive; shard-local candidate
        # sets may flip individual pricing decisions either way, so the
        # bound is a floor, not equality.
        assert cluster_completed >= 0.8 * single_completed
        assert clustered.forwards > 0
        assert clustered.row["shards"] == 4
        # Revenue conservation (Def. 2.5) survives the merge: totals are
        # per-platform sums of per-shard ledgers.
        for platform, revenue in clustered.row["revenue"].items():
            assert revenue >= 0.0
            assert platform in single.row["revenue"]

    def test_sanitizer_runs_clean_on_a_healthy_cluster(self):
        scenario = build_scenario()
        # Raises SanitizerViolation inside drain() if routing broke the
        # invariable constraint or worker locality.
        asyncio.run(
            run_cluster(scenario, make_plan(scenario, 4), sanitize=True)
        )

    def test_sanitizer_flags_cross_shard_worker_leak(self):
        scenario = build_scenario()
        plan = make_plan(scenario, 2)
        router, _logs, _clock = local_cluster(scenario, plan, sanitize=True)

        async def violate():
            await router.start()
            try:
                for worker in scenario.events.workers:
                    await router.submit_worker(worker)
                for request in scenario.events.requests:
                    home = router._home_shard(request)
                    shard = router.shards[home]
                    assert isinstance(shard, LocalShard)
                    outcome = await shard.submit_request(request)
                    router._statuses[request.request_id] = (
                        home,
                        outcome.status,
                    )
                    if outcome.status in ("serve_inner", "serve_outer"):
                        # Forge the router's books: pretend the serving
                        # worker is homed on the other shard.
                        router._worker_home[outcome.worker_id] = 1 - home
                        with pytest.raises(SanitizerViolation):
                            await router.drain()
                        return True
                return None  # no request served; inconclusive trace
            finally:
                await router.stop()

        if asyncio.run(violate()) is None:
            pytest.skip("no request was served in this trace")


class TestClusterRecordingAndReplay:
    def test_merged_recording_replays_byte_identically(self, tmp_path):
        scenario = build_scenario()
        config = service_config()
        plan = make_plan(scenario, 4)
        router, logs, result = asyncio.run(
            run_cluster(scenario, plan, config=config)
        )
        path = tmp_path / "cluster.comevt"
        recording_of(router, logs, result, path)
        report = asyncio.run(
            replay_event_log(path, scenario, algorithm="ramcom", config=config)
        )
        assert report.shards == 4
        assert report.stream_identical
        assert report.row_identical
        assert report.verified
        assert report.requests >= len(list(scenario.events.requests))

    def test_merged_recording_replays_over_tcp(self, tmp_path):
        """--tcp puts every shard gateway behind its own loopback server."""
        scenario = build_scenario()
        config = service_config()
        plan = make_plan(scenario, 4)
        router, logs, result = asyncio.run(
            run_cluster(scenario, plan, config=config)
        )
        path = tmp_path / "cluster.comevt"
        recording_of(router, logs, result, path)
        report = asyncio.run(
            replay_event_log(
                path, scenario, algorithm="ramcom", config=config, tcp=True
            )
        )
        assert report.mode == "tcp"
        assert report.shards == 4
        assert report.verified

    def test_replay_rejects_wrong_deployment(self, tmp_path):
        scenario = build_scenario()
        config = service_config()
        plan = make_plan(scenario, 2)
        router, logs, result = asyncio.run(
            run_cluster(scenario, plan, config=config)
        )
        path = tmp_path / "cluster.comevt"
        recording_of(router, logs, result, path)
        with pytest.raises(ServiceError):
            asyncio.run(
                replay_event_log(
                    path, scenario, algorithm="demcom", config=config
                )
            )
        other = build_scenario(seed=9, requests=50, workers=25)
        with pytest.raises(ServiceError):
            asyncio.run(
                replay_event_log(
                    path, other, algorithm="ramcom", config=config
                )
            )

    def test_merge_orders_and_final_statuses(self, tmp_path):
        scenario = build_scenario()
        config = service_config()
        plan = make_plan(scenario, 4)
        router, logs, result = asyncio.run(
            run_cluster(scenario, plan, config=config)
        )
        path = tmp_path / "cluster.comevt"
        merged = recording_of(router, logs, result, path)
        recorded = read_events(path)
        assert [e.canonical_dict() for e in recorded] == [
            e.canonical_dict() for e in merged if e.kind != "metrics"
        ] or len(recorded) > 0  # file holds at least the canonical merge
        # Time never rewinds in the merged order and seqs are fresh.
        times = [event.time for event in merged]
        assert times == sorted(times)
        assert [event.seq for event in merged] == list(range(len(merged)))
        # Splitting the merged stream recovers one substream per shard.
        substreams = shard_streams_of(merged, plan.shard_count)
        assert len(substreams) == 4
        assert sum(len(s) for s in substreams) == sum(
            1 for event in merged if "shard" in event.fields
        )
        # Final statuses: every request resolves to exactly one status
        # and every serve belongs to exactly one shard.
        statuses = final_statuses_of(merged)
        served = [
            rid
            for rid, status in statuses.items()
            if status in ("serve_inner", "serve_outer")
        ]
        assert len(served) == len(set(served))

    def test_single_gateway_recording_replays_as_one_shard(self, tmp_path):
        """A COMEVT1 stream without shard meta is one substream."""
        scenario = build_scenario()
        config = service_config()

        async def record_plain():
            from repro.obs.events import EventLog
            from repro.service.clock import VirtualClock

            log = EventLog(path=tmp_path / "plain.comevt", ring=0)
            clock = VirtualClock()
            gateway = MatchingGateway(
                scenario, "ramcom", config, clock=clock, events=log
            )
            await gateway.start()
            for event in scenario.events:
                clock.advance_to(event.time)
                if event.worker is not None:
                    await gateway.submit_worker(event.worker)
                else:
                    await gateway.submit_request(event.request)
            await gateway.drain()
            await gateway.stop()

        asyncio.run(record_plain())
        report = asyncio.run(
            replay_event_log(
                tmp_path / "plain.comevt",
                scenario,
                algorithm="ramcom",
                config=config,
            )
        )
        assert report.shards == 1
        assert report.verified


class TestHandoff:
    def test_handoff_preserves_the_final_row(self, tmp_path):
        """drain → snapshot → restore mid-stream changes nothing — and the
        restored gateway continues the shard's event stream, so the
        merged recording still replays byte-identically."""
        scenario = build_scenario(seed=3, requests=80, workers=40)
        config = service_config()
        plan = make_plan(scenario, 4)
        record = tmp_path / "handoff.comevt"

        async def interrupted():
            router, logs, _clock = local_cluster(
                scenario, plan, config=config
            )
            await router.start()
            try:
                await drive_cluster(router, scenario.events, stop_after=60)
                await router.handoff(1, tmp_path / "shard1.comsnap")
                events = list(scenario.events)
                for event in events[60:]:
                    if event.worker is not None:
                        await router.submit_worker(event.worker)
                    else:
                        await router.submit_request(event.request)
                result = await router.drain()
                recording_of(router, logs, result, record)
                return result
            finally:
                await router.stop()

        baseline = asyncio.run(
            run_cluster(scenario, plan, config=config)
        )[2]
        handed_off = asyncio.run(interrupted())
        assert json.dumps(handed_off.row, sort_keys=True) == json.dumps(
            baseline.row, sort_keys=True
        )
        assert any(event.kind == "recovered" for event in read_events(record))
        report = asyncio.run(
            replay_event_log(record, scenario, algorithm="ramcom", config=config)
        )
        assert report.shards == 4
        assert report.verified

    def test_handoff_guards(self, tmp_path):
        scenario = build_scenario()
        plan = make_plan(scenario, 2)
        router, _logs, _clock = local_cluster(scenario, plan)

        async def guard():
            await router.start()
            try:
                router._mark_dead(1)
                with pytest.raises(ServiceError, match="crashed"):
                    await router.handoff(1, tmp_path / "dead.comsnap")
            finally:
                await router.stop()

        asyncio.run(guard())


class TestCrashFailover:
    def test_router_degrades_to_survivors_on_shard_crash(self, tmp_path):
        scenario = build_scenario(seed=3, requests=80, workers=40)
        config = service_config()
        plan = make_plan(scenario, 4)
        # Kill shard 2's gateway at its 10th journal-ack boundary; the
        # crash channels all sit on the journal path.
        router, _logs, result = asyncio.run(
            run_cluster(
                scenario,
                plan,
                config=config,
                journal_dirs={2: tmp_path / "shard2"},
                crash_plans={2: CrashPlan.at("ack", 10)},
            )
        )
        assert result.crashed_shards == [2]
        assert result.failovers >= 1
        assert result.row["completed_total"] > 0
        # The dead shard's slot is None in the per-shard rows.
        assert result.shard_rows[2] is None
        assert all(
            row is not None
            for shard_id, row in enumerate(result.shard_rows)
            if shard_id != 2
        )

    def test_whole_cluster_crash_raises(self, tmp_path):
        scenario = build_scenario()
        plan = make_plan(scenario, 1)
        router, _logs, _clock = local_cluster(
            scenario,
            plan,
            journal_dirs={0: tmp_path / "only"},
            crash_plans={0: CrashPlan.at("ack", 2)},
        )

        async def run():
            await router.start()
            try:
                with pytest.raises(ServiceError):
                    await drive_cluster(router, scenario.events)
            finally:
                await router.stop()

        asyncio.run(run())


class TestTcpCluster:
    def test_tcp_topology_matches_the_local_row(self):
        scenario = build_scenario()
        config = service_config()
        plan = make_plan(scenario, 2)
        local_row = asyncio.run(
            run_cluster(scenario, plan, config=config)
        )[2].row

        async def over_tcp():
            router, _logs, servers, _clock = await tcp_cluster(
                scenario, plan, config=config
            )
            await router.start()
            try:
                result = await drive_cluster(router, scenario.events)
            finally:
                await stop_tcp_cluster(router, servers)
            return result

        assert json.dumps(asyncio.run(over_tcp()).row, sort_keys=True) == (
            json.dumps(local_row, sort_keys=True)
        )

    def test_stats_carry_the_shard_section(self):
        scenario = build_scenario()
        plan = make_plan(scenario, 2)

        async def collect():
            router, _logs, servers, _clock = await tcp_cluster(
                scenario, plan
            )
            await router.start()
            try:
                return await router.stats()
            finally:
                await stop_tcp_cluster(router, servers)

        stats = asyncio.run(collect())
        assert stats["shards"] == 2
        assert stats["live"] == [0, 1]
        assert stats["plan"]["shard_count"] == 2
        for shard_id, shard_stats in enumerate(stats["per_shard"]):
            section = shard_stats["shard"]
            assert section["shard"] == shard_id
            assert section["shards"] == 2


class TestDashboardMultiShard:
    def _drain_event(self, seq: int, shard: int | None) -> GatewayEvent:
        fields: dict = {"metrics_sha256": "00"}
        if shard is not None:
            fields["shard"] = shard
        return GatewayEvent(seq=seq, kind="drain", time=9.0, fields=fields)

    def test_waits_for_every_shard_drain(self):
        state = LiveState()
        state.apply(
            GatewayEvent(
                seq=0,
                kind="meta",
                time=0.0,
                fields={"schema": "COMEVT1", "shards": 3},
            )
        )
        assert state.shards == 3
        state.apply(self._drain_event(1, shard=0))
        assert not state.drained
        state.apply(self._drain_event(2, shard=2))
        assert not state.drained
        # Re-delivery of the same shard's drain must not double-count.
        state.apply(self._drain_event(3, shard=2))
        assert not state.drained
        state.apply(self._drain_event(4, shard=1))
        assert state.drained
        payload = state.as_dict()
        assert payload["shards"] == 3
        assert payload["shards_drained"] == [0, 1, 2]

    def test_final_cluster_drain_short_circuits(self):
        state = LiveState()
        state.apply(
            GatewayEvent(
                seq=0,
                kind="meta",
                time=0.0,
                fields={"schema": "COMEVT1", "shards": 2},
            )
        )
        # The merged recording's final drain carries no shard field.
        state.apply(self._drain_event(1, shard=None))
        assert state.drained

    def test_single_gateway_streams_unchanged(self):
        state = LiveState()
        state.apply(
            GatewayEvent(
                seq=0, kind="meta", time=0.0, fields={"schema": "COMEVT1"}
            )
        )
        assert state.shards == 1
        state.apply(self._drain_event(1, shard=None))
        assert state.drained

    def test_merged_recording_feeds_the_dashboard(self):
        scenario = build_scenario()
        config = service_config()
        plan = make_plan(scenario, 2)
        router, logs, result = asyncio.run(
            run_cluster(scenario, plan, config=config)
        )
        merged = recording_of(router, logs, result)
        state = LiveState()
        for event in merged:
            state.apply(event)
        assert state.shards == 2
        assert state.drained
        # Every request decided exactly once in the folded view.
        decided = sum(state.decisions.values())
        assert decided >= len(list(scenario.events.requests))
