"""Tests for :mod:`repro.service` — the online matching gateway.

The anchor property is golden equivalence: a trace replayed through the
service under the virtual clock — in-process, over TCP, or interrupted by
a snapshot/restore — produces a metric row byte-identical to
``Simulator.run`` on the same scenario and config.
"""

from __future__ import annotations

import asyncio
import json
import logging
import pickle
import socket
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Simulator, SimulatorConfig
from repro.core.events import EventKind
from repro.core.registry import algorithm_factory
from repro.errors import ServiceError
from repro.faults import CrashPlan
from repro.experiments.metrics import AlgorithmMetrics
from repro.experiments.reporting import metrics_to_dict
from repro.service import (
    STATUS_SHED,
    AdmissionController,
    AdmissionPolicy,
    GatewayClient,
    JournalConfig,
    MatchingGateway,
    MatchingServer,
    RealTimeClock,
    ServiceOutcome,
    VirtualClock,
    drive_trace,
    read_snapshot,
    recover_gateway,
    write_snapshot,
    request_from_wire,
    request_to_wire,
    worker_from_wire,
    worker_to_wire,
)
from repro.service import server as server_module
from repro.service.server import encode_response
from repro.service.snapshot import EncodedScenario
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

from conftest import make_request, make_scenario, make_worker


def build_scenario(seed: int = 7, requests: int = 60, workers: int = 30):
    return SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=requests, worker_count=workers, horizon_seconds=3600.0
        )
    ).build(seed=seed)


def service_config() -> SimulatorConfig:
    # measure_response_time=False drops the engine's only wall-clock field,
    # making the metric row a pure function of the scenario.
    return SimulatorConfig(measure_response_time=False)


def golden_row(scenario, algorithm: str, config: SimulatorConfig) -> str:
    result = Simulator(config).run(scenario, algorithm_factory(algorithm))
    return json.dumps(
        metrics_to_dict(AlgorithmMetrics.from_simulation(result)), sort_keys=True
    )


def wire_line(verb: str, **fields) -> bytes:
    return json.dumps({"verb": verb, **fields}).encode() + b"\n"


def trace_lines(scenario) -> tuple[list[bytes], list[tuple[str, str]]]:
    """A trace as protocol lines, and the (verb, id) each answer carries."""
    lines: list[bytes] = []
    expected: list[tuple[str, str]] = []
    for event in scenario.events:
        if event.kind is EventKind.WORKER:
            lines.append(wire_line("worker", worker=worker_to_wire(event.worker)))
            expected.append(("worker", event.worker.worker_id))
        else:
            lines.append(
                wire_line("request", request=request_to_wire(event.request))
            )
            expected.append(("request", event.request.request_id))
    return lines, expected


def answer_key(answer: dict) -> tuple[str, str]:
    if answer["verb"] == "worker":
        return "worker", answer["worker_id"]
    return answer["verb"], answer["outcome"]["request_id"]


def raw_burst(host: str, port: int, lines: list[bytes]) -> list[dict]:
    """``sendall`` every line at once on a plain socket, half-close, and
    read answers until the server closes the connection."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(b"".join(lines))
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(1 << 16):
            received += chunk
    return [json.loads(line) for line in received.splitlines()]


def serve_burst(gateway: MatchingGateway, lines: list[bytes]) -> list[dict]:
    async def main():
        server = MatchingServer(gateway)
        host, port = await server.start()
        try:
            return await asyncio.to_thread(raw_burst, host, port, lines)
        finally:
            await server.stop()

    return asyncio.run(main())


async def submit_event(target, event, clock=None) -> None:
    if clock is not None:
        clock.advance_to(event.time)
    if event.kind is EventKind.WORKER:
        await target.submit_worker(event.worker)
    else:
        await target.submit_request(event.request)


def mid_trace_session(scenario, config=None):
    """A session that has applied the first half of ``scenario``."""
    session = Simulator(config or service_config()).session(
        scenario, algorithm_factory("demcom")
    )
    events = list(scenario.events)
    for event in events[: len(events) // 2]:
        session.advance_to(event.time)
        if event.kind is EventKind.WORKER:
            session.submit_worker(event.worker)
        else:
            session.submit_request(event.request)
    return session


class TestClocks:
    def test_virtual_clock_advances_monotonically(self):
        clock = VirtualClock()
        assert clock.virtual and clock.now() == 0.0
        clock.advance_to(5.0)
        clock.advance_to(3.0)  # never rewinds
        assert clock.now() == 5.0

    def test_virtual_sleep_advances_instantly(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep_until(42.0)
            return clock.now()

        assert asyncio.run(main()) == 42.0

    def test_real_time_clock_moves_forward(self):
        clock = RealTimeClock(speed=100.0)
        assert not clock.virtual

        async def main():
            start = clock.now()
            await asyncio.sleep(0.01)
            return clock.now() - start

        assert asyncio.run(main()) > 0.0

    def test_real_time_clock_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            RealTimeClock(speed=0.0)


class TestAdmission:
    def test_policy_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_pending=-1)

    def test_bounded_controller_sheds_at_capacity(self):
        controller = AdmissionController(AdmissionPolicy(max_pending=2))
        assert controller.admit(pending=0)
        assert controller.admit(pending=1)
        assert not controller.admit(pending=2)
        assert (controller.offered, controller.admitted, controller.shed) == (
            3,
            2,
            1,
        )
        assert controller.shed_rate == pytest.approx(1 / 3)

    def test_unbounded_policy_never_sheds(self):
        controller = AdmissionController(AdmissionPolicy(max_pending=0))
        assert controller.policy.unbounded
        assert all(controller.admit(pending=10**6) for _ in range(100))
        assert controller.shed == 0


class TestWireCodecs:
    def test_request_round_trip(self):
        request = make_request("r1", "B", t=4.5, x=1.25, y=-2.5, value=17.0)
        assert request_from_wire(request_to_wire(request), 0.0) == request

    def test_worker_round_trip(self):
        worker = make_worker("w1", "A", t=2.0, x=0.5, y=0.75, radius=2.0)
        assert worker_from_wire(worker_to_wire(worker), 0.0) == worker

    def test_missing_field_raises_service_error(self):
        with pytest.raises(ServiceError):
            request_from_wire({"id": "r1"}, 0.0)

    def test_missing_timestamp_uses_default(self):
        payload = request_to_wire(make_request())
        del payload["t"]
        assert request_from_wire(payload, 9.0).arrival_time == 9.0


#: Ids, statuses and workers, with the characters JSON escapes: quotes,
#: backslashes, control characters, DEL and non-ASCII text.
_WIRE_TEXT = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='ab"\\\x00\x1f\x7f\u00e9\u2028\U0001f600', max_size=6),
    st.sampled_from(["r-17", "serve_inner", "w-3", ""]),
)
_WIRE_FLOAT = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 2.2e-308, 1e300, -1e300, 1.7976931348623157e308]
    ),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_OUTCOMES = st.fixed_dictionaries(
    {
        "request_id": _WIRE_TEXT,
        "status": _WIRE_TEXT,
        "worker_id": st.none() | _WIRE_TEXT,
        "payment": _WIRE_FLOAT,
        "latency_ms": _WIRE_FLOAT,
    }
)
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | _WIRE_FLOAT | _WIRE_TEXT
)
#: Answers of other shapes, which must take the encoder: other verbs,
#: extra or missing keys, and outcome fields of other types.
_OTHER_RESPONSES = st.one_of(
    st.fixed_dictionaries(
        {"ok": st.just(True), "verb": st.just("worker"), "worker_id": _WIRE_TEXT}
    ),
    st.fixed_dictionaries(
        {"ok": st.just(False), "verb": st.just("request"), "error": _WIRE_TEXT}
    ),
    st.fixed_dictionaries(
        {"ok": st.just(True), "verb": st.just("request"), "outcome": _OUTCOMES},
        optional={"extra": _JSON_SCALARS},
    ),
    st.fixed_dictionaries(
        {
            "ok": st.sampled_from([True, 1, False]),
            "verb": st.sampled_from(["request", "shed", None]),
            "outcome": st.none()
            | st.dictionaries(
                st.sampled_from(
                    ["request_id", "status", "worker_id", "payment", "latency_ms"]
                ),
                _JSON_SCALARS,
            ),
        }
    ),
)


def _json_dumps_line(response: dict) -> bytes:
    return json.dumps(response, sort_keys=True).encode() + b"\n"


class TestResponseEncoding:
    @settings(max_examples=500)
    @given(outcome=_OUTCOMES)
    def test_request_answers_match_json_dumps(self, outcome):
        response = {"ok": True, "verb": "request", "outcome": outcome}
        assert encode_response(response) == _json_dumps_line(response)

    @given(response=_OTHER_RESPONSES)
    def test_other_answers_match_json_dumps(self, response):
        assert encode_response(response) == _json_dumps_line(response)

    def test_plain_request_answer_skips_the_encoder(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the encoder was called")

        monkeypatch.setattr(server_module, "_ENCODER", fail)
        outcome = ServiceOutcome("r-1", "serve_outer", "w-2", 3.25, 0.5)
        response = {"ok": True, "verb": "request", "outcome": outcome.as_dict()}
        assert encode_response(response) == _json_dumps_line(response)
        with pytest.raises(AssertionError, match="encoder"):
            encode_response(
                {**response, "outcome": {**outcome.as_dict(), "payment": 3}}
            )


class TestGatewayEquivalence:
    @pytest.mark.parametrize("algorithm", ["demcom", "ramcom"])
    def test_virtual_clock_replay_matches_batch_run(self, algorithm):
        scenario = build_scenario()
        config = service_config()
        golden = golden_row(scenario, algorithm, config)

        async def replay() -> str:
            gateway = MatchingGateway(
                scenario=scenario, algorithm=algorithm, config=config
            )
            await gateway.start()
            for event in scenario.events:
                await submit_event(gateway, event, clock=gateway.clock)
            await gateway.drain()
            return json.dumps(gateway.metrics_dict(), sort_keys=True)

        assert asyncio.run(replay()) == golden

    @pytest.mark.parametrize("algorithm", ["demcom", "ramcom"])
    def test_tcp_replay_matches_batch_run(self, algorithm):
        scenario = build_scenario(seed=9)
        config = service_config()
        golden = golden_row(scenario, algorithm, config)

        async def replay() -> str:
            server = MatchingServer(
                MatchingGateway(
                    scenario=scenario, algorithm=algorithm, config=config
                )
            )
            host, port = await server.start()
            try:
                async with GatewayClient(host, port) as client:
                    metrics = await drive_trace(client, scenario.events)
            finally:
                await server.stop()
            return json.dumps(metrics, sort_keys=True)

        assert asyncio.run(replay()) == golden


class TestGatewayLifecycle:
    def test_submissions_enqueue_before_their_first_suspension(self):
        # What the pipelined server's line order rests on: a submit call
        # puts its job on the decision queue synchronously, so calls
        # started in order enqueue in order.
        workers = [make_worker("w0", "A", t=0.0)]
        requests = [make_request("r0", "A", t=1.0), make_request("r1", "B", t=2.0)]
        scenario = make_scenario(workers, requests)

        async def main():
            gateway = MatchingGateway(scenario=scenario, config=service_config())
            await gateway.start()
            depths = []
            for call in (
                gateway.submit_worker(workers[0]),
                gateway.submit_request(requests[0]),
                gateway.replay_shed(requests[1]),
            ):
                waited_on = call.send(None)  # run to the first suspension
                assert isinstance(waited_on, asyncio.Future)
                assert not waited_on.done()
                depths.append(gateway.stats()["pending"])
                call.close()
            await gateway.stop()
            return depths

        assert asyncio.run(main()) == [1, 2, 3]

    def test_submit_before_start_raises(self):
        gateway = MatchingGateway(scenario=build_scenario(requests=5, workers=3))

        async def main():
            await gateway.submit_worker(make_worker())

        with pytest.raises(ServiceError):
            asyncio.run(main())

    def test_immediate_outcome_and_query(self):
        workers = [make_worker("w0", "A", t=0.0)]
        requests = [make_request("r0", "A", t=1.0)]
        scenario = make_scenario(workers, requests)

        async def main():
            gateway = MatchingGateway(
                scenario=scenario, config=service_config()
            )
            await gateway.start()
            for event in scenario.events:
                await submit_event(gateway, event, clock=gateway.clock)
            outcome = gateway.outcome_of("r0")
            await gateway.drain()
            return outcome

        outcome = asyncio.run(main())
        assert isinstance(outcome, ServiceOutcome)
        assert outcome.request_id == "r0"
        assert outcome.status in {"serve_inner", "serve_outer", "reject"}

    def test_drain_stops_the_gateway(self):
        scenario = build_scenario(requests=5, workers=3)

        async def main():
            gateway = MatchingGateway(scenario=scenario, config=service_config())
            await gateway.start()
            await gateway.drain()
            assert not gateway.running
            with pytest.raises(ServiceError):
                await gateway.submit_worker(make_worker())
            return gateway.metrics_dict()

        metrics = asyncio.run(main())
        assert metrics["algorithm"] == "RamCOM"

    def test_stats_shape(self):
        scenario = build_scenario(requests=5, workers=3)
        request_count = sum(
            1 for e in scenario.events if e.kind is not EventKind.WORKER
        )

        async def main():
            gateway = MatchingGateway(scenario=scenario, config=service_config())
            await gateway.start()
            for event in scenario.events:
                await submit_event(gateway, event, clock=gateway.clock)
            stats = gateway.stats()
            await gateway.drain()
            return stats

        stats = asyncio.run(main())
        assert stats["algorithm"] == "RamCOM"
        assert stats["running"] is True
        assert stats["decided"] == request_count > 0
        assert stats["admission"]["shed"] == 0
        assert stats["clock"]["virtual"] is True
        assert "service_decisions_total" in stats["metrics"]["counters"]


class TestAdmissionShedding:
    def test_overload_sheds_requests_but_not_workers(self):
        scenario = build_scenario(requests=40, workers=10)
        events = list(scenario.events)

        async def main():
            gateway = MatchingGateway(
                scenario=scenario,
                config=service_config(),
                admission=AdmissionPolicy(max_pending=1),
            )
            await gateway.start()
            for event in events:
                gateway.clock.advance_to(event.time)
            # Fire every submission concurrently so the queue backs up.
            worker_jobs = [
                gateway.submit_worker(e.worker)
                for e in events
                if e.kind is EventKind.WORKER
            ]
            request_jobs = [
                gateway.submit_request(e.request)
                for e in events
                if e.kind is not EventKind.WORKER
            ]
            outcomes = await asyncio.gather(*request_jobs)
            await asyncio.gather(*worker_jobs)
            await gateway.stop()
            return gateway, outcomes

        gateway, outcomes = asyncio.run(main())
        shed = [o for o in outcomes if o.status == STATUS_SHED]
        assert gateway.admission.shed == len(shed) > 0
        assert gateway.admission.offered == len(outcomes)
        assert 0.0 < gateway.admission.shed_rate < 1.0
        # Workers are never shed: all of them reached the engine.
        stats = gateway.stats()
        assert "service_shed_total" in stats["metrics"]["counters"]


class TestSnapshotRestore:
    def test_mid_stream_restore_matches_uninterrupted_run(self, tmp_path):
        scenario = build_scenario(seed=11)
        config = service_config()
        golden = golden_row(scenario, "ramcom", config)
        events = list(scenario.events)
        cut = len(events) // 2
        path = tmp_path / "mid.snap"

        async def main() -> str:
            gateway = MatchingGateway(
                scenario=scenario, algorithm="ramcom", config=config
            )
            await gateway.start()
            for event in events[:cut]:
                await submit_event(gateway, event, clock=gateway.clock)
            await gateway.snapshot(path)
            await gateway.stop()

            restored = MatchingGateway.from_snapshot(path)
            await restored.start()
            for event in events[cut:]:
                await submit_event(restored, event, clock=restored.clock)
            await restored.drain()
            return json.dumps(restored.metrics_dict(), sort_keys=True)

        assert asyncio.run(main()) == golden

    def test_snapshot_preserves_outcome_log(self, tmp_path):
        scenario = build_scenario(requests=10, workers=5)
        events = list(scenario.events)
        path = tmp_path / "log.snap"

        async def main():
            gateway = MatchingGateway(scenario=scenario, config=service_config())
            await gateway.start()
            for event in events[: len(events) // 2]:
                await submit_event(gateway, event, clock=gateway.clock)
            await gateway.snapshot(path)
            decided = {
                rid: gateway.outcome_of(rid)
                for e in events[: len(events) // 2]
                if e.kind is not EventKind.WORKER
                for rid in [e.request.request_id]
            }
            await gateway.stop()
            restored = MatchingGateway.from_snapshot(path)
            return decided, restored

        decided, restored = asyncio.run(main())
        assert decided
        for request_id, outcome in decided.items():
            assert restored.outcome_of(request_id) == outcome

    def test_snapshot_rejects_telemetry_sessions(self, tmp_path):
        from repro.obs import Telemetry

        scenario = build_scenario(requests=5, workers=3)
        config = SimulatorConfig(
            measure_response_time=False, telemetry=Telemetry()
        )

        async def main():
            gateway = MatchingGateway(scenario=scenario, config=config)
            await gateway.start()
            try:
                with pytest.raises(ServiceError):
                    await gateway.snapshot(tmp_path / "no.snap")
            finally:
                await gateway.stop()

        asyncio.run(main())

    def test_read_snapshot_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.snap"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(ServiceError):
            read_snapshot(path)

    def test_format_two_snapshot_is_refused_by_format(self, tmp_path):
        session = mid_trace_session(build_scenario(requests=10, workers=5))
        session.on_resolution = None
        payload = pickle.dumps(
            {"format": 2, "session": session, "outcomes": {}, "meta": {}}
        )
        path = tmp_path / "old.snap"
        path.write_bytes(
            b"COMSNAP1\n"
            + struct.pack(">QI", len(payload), zlib.crc32(payload))
            + payload
        )
        with pytest.raises(ServiceError, match="snapshot format 2 != 3"):
            read_snapshot(path)

    def test_flipped_state_byte_fails_the_checksum(self, tmp_path):
        scenario = build_scenario(requests=10, workers=5)
        path = write_snapshot(mid_trace_session(scenario), {}, tmp_path / "s.snap")
        blob = bytearray(path.read_bytes())
        state_start = len(b"COMSNAP1\n") + 12 + len(EncodedScenario(scenario).payload)
        flipped = (state_start + len(blob)) // 2
        blob[flipped] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ServiceError, match="checksum"):
            read_snapshot(path)

    def test_restored_state_shares_the_restored_scenario_objects(self, tmp_path):
        scenario = build_scenario(seed=11, requests=60, workers=20)
        config = SimulatorConfig(
            worker_reentry=True,
            service_duration=600.0,
            measure_response_time=False,
        )
        path = write_snapshot(
            mid_trace_session(scenario, config), {}, tmp_path / "r.snap"
        )
        session, _, _ = read_snapshot(path)
        restored = session.scenario
        workers = {worker.worker_id: worker for worker in restored.events.workers}
        requests = {r.request_id: r for r in restored.events.requests}
        held = [
            worker
            for pid in restored.platform_ids
            for worker in session.exchange.inner_list(pid).workers()
        ]
        for outcome in session.outcomes.values():
            for record in outcome.ledger.records:
                held.append(record.worker)
                assert record.request is requests[record.request.request_id]
        clones = [w for w in held if w.worker_id not in workers]
        assert clones and all("@reentry" in w.worker_id for w in clones)
        for worker in held:
            if worker in clones:
                base = workers[worker.worker_id.partition("@reentry")[0]]
                assert worker.location is base.location
            else:
                assert worker is workers[worker.worker_id]


class TestServerProtocol:
    def test_protocol_verbs_and_errors(self, tmp_path):
        scenario = build_scenario(requests=8, workers=4)

        async def main():
            server = MatchingServer(
                MatchingGateway(scenario=scenario, config=service_config())
            )
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)

                async def raw(payload) -> dict:
                    writer.write(json.dumps(payload).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                ping = await raw({"verb": "ping"})
                unknown = await raw({"verb": "frobnicate"})
                bad_request = await raw({"verb": "request", "request": {}})
                not_json = None
                writer.write(b"this is not json\n")
                await writer.drain()
                not_json = json.loads(await reader.readline())
                missing = await raw({"verb": "outcome", "request_id": "nope"})
                snapshot = await raw(
                    {"verb": "snapshot", "path": str(tmp_path / "wire.snap")}
                )
                writer.close()
                return ping, unknown, bad_request, not_json, missing, snapshot
            finally:
                await server.stop()

        ping, unknown, bad_request, not_json, missing, snapshot = asyncio.run(
            main()
        )
        assert snapshot["ok"]
        restored = MatchingGateway.from_snapshot(snapshot["path"])
        assert restored.scenario.name == scenario.name
        assert ping["ok"] and ping["virtual"] is True
        assert not unknown["ok"] and "unknown verb" in unknown["error"]
        assert not bad_request["ok"] and "missing field" in bad_request["error"]
        assert not not_json["ok"] and "bad JSON" in not_json["error"]
        assert missing["ok"] and missing["outcome"] is None

    @pytest.mark.parametrize("algorithm", ["demcom", "ramcom"])
    def test_pipelined_burst_answers_in_order_and_matches_batch(
        self, algorithm
    ):
        scenario = build_scenario(seed=11, requests=60, workers=30)
        config = service_config()
        lines, expected = trace_lines(scenario)
        answers = serve_burst(
            MatchingGateway(scenario=scenario, algorithm=algorithm, config=config),
            lines + [wire_line("drain")],
        )
        assert len(answers) == len(lines) + 1
        assert all(answer["ok"] for answer in answers)
        assert [answer_key(answer) for answer in answers[:-1]] == expected
        assert all(
            answer["outcome"]["status"] != STATUS_SHED
            for answer in answers
            if answer["verb"] == "request"
        )
        drained = json.dumps(answers[-1]["metrics"], sort_keys=True)
        assert drained == golden_row(scenario, algorithm, config)

    def test_pipelined_barrier_sees_earlier_request_decided(self):
        scenario = build_scenario(requests=10, workers=6)
        lines, expected = trace_lines(scenario)
        first = next(
            index for index, (verb, _) in enumerate(expected) if verb == "request"
        )
        request_id = expected[first][1]
        burst = lines[: first + 1] + [
            wire_line("outcome", request_id=request_id),
            wire_line("stats"),
        ]
        answers = serve_burst(
            MatchingGateway(scenario=scenario, config=service_config()), burst
        )
        decided, looked_up, stats = answers[first], answers[-2], answers[-1]
        assert looked_up["ok"] and looked_up["outcome"] is not None
        assert looked_up["outcome"]["status"] == decided["outcome"]["status"]
        assert looked_up["outcome"]["worker_id"] == decided["outcome"]["worker_id"]
        assert stats["stats"]["decided"] == 1

    def test_malformed_line_mid_burst_is_answered_in_place(self):
        scenario = build_scenario(seed=3, requests=12, workers=6)
        config = service_config()
        lines, expected = trace_lines(scenario)
        burst = (
            lines[:2]
            + [b"this is not json\n", wire_line("frobnicate")]
            + lines[2:]
            + [wire_line("drain")]
        )
        answers = serve_burst(
            MatchingGateway(scenario=scenario, config=config), burst
        )
        assert len(answers) == len(burst)
        bad_json, unknown = answers[2], answers[3]
        assert not bad_json["ok"] and "bad JSON" in bad_json["error"]
        assert not unknown["ok"] and "unknown verb" in unknown["error"]
        rest = answers[:2] + answers[4:-1]
        assert all(answer["ok"] for answer in rest)
        assert [answer_key(answer) for answer in rest] == expected
        drained = json.dumps(answers[-1]["metrics"], sort_keys=True)
        assert drained == golden_row(scenario, "ramcom", config)

    def test_non_utf8_line_is_answered_and_the_connection_lives(self):
        scenario = build_scenario(requests=4, workers=2)
        ping = wire_line("ping")
        answers = serve_burst(
            MatchingGateway(scenario=scenario, config=service_config()),
            [ping, b"\xff\n", ping],
        )
        assert len(answers) == 3
        assert answers[0]["ok"] and answers[2]["ok"]
        assert not answers[1]["ok"] and "bad JSON" in answers[1]["error"]

    @pytest.mark.parametrize(
        "line",
        [
            b"\x80",
            b"\xfe\xff",
            b"\xe2\x82",
            b"\xc0\xaf",
            b"\xed\xa0\x80",
            b'{"verb": "ping\xfe"}',
            b'{"verb": "ping"}\xff',
            b'{"verb": "worker", "worker": {"id": "\xff"}}',
        ],
        ids=[
            "lone-continuation",
            "utf16-bom",
            "truncated-sequence",
            "overlong",
            "encoded-surrogate",
            "inside-a-string",
            "after-the-object",
            "inside-a-payload",
        ],
    )
    def test_undecodable_line_mid_burst_is_answered_in_place(self, line):
        """Whatever way a line fails to decode, it gets its own ``bad
        JSON`` answer in line order and the trace around it still drains
        to the batch row."""
        scenario = build_scenario(seed=3, requests=6, workers=3)
        config = service_config()
        lines, expected = trace_lines(scenario)
        burst = lines[:2] + [line + b"\n"] + lines[2:] + [wire_line("drain")]
        answers = serve_burst(
            MatchingGateway(scenario=scenario, config=config), burst
        )
        assert len(answers) == len(burst)
        assert not answers[2]["ok"] and "bad JSON" in answers[2]["error"]
        rest = answers[:2] + answers[3:-1]
        assert [answer_key(answer) for answer in rest] == expected
        drained = json.dumps(answers[-1]["metrics"], sort_keys=True)
        assert drained == golden_row(scenario, "ramcom", config)

    @pytest.mark.parametrize("algorithm", ["demcom", "ramcom"])
    def test_pipelined_crash_answers_nothing_after_the_kill_point(
        self, tmp_path, algorithm
    ):
        scenario = build_scenario(seed=17, requests=30, workers=12)
        config = service_config()
        lines, expected = trace_lines(scenario)
        gateway = MatchingGateway(
            scenario=scenario,
            algorithm=algorithm,
            config=config,
            journal=JournalConfig(directory=tmp_path),
            crash_plan=CrashPlan.at("ack", 6),
        )
        answers = serve_burst(gateway, lines + [wire_line("drain")])
        assert gateway.crash_error is not None
        # Only answers released before the kill point may have left, in
        # line order; the crashed line and everything after stay silent.
        assert len(answers) <= 6
        assert all(answer["ok"] for answer in answers)
        assert [answer_key(answer) for answer in answers] == expected[
            : len(answers)
        ]
        recovered, report = recover_gateway(tmp_path)
        assert report.records_replayed > 0
        # The client resends the whole trace: dedup absorbs what the
        # journal already holds.
        answers = serve_burst(recovered, lines + [wire_line("drain")])
        assert all(answer["ok"] for answer in answers)
        assert [answer_key(answer) for answer in answers[:-1]] == expected
        drained = json.dumps(answers[-1]["metrics"], sort_keys=True)
        assert drained == golden_row(scenario, algorithm, config)

    def test_pipelining_group_commits_and_lock_step_does_not(self, tmp_path):
        scenario = build_scenario(seed=5, requests=40, workers=20)
        config = service_config()
        lines, __ = trace_lines(scenario)
        answers = serve_burst(
            MatchingGateway(
                scenario=scenario,
                config=config,
                journal=JournalConfig(directory=tmp_path / "pipelined"),
            ),
            lines + [wire_line("stats")],
        )
        pipelined = answers[-1]["stats"]["journal"]

        async def lock_step():
            server = MatchingServer(
                MatchingGateway(
                    scenario=scenario,
                    config=config,
                    journal=JournalConfig(directory=tmp_path / "lock-step"),
                )
            )
            host, port = await server.start()
            try:
                async with GatewayClient(host, port) as client:
                    for event in scenario.events:
                        await submit_event(client, event)
                    return (await client.stats())["journal"]
            finally:
                await server.stop()

        serialized = asyncio.run(lock_step())
        assert pipelined["records"] == serialized["records"]
        assert pipelined["commits"] < pipelined["records"]
        assert serialized["commits"] == serialized["records"]

    def test_disconnect_mid_window_and_stop_log_nothing(self, caplog):
        scenario = build_scenario(seed=9, requests=60, workers=30)
        config = service_config()
        lines, __ = trace_lines(scenario)

        def send_and_vanish(host: str, port: int) -> None:
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(b"".join(lines))

        async def vanishing_client():
            server = MatchingServer(
                MatchingGateway(scenario=scenario, config=config)
            )
            host, port = await server.start()
            try:
                await asyncio.to_thread(send_and_vanish, host, port)
                # The gateway outlives the client's window.  (How many of
                # its lines got decided depends on whether the client's
                # close raced its answers into a reset.)
                async with GatewayClient(host, port) as client:
                    return await client.drain()
            finally:
                await server.stop()

        async def stop_mid_window(sock: socket.socket):
            server = MatchingServer(
                MatchingGateway(scenario=scenario, config=config)
            )
            host, port = await server.start()
            await asyncio.to_thread(sock.connect, (host, port))
            sock.sendall(b"".join(lines[:40]))  # fits the socket buffers
            first = await asyncio.to_thread(sock.recv, 1 << 16)
            await server.stop()  # the client is still connected
            return json.loads(first.split(b"\n")[0])

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            drained = asyncio.run(vanishing_client())
            with socket.socket() as sock:
                sock.settimeout(30)
                first = asyncio.run(stop_mid_window(sock))
        assert drained["algorithm"] == "RamCOM"
        assert first["ok"]
        assert not [
            record
            for record in caplog.records
            if record.levelno >= logging.WARNING
        ]

    def test_client_raises_on_error_response(self):
        scenario = build_scenario(requests=5, workers=3)

        async def main():
            server = MatchingServer(
                MatchingGateway(scenario=scenario, config=service_config())
            )
            host, port = await server.start()
            try:
                async with GatewayClient(host, port) as client:
                    with pytest.raises(ServiceError):
                        await client.call("frobnicate")
                    stats = await client.stats()
                    return stats
            finally:
                await server.stop()

        stats = asyncio.run(main())
        assert stats["algorithm"] == "RamCOM"
