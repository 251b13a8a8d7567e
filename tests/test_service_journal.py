"""Crash-safety tests: the ``COMWAL1`` journal, recovery, and the soak.

The anchor property extends PR 5's golden equivalence through process
death: a trace replayed through a *journaled* gateway that is killed at
**any** kill-point boundary (lost append, torn tail, checkpoint death,
swallowed ack) and recovered from checkpoint + journal suffix produces a
metrics row byte-identical to an uninterrupted ``Simulator.run`` — for
DemCOM and RamCOM (tests/test_service.py drives the same crash and
recovery over TCP).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import warnings
from pathlib import Path

import pytest

from repro.core import Simulator, SimulatorConfig
from repro.core.events import EventKind
from repro.core.registry import algorithm_factory
from repro.errors import ConfigurationError, InducedCrash, JournalError, ServiceError
from repro.experiments.metrics import AlgorithmMetrics
from repro.experiments.reporting import metrics_to_dict
from repro.faults import CRASH_CHANNELS, CrashInjector, CrashPlan
from repro.obs.events import (
    EVENT_FORMAT,
    EventLog,
    canonical_projection,
    read_events,
)
from repro.service.journal import JOURNAL_MAGIC
from repro.service.replay import recorded_arrivals, replay_event_log
from repro.service import (
    JOURNAL_FORMAT,
    GatewayClient,
    Journal,
    JournalConfig,
    MatchingGateway,
    MatchingServer,
    SoakConfig,
    recover_gateway,
    run_soak,
    scan_journal,
    write_snapshot,
)
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

from conftest import make_request, make_scenario, make_worker


def build_scenario(seed: int = 13, requests: int = 8, workers: int = 4):
    return SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=requests, worker_count=workers, horizon_seconds=3600.0
        )
    ).build(seed=seed)


def service_config() -> SimulatorConfig:
    return SimulatorConfig(measure_response_time=False)


def golden_row(scenario, algorithm: str, config: SimulatorConfig) -> str:
    result = Simulator(config).run(scenario, algorithm_factory(algorithm))
    return json.dumps(
        metrics_to_dict(AlgorithmMetrics.from_simulation(result)), sort_keys=True
    )


#: Small knobs so short traces cross several fsync and checkpoint
#: boundaries (the property test needs every channel to have kill points).
JOURNAL_KWARGS = {"fsync": "interval", "fsync_interval": 4, "checkpoint_every": 6}


def journal_config(directory) -> JournalConfig:
    return JournalConfig(directory=directory, **JOURNAL_KWARGS)


def _induced(gateway: MatchingGateway, error: Exception) -> bool:
    """True when ``error`` is the armed kill point making itself felt.

    A kill point that fires *after* an acknowledgement went out (e.g.
    inside the post-batch checkpoint) kills the loop asynchronously; the
    next call then sees ``ServiceError("gateway crashed")`` instead of
    the ``InducedCrash`` itself — just like a real client noticing a dead
    process one call late.
    """
    return isinstance(error, InducedCrash) or isinstance(
        gateway.crash_error, InducedCrash
    )


async def drive_with_recovery(
    scenario, algorithm, config, directory, plan: CrashPlan, events=None
) -> tuple[MatchingGateway, int]:
    """Replay the full trace with one armed kill point, recovering on crash.

    Models the documented operator loop: the process dies mid-call, a
    supervisor recovers from disk, and the client retries the in-flight
    arrival (request-ID dedup absorbs it if it was journaled).  Returns
    the drained gateway and the number of induced crashes (0 when the
    kill point's index lies beyond the channel's last boundary).
    ``events`` records a ``COMEVT1`` stream there, resumed by every
    recovery.
    """
    directory = Path(directory)
    arrivals = list(scenario.events)
    crashes = 0
    try:
        gateway = MatchingGateway(
            scenario=scenario,
            algorithm=algorithm,
            config=config,
            journal=journal_config(directory),
            crash_plan=plan,
            events=events,
        )
    except InducedCrash:
        # Died during journal bootstrap.  If the anchoring checkpoint
        # never landed, nothing was ever acknowledged and the documented
        # operator action (wipe, start fresh) is lossless.
        crashes += 1
        try:
            gateway, __ = recover_gateway(journal_config(directory), events=events)
        except ServiceError:
            shutil.rmtree(directory)
            directory.mkdir()
            gateway = MatchingGateway(
                scenario=scenario,
                algorithm=algorithm,
                config=config,
                journal=journal_config(directory),
                events=events,
            )
    await gateway.start()
    index = 0
    while index < len(arrivals):
        event = arrivals[index]
        gateway.clock.advance_to(event.time)
        try:
            if event.kind is EventKind.WORKER:
                await gateway.submit_worker(event.worker)
            else:
                await gateway.submit_request(event.request)
        except (InducedCrash, ServiceError) as error:
            if not _induced(gateway, error):
                raise
            crashes += 1
            gateway, __ = recover_gateway(journal_config(directory), events=events)
            await gateway.start()
            continue  # retry the in-flight arrival
        index += 1
    try:
        await gateway.drain()
    except (InducedCrash, ServiceError) as error:
        # Finalize appends resolution records, so a late kill point can
        # fire mid-drain; recovery rolls back to the replayed arrivals
        # and a second drain finalizes deterministically.
        if not _induced(gateway, error):
            raise
        crashes += 1
        gateway, __ = recover_gateway(journal_config(directory), events=events)
        await gateway.start()
        await gateway.drain()
    return gateway, crashes


class TestJournalFile:
    def test_append_commit_scan_round_trip(self, tmp_path):
        path = tmp_path / "events.walog"
        journal = Journal.create(path)
        assert (
            journal.append("meta", 0.0, format=JOURNAL_FORMAT, algorithm="RamCOM")
            == 0
        )
        assert journal.append_worker_ref("w0", 1.0) == 1
        assert (
            journal.append_request_ref("r0", 2.5, "A", "serve_inner", "w0", 12.5)
            == 2
        )
        journal.commit()
        journal.close()
        records = scan_journal(path)
        assert [record.seq for record in records] == [0, 1, 2]
        assert [record.kind for record in records] == [
            "meta",
            "worker",
            "decision",
        ]
        assert [record.time for record in records] == [0.0, 1.0, 2.5]
        assert records[1].fields == {"ref": "w0"}
        assert records[2].fields == {
            "ref": "r0",
            "platform": "A",
            "status": "serve_inner",
            "worker": "w0",
            "payment": 12.5,
        }

    def test_ref_fast_paths_encode_byte_identically(self, tmp_path):
        """The hand-formatted hot-path encoders must produce the exact
        bytes the generic ``json.dumps`` path would."""
        generic = Journal.create(tmp_path / "generic.walog")
        generic.append("worker", 3.5, ref="w012")
        generic.append(
            "decision",
            4.25,
            ref="r1",
            platform="A",
            status="serve_outer",
            worker="w3",
            payment=13.734208101,
        )
        generic.append(
            "decision",
            5.0,
            ref="r2",
            platform="B",
            status="reject",
            worker=None,
            payment=0.0,
        )
        generic.commit()
        generic.close()
        fast = Journal.create(tmp_path / "fast.walog")
        fast.append_worker_ref("w012", 3.5)
        fast.append_request_ref("r1", 4.25, "A", "serve_outer", "w3", 13.734208101)
        fast.append_request_ref("r2", 5.0, "B", "reject", None, 0.0)
        fast.commit()
        fast.close()
        assert (tmp_path / "fast.walog").read_bytes() == (
            tmp_path / "generic.walog"
        ).read_bytes()

    def test_ref_fast_paths_fall_back_on_unfriendly_values(self, tmp_path):
        path = tmp_path / "events.walog"
        journal = Journal.create(path)
        journal.append_worker_ref('we"ird\\id', 1.0)
        journal.append_request_ref("r0", 2.0, "A", "reject", None, float("inf"))
        journal.commit()
        journal.close()
        records = scan_journal(path)
        assert records[0].fields == {"ref": 'we"ird\\id'}
        assert records[1].fields["payment"] == float("inf")

    def test_append_is_not_durable_until_commit(self, tmp_path):
        path = tmp_path / "events.walog"
        journal = Journal.create(path)
        journal.append("worker", 0.0, ref="w0")
        assert scan_journal(path) == []  # buffered, not yet written
        journal.commit()
        assert len(scan_journal(path)) == 1
        journal.close()

    def test_open_truncates_torn_tail_and_appends_after_it(self, tmp_path):
        path = tmp_path / "events.walog"
        journal = Journal.create(path)
        journal.append("worker", 0.0, ref="w0")
        journal.commit()
        journal.close()
        intact = path.read_bytes()
        path.write_bytes(intact + b"\x00\x00\x00\x40AB")  # partial frame
        reopened, records = Journal.open(path)
        assert reopened.torn_bytes_dropped == 6
        assert [record.seq for record in records] == [0]
        reopened.append("worker", 0.0, ref="w1")
        reopened.commit()
        reopened.close()
        assert [record.seq for record in scan_journal(path)] == [0, 1]

    def test_mid_file_corruption_is_not_a_torn_tail(self, tmp_path):
        path = tmp_path / "events.walog"
        journal = Journal.create(path)
        journal.append("worker", 0.0, ref="w0")
        journal.append("worker", 0.0, ref="w1")
        journal.commit()
        journal.close()
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF  # flip a byte inside record 0's payload
        path.write_bytes(bytes(blob))
        with pytest.raises(JournalError, match="mid-file corruption"):
            scan_journal(path)

    def test_foreign_file_and_clobber_are_rejected(self, tmp_path):
        path = tmp_path / "events.walog"
        path.write_bytes(b"not a journal at all\n")
        with pytest.raises(JournalError, match="not a COMWAL1 journal"):
            scan_journal(path)
        with pytest.raises(JournalError, match="already exists"):
            Journal.create(path)

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = Journal.create(tmp_path / "events.walog")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append("worker", 0.0, ref="w0")
        with pytest.raises(JournalError, match="closed"):
            journal.append_worker_ref("w0", 0.0)

    def test_close_flushes_buffered_records(self, tmp_path):
        # The journal may run ahead of acknowledgements, never behind:
        # closing with a dirty buffer writes it out.
        path = tmp_path / "events.walog"
        journal = Journal.create(path)
        journal.append("worker", 0.0, ref="w0")
        journal.close()
        assert len(scan_journal(path)) == 1

    def test_fsync_always_round_trip(self, tmp_path):
        path = tmp_path / "events.walog"
        journal = Journal.create(path, fsync="always")
        journal.append("worker", 0.0, ref="w0")
        journal.commit()
        journal.close()
        assert len(scan_journal(path)) == 1

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JournalConfig(directory=tmp_path, fsync="sometimes")
        with pytest.raises(ConfigurationError):
            JournalConfig(directory=tmp_path, fsync_interval=0)
        with pytest.raises(ConfigurationError):
            JournalConfig(directory=tmp_path, checkpoint_every=-1)


class TestCrashPlan:
    def test_unknown_channel_and_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashPlan.at("power_cord", 0)
        with pytest.raises(ConfigurationError):
            CrashPlan.at("ack", -1)

    def test_injector_fires_exactly_at_its_index(self):
        injector = CrashInjector(CrashPlan.at("ack", 2))
        assert injector.active
        injector.fire("ack")
        injector.fire("journal_append")  # independent channel counters
        assert not injector.fires_next("ack")
        injector.fire("ack")
        assert injector.fires_next("ack")
        with pytest.raises(InducedCrash):
            injector.fire("ack")
        injector.fire("ack")  # past the kill point: inert again

    def test_zero_plan_is_inert(self):
        injector = CrashInjector(None)
        assert not injector.active
        for _ in range(100):
            injector.fire("ack")


class TestCrashRecoveryEveryBoundary:
    """Satellite #3: kill the gateway at *every* boundary of every channel
    on a short trace; recovery must be byte-identical every single time."""

    #: Safety cap on boundary enumeration (a short trace has far fewer).
    _CAP = 80

    @pytest.mark.parametrize("algorithm", ["demcom", "ramcom"])
    @pytest.mark.parametrize("channel", CRASH_CHANNELS)
    def test_byte_identical_recovery_at_every_boundary(
        self, tmp_path, algorithm, channel
    ):
        scenario = build_scenario()
        config = service_config()
        golden = golden_row(scenario, algorithm, config)
        events = list(scenario.events)
        boundaries = 0
        for index in range(self._CAP):
            directory = tmp_path / f"{channel}-{index}"
            directory.mkdir()
            gateway, crashes = asyncio.run(
                drive_with_recovery(
                    scenario,
                    algorithm,
                    config,
                    directory,
                    CrashPlan.at(channel, index),
                )
            )
            row = json.dumps(gateway.metrics_dict(), sort_keys=True)
            assert row == golden, (
                f"recovery after a {channel} crash at boundary {index} "
                f"diverged from the uninterrupted run"
            )
            if crashes == 0:
                break  # past the channel's last boundary: exhausted
            boundaries += 1
            shutil.rmtree(directory)  # bound tmp usage across ~50 runs
        else:
            pytest.fail(f"{channel} still firing after {self._CAP} boundaries")
        # Every arrival crosses an append/torn/ack boundary; checkpoints
        # are sparser but the cadence guarantees periodic ones.
        floor = 2 if channel == "checkpoint" else len(events)
        assert boundaries >= floor


class TestCrashRecoveryStreamIdentity:
    """A deferring algorithm through crash→recover at every boundary: the
    resolutions a batch flush emits must reach the ``COMEVT1`` stream
    exactly once, so the recorded stream's canonical projection equals
    the uninterrupted run's."""

    _CAP = 80

    @staticmethod
    def uninterrupted(scenario, config) -> bytes:
        async def main():
            log = EventLog(ring=0)
            gateway = MatchingGateway(
                scenario=scenario, algorithm="batch", config=config, events=log
            )
            await gateway.start()
            for event in scenario.events:
                gateway.clock.advance_to(event.time)
                if event.kind is EventKind.WORKER:
                    await gateway.submit_worker(event.worker)
                else:
                    await gateway.submit_request(event.request)
            await gateway.drain()
            return canonical_projection(log.events())

        return asyncio.run(main())

    @pytest.mark.parametrize("channel", CRASH_CHANNELS)
    def test_batch_stream_identical_at_every_boundary(self, tmp_path, channel):
        scenario = build_scenario(seed=29, requests=12, workers=5)
        config = service_config()
        golden = golden_row(scenario, "batch", config)
        expected = self.uninterrupted(scenario, config)
        assert b'"kind":"resolution"' in expected  # the batch defers
        boundaries = 0
        for index in range(self._CAP):
            directory = tmp_path / f"{channel}-{index}"
            directory.mkdir()
            events = tmp_path / f"{channel}-{index}.comevt"
            gateway, crashes = asyncio.run(
                drive_with_recovery(
                    scenario,
                    "batch",
                    config,
                    directory,
                    CrashPlan.at(channel, index),
                    events=events,
                )
            )
            assert json.dumps(gateway.metrics_dict(), sort_keys=True) == golden
            assert canonical_projection(read_events(events)) == expected, (
                f"stream after a {channel} crash at boundary {index} "
                f"diverged from the uninterrupted run"
            )
            if crashes == 0:
                break
            boundaries += 1
            shutil.rmtree(directory)
            events.unlink()
        else:
            pytest.fail(f"{channel} still firing after {self._CAP} boundaries")
        assert boundaries >= 2


def journaled_run(
    directory, scenario, algorithm="ramcom", events=None, shed=frozenset()
):
    """Drive every arrival through a journaled gateway, then stop it;
    requests whose id is in ``shed`` are shed instead of decided."""

    async def main():
        gateway = MatchingGateway(
            scenario=scenario,
            algorithm=algorithm,
            config=service_config(),
            journal=journal_config(directory),
            events=events,
        )
        await gateway.start()
        for event in scenario.events:
            gateway.clock.advance_to(event.time)
            if event.kind is EventKind.WORKER:
                await gateway.submit_worker(event.worker)
            elif event.request.request_id in shed:
                await gateway.replay_shed(event.request)
            else:
                await gateway.submit_request(event.request)
        await gateway.stop()

    asyncio.run(main())


class TestOneRecordSchema:
    """The journal and the event log carry the same records."""

    def test_journal_and_event_log_decode_to_the_same_arrivals(self, tmp_path):
        scenario = build_scenario(seed=29, requests=12, workers=5)
        events = tmp_path / "events.comevt"
        shed = {scenario.events.requests[3].request_id}
        journaled_run(
            tmp_path / "wal", scenario, "batch", events=events, shed=shed
        )
        journal = scan_journal(journal_config(tmp_path / "wal").journal_path)
        stream = read_events(events)
        assert any("ref" in record.fields for record in journal)

        def arrivals(records):
            return [
                (
                    kind,
                    entity.worker_id if kind == "worker" else entity.request_id,
                    outcome,
                )
                for kind, entity, outcome in recorded_arrivals(records, scenario)
            ]

        def resolutions(records):
            return [
                (record.time, record.fields)
                for record in records
                if record.kind == "resolution"
            ]

        assert arrivals(journal) == arrivals(stream)
        assert len(arrivals(journal)) == sum(1 for _ in scenario.events)
        assert [
            entity_id for kind, entity_id, __ in arrivals(journal) if kind == "shed"
        ] == list(shed)
        assert resolutions(journal) == resolutions(stream)
        assert resolutions(journal)  # the batch deferred and resolved
        journal_meta = journal[0].fields
        stream_meta = stream[0].fields
        assert journal_meta.pop("format") == JOURNAL_FORMAT
        assert stream_meta.pop("format") == EVENT_FORMAT
        assert journal_meta == stream_meta


class TestKilledEventLog:
    """A killed process loses the event log's write-behind buffer but not
    the committed journal; recovery completes the stream from it."""

    def test_recovery_backfills_events_lost_to_a_kill(self, tmp_path):
        scenario = build_scenario(seed=7, requests=120, workers=40)
        config = service_config()
        arrivals = list(scenario.events)
        live_dir, live_events = tmp_path / "live", tmp_path / "live.comevt"
        dead_dir, dead_events = tmp_path / "dead", tmp_path / "dead.comevt"

        async def submit(gateway, event):
            gateway.clock.advance_to(event.time)
            if event.kind is EventKind.WORKER:
                await gateway.submit_worker(event.worker)
            else:
                await gateway.submit_request(event.request)

        async def main():
            gateway = MatchingGateway(
                scenario=scenario,
                config=config,
                journal=JournalConfig(directory=live_dir),
                events=live_events,
            )
            await gateway.start()
            for event in arrivals[:100]:
                await submit(gateway, event)
            # What the OS holds after a SIGKILL: nothing closed or flushed.
            shutil.copytree(live_dir, dead_dir)
            shutil.copyfile(live_events, dead_events)
            await gateway.stop()
            gateway.events.close()
            journaled = scan_journal(JournalConfig(dead_dir).journal_path)
            assert len(journaled) > len(read_events(dead_events))
            recovered, __ = recover_gateway(dead_dir, events=dead_events)
            await recovered.start()
            for event in arrivals[100:]:
                await submit(recovered, event)
            await recovered.drain()
            recovered.events.close()
            return await replay_event_log(dead_events, scenario, config=config)

        report = asyncio.run(main())
        assert report.verified, report.as_dict()
        assert report.workers + report.requests == len(arrivals)

    def test_an_event_log_the_journal_does_not_extend_is_refused(self, tmp_path):
        journaled_run(tmp_path / "a", build_scenario(), events=tmp_path / "a.comevt")
        journaled_run(
            tmp_path / "b", build_scenario(seed=14), events=tmp_path / "b.comevt"
        )
        with pytest.raises(JournalError, match="not a prefix of the journal"):
            recover_gateway(
                journal_config(tmp_path / "a"), events=tmp_path / "b.comevt"
            )


def unclosed_files(run, suffix: str) -> list[str]:
    """``ResourceWarning`` messages naming a ``suffix`` file that was
    garbage-collected open while ``run`` ran."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run()
        gc.collect()
    return [
        str(warning.message)
        for warning in caught
        if issubclass(warning.category, ResourceWarning)
        and suffix in str(warning.message)
    ]


class TestEventLogLifetime:
    """A gateway closes the event log it opened from a path when it stops,
    as it closes its journal; a log the caller passed in stays open for
    the caller (a cluster handoff re-attaches it to the next gateway)."""

    def test_stop_closes_a_log_opened_from_a_path(self, tmp_path):
        def run():
            journaled_run(
                tmp_path / "wal", build_scenario(), events=tmp_path / "run.comevt"
            )

        assert unclosed_files(run, ".comevt") == []
        assert read_events(tmp_path / "run.comevt")[0].kind == "meta"

    def test_drain_closes_a_log_resumed_by_recovery(self, tmp_path):
        scenario = build_scenario()
        events = tmp_path / "run.comevt"
        journaled_run(tmp_path / "wal", scenario, events=events)

        def run():
            async def main():
                gateway, __ = recover_gateway(tmp_path / "wal", events=events)
                await gateway.start()
                await gateway.drain()

            asyncio.run(main())

        assert unclosed_files(run, ".comevt") == []
        assert read_events(events)[-1].kind == "drain"

    def test_a_caller_supplied_log_stays_open(self, tmp_path):
        log = EventLog(tmp_path / "run.comevt")

        async def main():
            gateway = MatchingGateway(
                scenario=build_scenario(), config=service_config(), events=log
            )
            await gateway.start()
            await gateway.drain()

        asyncio.run(main())
        log.emit("note", 0.0)
        log.close()
        assert read_events(tmp_path / "run.comevt")[-1].kind == "note"


class TestJournalLifetime:
    """A kill point inside the gateway constructor (the birth record or
    the anchoring checkpoint) leaves no journal handle open: the
    constructor raises, so nothing else could close it."""

    @pytest.mark.parametrize(
        "channel", ["journal_append", "journal_torn", "checkpoint"]
    )
    def test_constructor_crash_closes_the_journal(self, tmp_path, channel):
        def run():
            with pytest.raises(InducedCrash):
                MatchingGateway(
                    scenario=build_scenario(),
                    config=service_config(),
                    journal=journal_config(tmp_path),
                    crash_plan=CrashPlan.at(channel, 0),
                )

        assert unclosed_files(run, ".walog") == []


class TestRecoveryEdges:
    def test_bootstrap_crash_leaves_no_checkpoint(self, tmp_path):
        config = journal_config(tmp_path)
        journal = Journal.create(config.journal_path)
        journal.append("meta", 0.0, format=JOURNAL_FORMAT)
        journal.commit()
        journal.close()
        with pytest.raises(ServiceError, match="no checkpoint"):
            recover_gateway(journal_config(tmp_path))

    def test_corrupt_checkpoint_is_rejected(self, tmp_path):
        scenario = build_scenario()

        async def main():
            gateway = MatchingGateway(
                scenario=scenario,
                config=service_config(),
                journal=journal_config(tmp_path),
            )
            await gateway.start()
            await gateway.stop()

        asyncio.run(main())
        config = journal_config(tmp_path)
        config.checkpoint_path.write_bytes(b"garbage, not a COMSNAP1")
        with pytest.raises(ServiceError):
            recover_gateway(journal_config(tmp_path))

    def test_checkpoint_from_a_different_history_is_rejected(self, tmp_path):
        config = journal_config(tmp_path)
        journal = Journal.create(config.journal_path)
        journal.append("meta", 0.0, format=JOURNAL_FORMAT)
        journal.commit()
        journal.close()
        scenario = build_scenario()
        session = Simulator(service_config()).session(
            scenario, algorithm_factory("ramcom")
        )
        write_snapshot(
            session,
            {},
            config.checkpoint_path,
            meta={"journal_seq": 99, "journal_format": JOURNAL_FORMAT},
        )
        with pytest.raises(JournalError, match="different histories"):
            recover_gateway(journal_config(tmp_path))

    @pytest.mark.parametrize("leftover", [b"", JOURNAL_MAGIC])
    def test_emptied_journal_is_from_a_different_history(
        self, tmp_path, leftover
    ):
        # A journal that lost every record cannot continue its checkpoint:
        # recovering would restart seq at 0 under a later checkpoint.
        journaled_run(tmp_path, build_scenario(requests=15, workers=10))
        config = journal_config(tmp_path)
        config.journal_path.write_bytes(leftover)
        match = "different histories" if leftover else "not a COMWAL1 journal"
        with pytest.raises(JournalError, match=match):
            recover_gateway(journal_config(tmp_path))

    def test_checkpoint_of_an_older_journal_format_is_rejected(self, tmp_path):
        config = journal_config(tmp_path)
        journal = Journal.create(config.journal_path)
        journal.append("meta", 0.0, format=1)
        journal.close()
        session = Simulator(service_config()).session(
            build_scenario(), algorithm_factory("ramcom")
        )
        write_snapshot(
            session,
            {},
            config.checkpoint_path,
            meta={"journal_seq": 1, "journal_format": 1},
        )
        with pytest.raises(JournalError, match="format 1; this build reads format 2"):
            recover_gateway(journal_config(tmp_path))

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("format", 1, r"format 1 \(expected 2\)"),
            ("algorithm", "DemCOM", r"algorithm 'DemCOM' \(expected 'RamCOM'\)"),
            ("scenario", "elsewhere", r"scenario 'elsewhere' \(expected"),
        ],
    )
    def test_journal_meta_must_describe_the_checkpoint(
        self, tmp_path, field, value, match
    ):
        journaled_run(tmp_path, build_scenario())
        path = journal_config(tmp_path).journal_path
        records = scan_journal(path)
        path.unlink()
        forged = Journal.create(path)
        for record in records:
            fields = dict(record.fields)
            if record.kind == "meta":
                fields[field] = value
            forged.append(record.kind, record.time, **fields)
        forged.close()
        with pytest.raises(JournalError, match=match):
            recover_gateway(journal_config(tmp_path))

    def test_replay_divergence_is_rejected(self, tmp_path):
        scenario = build_scenario()
        events = list(scenario.events)
        cut = len(events) // 2

        async def main():
            gateway = MatchingGateway(
                scenario=scenario,
                config=service_config(),
                journal=journal_config(tmp_path),
            )
            await gateway.start()
            for event in events[:cut]:
                gateway.clock.advance_to(event.time)
                if event.kind is EventKind.WORKER:
                    await gateway.submit_worker(event.worker)
                else:
                    await gateway.submit_request(event.request)
            await gateway.stop()

        asyncio.run(main())
        # Forge a decision the engine would never make for a not-yet-seen
        # request: replay must refuse to serve from such a journal.
        undecided = next(
            event.request
            for event in events[cut:]
            if event.kind is not EventKind.WORKER
        )
        config = journal_config(tmp_path)
        journal, __ = Journal.open(config.journal_path)
        journal.append_request_ref(
            undecided.request_id,
            undecided.arrival_time,
            undecided.platform_id,
            "serve_inner",
            "ghost-worker",
            9999.0,
        )
        journal.commit()
        journal.close()
        with pytest.raises(JournalError, match="replay diverged"):
            recover_gateway(journal_config(tmp_path))

    def test_ref_outside_the_scenario_is_rejected(self, tmp_path):
        journaled_run(tmp_path, build_scenario())
        journal, __ = Journal.open(journal_config(tmp_path).journal_path)
        journal.append_worker_ref("ghost-worker", 1.0)
        journal.close()
        with pytest.raises(JournalError, match="ref not in the scenario"):
            recover_gateway(journal_config(tmp_path))

    def test_unknown_record_kind_is_rejected(self, tmp_path):
        scenario = build_scenario()

        async def main():
            gateway = MatchingGateway(
                scenario=scenario,
                config=service_config(),
                journal=journal_config(tmp_path),
            )
            await gateway.start()
            await gateway.stop()

        asyncio.run(main())
        config = journal_config(tmp_path)
        journal, __ = Journal.open(config.journal_path)
        journal.append("frobnicate", 0.0, x=1)
        journal.commit()
        journal.close()
        with pytest.raises(JournalError, match="unknown kind"):
            recover_gateway(journal_config(tmp_path))

    def test_crashed_gateway_refuses_further_submissions(self, tmp_path):
        scenario = build_scenario()
        events = list(scenario.events)

        async def main():
            gateway = MatchingGateway(
                scenario=scenario,
                config=service_config(),
                journal=journal_config(tmp_path),
                crash_plan=CrashPlan.at("ack", 2),
            )
            await gateway.start()
            crashed = False
            for event in events:
                gateway.clock.advance_to(event.time)
                try:
                    if event.kind is EventKind.WORKER:
                        await gateway.submit_worker(event.worker)
                    else:
                        await gateway.submit_request(event.request)
                except InducedCrash:
                    crashed = True
                    break
            assert crashed
            assert gateway.crash_error is not None
            assert gateway.stats()["crashed"] is True
            with pytest.raises(ServiceError, match="gateway crashed"):
                await gateway.submit_worker(make_worker("w-late", "A"))

        asyncio.run(main())


class TestJournaledDedup:
    def test_duplicate_submissions_answer_from_the_outcome_log(self, tmp_path):
        workers = [make_worker("w0", "A", t=0.0)]
        requests = [make_request("r0", "A", t=1.0)]
        scenario = make_scenario(workers, requests)

        async def main():
            gateway = MatchingGateway(
                scenario=scenario,
                config=service_config(),
                journal=journal_config(tmp_path),
            )
            await gateway.start()
            await gateway.submit_worker(workers[0])
            await gateway.submit_worker(workers[0])  # retry: no-op
            first = await gateway.submit_request(requests[0])
            second = await gateway.submit_request(requests[0])  # retry
            stats = gateway.stats()
            await gateway.stop()
            return first, second, stats

        first, second, stats = asyncio.run(main())
        assert second.matches(first)
        dedup = stats["metrics"]["counters"]["service_dedup_total"]
        assert sum(series["value"] for series in dedup) == 2
        assert stats["journal"] is not None
        assert stats["journal"]["records"] >= 4  # meta + checkpoint + ops


    def test_in_flight_duplicates_wait_for_the_first(self, tmp_path):
        workers = [make_worker("w0", "A", t=0.0)]
        requests = [make_request("r0", "A", t=1.0)]
        scenario = make_scenario(workers, requests)

        async def main():
            gateway = MatchingGateway(
                scenario=scenario,
                config=service_config(),
                journal=journal_config(tmp_path),
            )
            await gateway.start()
            # Both copies are queued before either is applied (a
            # pipelined client's retry): the second waits for the first.
            await asyncio.gather(
                gateway.submit_worker(workers[0]),
                gateway.submit_worker(workers[0]),
            )
            first, second = await asyncio.gather(
                gateway.submit_request(requests[0]),
                gateway.submit_request(requests[0]),
            )
            stats = gateway.stats()
            await gateway.stop()
            return first, second, stats

        first, second, stats = asyncio.run(main())
        assert not stats["crashed"]
        assert first.status == "serve_inner"
        assert second.matches(first)
        dedup = stats["metrics"]["counters"]["service_dedup_total"]
        assert sum(series["value"] for series in dedup) == 2
        assert stats["journal"]["records"] == 4  # meta + checkpoint + ops


class TestTcpCrashRecovery:
    """A client sees a server crash as a :class:`ServiceError`; a
    supervisor recovers the journal on the same port, and a fresh
    connection resubmits from the unanswered arrival on.  The client
    never reconnects by itself."""

    @pytest.mark.parametrize("algorithm", ["demcom", "ramcom"])
    def test_fresh_client_resumes_after_crash_and_recovery(
        self, tmp_path, algorithm
    ):
        scenario = build_scenario(seed=17, requests=10, workers=5)
        config = service_config()
        events = list(scenario.events)

        async def submit(client, event):
            if event.worker is not None:
                await client.submit_worker(event.worker)
            else:
                await client.submit_request(event.request)

        async def main():
            gateway = MatchingGateway(
                scenario=scenario,
                algorithm=algorithm,
                config=config,
                journal=journal_config(tmp_path / "wal"),
                crash_plan=CrashPlan.at("ack", 6),
            )
            server = MatchingServer(gateway)
            host, port = await server.start()
            answered = 0
            try:
                async with GatewayClient(host, port) as client:
                    with pytest.raises(ServiceError):
                        for event in events:
                            await submit(client, event)
                            answered += 1
            finally:
                await server.stop()
            assert gateway.crash_error is not None
            replacement, report = recover_gateway(journal_config(tmp_path / "wal"))
            respawn = MatchingServer(replacement, host=host, port=port)
            await respawn.start()
            try:
                async with GatewayClient(host, port) as client:
                    for event in events[answered:]:
                        await submit(client, event)
                    metrics = await client.drain()
            finally:
                await respawn.stop()
            return metrics, answered, report

        metrics, answered, report = asyncio.run(main())
        assert 0 < answered < len(events)
        assert report.records_replayed > 0
        assert json.dumps(metrics, sort_keys=True) == golden_row(
            scenario, algorithm, config
        )

    def test_a_refused_connection_is_not_retried(self):
        # Reserve a port, then free it: the one connect attempt is refused
        # and surfaces at once.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()

        async def main():
            client = GatewayClient(host, port)
            with pytest.raises(ConnectionRefusedError):
                await client.connect()
            with pytest.raises(ServiceError, match="not connected"):
                await client.ping()

        asyncio.run(main())


class TestCheckpointDurability:
    @pytest.mark.parametrize(
        ("policy", "synced"), [("always", True), ("interval", False), ("never", False)]
    )
    def test_checkpoint_fsyncs_file_and_directory_only_under_always(
        self, tmp_path, monkeypatch, policy, synced
    ):
        synced_inodes = []
        real_fsync = os.fsync

        def recording_fsync(descriptor):
            synced_inodes.append(os.fstat(descriptor).st_ino)
            real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        config = JournalConfig(directory=tmp_path, fsync=policy)

        async def main():
            gateway = MatchingGateway(
                scenario=build_scenario(), config=service_config(), journal=config
            )
            await gateway.start()
            await gateway.stop()

        asyncio.run(main())
        assert (config.checkpoint_path.stat().st_ino in synced_inodes) is synced
        assert (tmp_path.stat().st_ino in synced_inodes) is synced


class TestSoakSmoke:
    @pytest.mark.parametrize("algorithm", ["demcom", "ramcom"])
    def test_soak_with_worker_reentry_matches_the_batch_run(
        self, tmp_path, algorithm
    ):
        # A small city, so reentry clones serve a share of the requests.
        scenario = SyntheticWorkload(
            SyntheticWorkloadConfig(
                request_count=40,
                worker_count=20,
                horizon_seconds=3600.0,
                city_km=2.0,
            )
        ).build(seed=21)
        config = SimulatorConfig(
            worker_reentry=True,
            service_duration=600.0,
            measure_response_time=False,
        )
        batch = Simulator(config).run(scenario, algorithm_factory(algorithm))
        assert any(
            "@reentry" in record.worker.worker_id for record in batch.all_records()
        )
        report = asyncio.run(
            run_soak(
                scenario,
                tmp_path,
                algorithm=algorithm,
                config=config,
                soak=SoakConfig(cycles=3),
            )
        )
        assert report.induced_crashes == 3
        assert report.metrics_identical
        assert report.events_identical is True
        assert "memory_mb" in report.metrics_row
        assert json.dumps(report.metrics_row, sort_keys=True) == golden_row(
            scenario, algorithm, config
        )

    def test_three_cycle_soak_is_byte_identical(self, tmp_path):
        scenario = build_scenario(seed=21, requests=40, workers=20)
        report = asyncio.run(
            run_soak(
                scenario,
                tmp_path,
                algorithm="ramcom",
                config=service_config(),
                soak=SoakConfig(cycles=3, seed=7),
            )
        )
        assert report.induced_crashes == 3
        assert report.retries == 3
        assert len(report.recoveries) == 3
        assert report.metrics_identical
        assert report.sanitizer_enabled
        assert report.events_submitted == sum(1 for _ in scenario.events)
        assert report.max_recovery_seconds > 0.0
        # The COMEVT1 stream recorded across the induced crashes must
        # replay byte-identically (canonical projection strips the
        # crash/recovered markers and seq renumbering).
        assert report.events_identical is True
        assert report.event_count > 0
        payload = report.as_dict()
        assert payload["metrics_identical"] is True
        assert payload["events_identical"] is True
        assert len(payload["recoveries"]) == 3

    def test_soak_without_event_log_skips_event_identity(self, tmp_path):
        scenario = build_scenario(seed=22, requests=20, workers=10)
        report = asyncio.run(
            run_soak(
                scenario,
                tmp_path,
                algorithm="ramcom",
                config=service_config(),
                soak=SoakConfig(cycles=1, seed=3, events=False),
            )
        )
        assert report.metrics_identical
        assert report.events_identical is None
        assert report.event_count == 0

    def test_soak_config_validation(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(cycles=-1)
        with pytest.raises(ConfigurationError):
            SoakConfig(speed=-0.5)
