"""Tests for ``com-repro replay`` over a generated trace.

The command records the trace through one
:class:`~repro.service.gateway.MatchingGateway` (in process, or behind a
loopback :class:`~repro.service.server.MatchingServer` with ``--tcp``),
optionally hands the gateway over through a snapshot mid-stream, and
with ``--verify`` re-drives the recording through
:func:`~repro.service.replay.replay_event_log`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import _service_config, _service_scenario, build_parser, main
from repro.core.registry import available_algorithms
from repro.errors import ServiceError
from repro.experiments.reporting import golden_row
from repro.obs.events import canonical_projection, encode_canonical, read_events
from repro.service import LiveState

#: The generated trace every test here records: 40 requests and 20
#: workers, so 60 arrivals.
SCALE = ["--requests", "40", "--workers", "20", "--seed", "5"]
ARRIVALS = 60


def record(tmp_path: Path, *flags: str, name: str = "run") -> tuple[Path, dict]:
    """Run ``replay`` over the trace; return the recording and the report."""
    recording = tmp_path / f"{name}.comevt"
    output = tmp_path / f"{name}.json"
    argv = ["replay", *SCALE, *flags]
    assert main([*argv, "--events", str(recording), "--output", str(output)]) == 0
    return recording, json.loads(output.read_text())


def expected_row(*flags: str) -> bytes:
    """``Simulator.run``'s row for the trace, canonically encoded."""
    args = build_parser().parse_args(["replay", *SCALE, *flags])
    return encode_canonical(
        golden_row(_service_scenario(args), args.algorithm, _service_config(args))
    )


class TestRecording:
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_every_algorithm_records_a_verified_golden_run(
        self, algorithm, capsys, tmp_path
    ):
        recording, report = record(tmp_path, "--algorithm", algorithm, "--verify")
        assert "VERIFY OK" in capsys.readouterr().out
        assert encode_canonical(report["row"]) == expected_row(
            "--algorithm", algorithm
        )
        assert report["replay"]["verified"]
        kinds = [event.kind for event in read_events(recording)]
        assert kinds[0] == "meta" and kinds[-1] == "drain"
        assert kinds.count("worker") == 20 and kinds.count("decision") == 40

    @pytest.mark.parametrize("algorithm", ["ramcom", "demcom"])
    def test_tcp_recording_is_byte_identical_to_in_process(
        self, algorithm, tmp_path
    ):
        """The wire adds nothing to the recording: the same gateway
        writes the same COMEVT1 bytes whether or not a server fronts it."""
        flags = ("--algorithm", algorithm)
        local, _ = record(tmp_path, *flags, name="local")
        wired, _ = record(tmp_path, *flags, "--tcp", name="wired")
        assert local.read_bytes() == wired.read_bytes()

    @pytest.mark.parametrize(
        "flags, mode", [((), "in-process"), (("--tcp",), "tcp")]
    )
    def test_report_names_the_mode_and_counts_completions(
        self, flags, mode, tmp_path
    ):
        _, report = record(tmp_path, *flags, "--verify")
        assert set(report) == {"mode", "completed", "row", "replay"}
        assert report["mode"] == mode
        assert report["completed"] == sum(report["row"]["completed"].values())
        assert report["replay"]["mode"] == mode
        assert "shards" not in report["replay"]


class TestSnapshotDrill:
    @pytest.mark.parametrize("algorithm", ["ramcom", "demcom"])
    @pytest.mark.parametrize("cut", [0, 1, 17, ARRIVALS - 1, ARRIVALS, 500])
    def test_handoff_at_any_cut_keeps_the_golden_row(
        self, cut, algorithm, capsys, tmp_path
    ):
        """Snapshot → stop → restore after any number of arrivals, from
        none to past the end, leaves ``Simulator.run``'s row and a
        recording that verifies."""
        flags = ("--algorithm", algorithm)
        recording, report = record(
            tmp_path, *flags, "--snapshot-at", str(cut), "--verify"
        )
        out = capsys.readouterr().out
        assert f"checkpointed after {min(cut, ARRIVALS)} events" in out
        assert "VERIFY OK" in out
        assert encode_canonical(report["row"]) == expected_row(*flags)
        kinds = [event.kind for event in read_events(recording)]
        assert kinds.count("recovered") == 1

    def test_negative_cut_hands_over_before_the_first_arrival(
        self, capsys, tmp_path
    ):
        recording, _ = record(tmp_path, "--snapshot-at", "-5", "--verify")
        out = capsys.readouterr().out
        assert "checkpointed after 0 events" in out and "VERIFY OK" in out
        kinds = [event.kind for event in read_events(recording)]
        assert kinds.index("recovered") < kinds.index("worker")

    def test_handoff_changes_only_the_recovered_marker(self, tmp_path):
        straight, _ = record(tmp_path, name="straight")
        drilled, _ = record(tmp_path, "--snapshot-at", "30", name="drilled")
        assert canonical_projection(read_events(straight)) == canonical_projection(
            read_events(drilled)
        )
        assert straight.read_bytes() != drilled.read_bytes()


class TestReplayLog:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--algorithm", "demcom"],
            ["--algorithm", "tota"],
            ["--requests", "41"],
            ["--workers", "21"],
        ],
        ids=" ".join,
    )
    def test_foreign_deployment_is_refused(self, flags, tmp_path):
        """The recording's meta event names its algorithm and scenario;
        replaying it against another raises instead of diverging."""
        recording, _ = record(tmp_path)
        argv = ["replay", "--log", str(recording), *SCALE, *flags, "--verify"]
        with pytest.raises(ServiceError, match="does not match this deployment"):
            main(argv)

    def test_other_seed_diverges_and_fails_verification(self, capsys, tmp_path):
        """Same scenario name, other arrivals: the meta check passes, the
        byte comparison does not."""
        recording, _ = record(tmp_path)
        capsys.readouterr()
        argv = ["replay", "--log", str(recording), *SCALE, "--seed", "6"]
        assert main([*argv, "--verify"]) == 1
        out = capsys.readouterr().out
        assert "stream DIVERGED" in out and "VERIFY FAIL" in out

    def test_torn_recording_fails_verification(self, capsys, tmp_path):
        """Losing the final frame (the drain) is tolerated on read but the
        replay's own drain then has nothing to match."""
        recording, _ = record(tmp_path)
        recording.write_bytes(recording.read_bytes()[:-5])
        assert read_events(recording)[-1].kind != "drain"
        capsys.readouterr()
        assert main(["replay", "--log", str(recording), *SCALE, "--verify"]) == 1
        assert "VERIFY FAIL" in capsys.readouterr().out


class TestSanitizedReplay:
    @pytest.mark.parametrize("flags", [(), ("--tcp",)], ids=["in-process", "tcp"])
    def test_replay_runs_clean_under_both_sanitizers(
        self, flags, monkeypatch, capsys, tmp_path
    ):
        """With the constraint and concurrency sanitizers forced on, the
        recording run and its verified replay raise nothing."""
        monkeypatch.setenv("COM_REPRO_SANITIZE", "1")
        monkeypatch.setenv("COM_REPRO_SANITIZE_CONCURRENCY", "1")
        _, report = record(tmp_path, *flags, "--verify")
        assert "VERIFY OK" in capsys.readouterr().out
        assert encode_canonical(report["row"]) == expected_row()


class TestDashboardFold:
    @pytest.mark.parametrize("algorithm", ["ramcom", "demcom"])
    def test_recording_folds_into_one_drained_world(self, algorithm, tmp_path):
        recording, report = record(tmp_path, "--algorithm", algorithm)
        state = LiveState()
        for event in read_events(recording):
            state.apply(event)
        assert state.drained
        assert len(state.workers) == 20 and len(state.requests) == 40
        decided = sum(
            1 for event in read_events(recording) if event.kind == "decision"
        )
        assert decided == 40
        # Each completed assignment folds in as exactly one match.
        assert len(state.matches) == report["completed"] > 0
