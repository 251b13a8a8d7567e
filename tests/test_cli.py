"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import asyncio
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: Subcommands that no longer exist, each replaced by another front door:
#: the service verbs by ``serve``/``replay``, the experiment verbs by the
#: ``benchmarks/`` file that runs the same study, ``quickstart`` by
#: ``examples/quickstart.py`` and ``algorithms`` by the usage error an
#: unknown ``--algorithm`` gets.
RETIRED_COMMANDS = [
    "serve-cluster",
    "replay-serve",
    "replay-cluster",
    "replay-events",
    "table",
    "figure",
    "cr",
    "chaos",
    "sensitivity",
    "ablation",
    "reproduce",
    "datasets",
    "quickstart",
    "algorithms",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["trace", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "trace" in out and "--no-wall" in out

    def test_trace_arguments(self):
        args = build_parser().parse_args(
            ["trace", "--algorithm", "demcom", "--no-wall", "--seed", "3"]
        )
        assert args.command == "trace"
        assert args.algorithm == "demcom"
        assert args.no_wall is True
        assert args.seed == 3

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"com-repro {__version__}" in capsys.readouterr().out

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--port", "4000", "--real-time", "--speed", "60"]
        )
        assert args.command == "serve"
        assert args.port == 4000
        assert args.real_time is True
        assert args.speed == 60.0
        assert args.max_pending == 1024

    def test_replay_arguments(self):
        args = build_parser().parse_args(
            ["replay", "--algorithm", "demcom", "--verify"]
        )
        assert args.command == "replay"
        assert args.algorithm == "demcom"
        assert args.verify is True
        assert args.snapshot_at is None
        assert args.log is None

    def test_shared_defaults_are_hoisted(self):
        from repro.cli import (
            DEFAULT_DEMO_REQUESTS,
            DEFAULT_DEMO_WORKERS,
            DEFAULT_SERVICE_DURATION,
        )

        for command in ("serve", "replay", "soak"):
            args = build_parser().parse_args([command])
            assert args.service_duration == DEFAULT_SERVICE_DURATION
            assert args.requests == DEFAULT_DEMO_REQUESTS
            assert args.workers == DEFAULT_DEMO_WORKERS

    @pytest.mark.parametrize("removed", RETIRED_COMMANDS)
    def test_retired_commands_are_rejected(self, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([removed])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--shards", "2"],
            ["serve", "--cell-km", "3"],
            ["serve", "--hetero"],
            ["serve", "--shard-base-port", "9000"],
            ["replay", "--shards", "2"],
            ["replay", "--crash-shard", "1"],
            ["replay", "--crash-index", "3"],
            ["replay", "--crash-channel", "ack"],
            ["lint", "--jobs", "2"],
        ],
        ids=" ".join,
    )
    def test_retired_flags_are_rejected(self, argv, capsys):
        """The gateway cluster's flags and ``lint --jobs`` are gone."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


#: The subcommands that take ``--algorithm``.
ALGORITHM_COMMANDS = ["trace", "serve", "replay", "soak"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--restore", "X.snap", "--journal", "dir"],
            ["serve", "--restore", "X.snap", "--events", "run.comevt"],
            ["replay", "--snapshot-at", "5", "--tcp"],
            ["replay", "--log", "run.comevt", "--events", "out.comevt"],
            ["replay", "--log", "run.comevt", "--snapshot-at", "5"],
            ["replay", "--log", "run.comevt", "--snapshot-at", "0"],
            ["replay", "--snapshot-at", "0", "--tcp"],
            ["serve", "--restore", "X.snap", "--journal", "dir", "--events", "e"],
            *([command, "--algorithm", "nope"] for command in ALGORITHM_COMMANDS),
            ["replay", "--log", "run.comevt", "--algorithm", "off"],
        ],
        ids=" ".join,
    )
    def test_invalid_combination_is_a_usage_error(self, argv, capsys, monkeypatch):
        """Exit 2 with one argparse error line — never a traceback, never a
        silently ignored flag — before any handler runs, so no socket is
        ever opened."""
        import repro.cli

        def handler_ran(_args):
            raise AssertionError("the command handler ran")

        for command in ALGORITHM_COMMANDS:
            monkeypatch.setitem(repro.cli._COMMANDS, command, handler_ran)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("com-repro: error:")
        if "--algorithm" in argv:
            from repro.core.registry import available_algorithms

            assert f"available: {', '.join(available_algorithms())}" in errors[0]

    @pytest.mark.parametrize(
        "argv",
        [
            # One gateway takes every serving option, journal and
            # dashboard included.
            ["serve", "--checkpoint-every", "64"],
            ["serve", "--dashboard", "0"],
            ["serve", "--dashboard-cell-km", "0.5"],
            ["serve", "--fsync", "always"],
            ["serve", "--fsync-interval", "16"],
            ["serve", "--max-pending", "8"],
            ["serve", "--real-time", "--speed", "60"],
            ["serve", "--restore", "X.snap", "--dashboard", "0"],
            ["serve", "--journal", "dir", "--events", "run.comevt"],
            ["replay", "--snapshot-at", "5", "--events", "out.comevt"],
            ["replay", "--snapshot-at", "5", "--verify", "--output", "r.json"],
            ["replay", "--tcp", "--events", "out.comevt", "--verify"],
            ["replay", "--log", "run.comevt", "--tcp", "--verify"],
            ["replay", "--log", "run.comevt", "--output", "r.json"],
        ],
        ids=" ".join,
    )
    def test_usable_combination_reaches_the_handler(self, argv, monkeypatch):
        import repro.cli

        ran = []
        monkeypatch.setitem(repro.cli._COMMANDS, argv[0], ran.append)
        main(argv)
        assert len(ran) == 1 and ran[0].command == argv[0]

    @pytest.mark.parametrize("spelling", ["RamCOM", "DEMCOM", "Greedy-RT", "tota"])
    def test_algorithm_names_are_case_insensitive(self, spelling, monkeypatch):
        import repro.cli

        ran = []
        for command in ALGORITHM_COMMANDS:
            monkeypatch.setitem(repro.cli._COMMANDS, command, ran.append)
            main([command, "--algorithm", spelling])
        assert [args.algorithm for args in ran] == [spelling] * len(ALGORITHM_COMMANDS)


class TestCommands:
    @pytest.mark.parametrize(
        "flags, scale, expected",
        [
            # The recording's verified replay includes the Simulator.run
            # golden row.
            (["--verify"], ["30", "15"], ["(in-process)", "VERIFY OK"]),
            # Recovery drill: checkpoint mid-stream, finish from the snapshot.
            (
                ["--snapshot-at", "20", "--verify"],
                ["30", "15"],
                ["checkpointed after 20 events", "VERIFY OK"],
            ),
            (["--tcp", "--verify"], ["30", "15"], ["(tcp)", "VERIFY OK"]),
        ],
        ids=["one-gateway", "snapshot-drill", "tcp"],
    )
    def test_replay_generated_trace(self, flags, scale, expected, capsys, tmp_path):
        import json

        output = tmp_path / "report.json"
        requests, workers = scale
        argv = ["replay", "--requests", requests, "--workers", workers, *flags]
        assert main([*argv, "--output", str(output)]) == 0
        out = capsys.readouterr().out
        for line in expected:
            assert line in out
        report = json.loads(output.read_text())
        assert report["row"]["algorithm"] == "RamCOM"

    @pytest.mark.parametrize(
        "record, in_directory, scale",
        [
            # soak records into <directory>/events.comevt.
            (["soak", "--cycles", "1", "--directory"], "events.comevt", "40 15"),
            (["replay", "--events"], "", "60 30"),
        ],
        ids=["plain", "replay"],
    )
    def test_replay_log_verifies_a_recording(
        self, record, in_directory, scale, capsys, tmp_path
    ):
        requests, workers = scale.split()
        scale = ["--requests", requests, "--workers", workers]
        target = tmp_path / "recorded"
        assert main([*record, str(target), *scale]) == 0
        log = str(target / in_directory)
        capsys.readouterr()
        assert main(["replay", "--log", log, *scale, "--verify"]) == 0
        assert "VERIFY OK" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["ramcom", "demcom"])
    def test_recording_matches_the_gateway_stream(self, algorithm, tmp_path):
        """replay's recording is byte for byte the COMEVT1 file a plain
        gateway writes when the trace is submitted in order."""
        from repro.cli import _service_config, _service_scenario
        from repro.service import MatchingGateway, VirtualClock

        argv = ["replay", "--algorithm", algorithm, "--requests", "30", "--workers", "15"]
        recorded = tmp_path / "replay.comevt"
        assert main([*argv, "--events", str(recorded)]) == 0
        args = build_parser().parse_args(argv)
        scenario = _service_scenario(args)
        plain = tmp_path / "gateway.comevt"

        async def gateway_stream():
            clock = VirtualClock()
            gateway = MatchingGateway(
                scenario,
                algorithm,
                _service_config(args),
                clock=clock,
                events=str(plain),
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

        asyncio.run(gateway_stream())
        assert recorded.read_bytes() == plain.read_bytes()

    def test_snapshot_handoff_preserves_the_final_row(self, capsys, tmp_path):
        """snapshot → stop → restore mid-stream changes nothing: the row is
        Simulator.run's, and the restored gateway continues the stream
        behind a ``recovered`` marker, so the recording still verifies."""
        import json

        from repro.cli import _service_config, _service_scenario
        from repro.experiments.reporting import golden_row
        from repro.obs.events import encode_canonical, read_events

        argv = ["replay", "--requests", "80", "--workers", "40", "--seed", "3"]
        recorded = tmp_path / "handoff.comevt"
        output = tmp_path / "report.json"
        assert (
            main(
                [
                    *argv,
                    "--snapshot-at",
                    "60",
                    "--events",
                    str(recorded),
                    "--verify",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        assert "VERIFY OK" in capsys.readouterr().out
        args = build_parser().parse_args(argv)
        row = json.loads(output.read_text())["row"]
        assert encode_canonical(row) == encode_canonical(
            golden_row(_service_scenario(args), "ramcom", _service_config(args))
        )
        assert any(event.kind == "recovered" for event in read_events(recorded))

    def test_trace_writes_artifacts(self, capsys, tmp_path):
        import json

        output = tmp_path / "trace_out"
        assert (
            main(
                [
                    "trace",
                    "--requests",
                    "40",
                    "--workers",
                    "15",
                    "--no-wall",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()
        assert (output / "trace.jsonl").exists()
        chrome = json.loads((output / "trace.chrome.json").read_text())
        assert any(e.get("ph") == "X" for e in chrome["traceEvents"])
        metrics = json.loads((output / "metrics.json").read_text())
        assert "decisions_total" in metrics["counters"]


#: Where a documented ``com-repro <verb>`` invocation can live.
REPO = Path(__file__).resolve().parent.parent
DOCUMENTED_INVOCATIONS = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    *sorted((REPO / "docs").glob("*.md")),
    *sorted(path for path in (REPO / "examples").iterdir() if path.is_file()),
    REPO / ".github" / "workflows" / "ci.yml",
]
_INVOCATION = re.compile(r"(?:\bcom-repro|-m repro(?:\.cli)?)(?:[ \t]|\\\n)+([a-z][\w-]*)")


def test_documented_invocations_name_live_commands():
    """Every ``com-repro <verb>`` / ``python -m repro.cli <verb>`` in the
    docs, examples and CI workflow names a subcommand the parser accepts."""
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    live = set(subparsers.choices)
    stale = [
        f"{path.relative_to(REPO)}: {match.group(1)}"
        for path in DOCUMENTED_INVOCATIONS
        for match in _INVOCATION.finditer(path.read_text(encoding="utf-8"))
        if match.group(1) not in live
    ]
    assert stale == []
