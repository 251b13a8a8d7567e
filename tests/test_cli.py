"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_arguments(self):
        args = build_parser().parse_args(["table", "V", "--scale", "0.01"])
        assert args.command == "table"
        assert args.table_id == "V"
        assert args.scale == 0.01

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "IX"])

    def test_figure_arguments(self):
        args = build_parser().parse_args(["figure", "radius", "acceptance"])
        assert args.axis == "radius"
        assert args.metric == "acceptance"

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

    def test_replay_serve_arguments(self):
        args = build_parser().parse_args(
            ["replay-serve", "--algorithm", "demcom", "--verify"]
        )
        assert args.command == "replay-serve"
        assert args.algorithm == "demcom"
        assert args.verify is True
        assert args.snapshot_at is None

    def test_shared_defaults_are_hoisted(self):
        from repro.cli import DEFAULT_SERVICE_DURATION

        table = build_parser().parse_args(["table", "V"])
        replay = build_parser().parse_args(["replay-serve"])
        assert (
            table.service_duration
            == replay.service_duration
            == DEFAULT_SERVICE_DURATION
        )


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "RDC10" in out and "91321" in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("demcom", "ramcom", "tota"):
            assert name in out

    def test_table_small(self, capsys):
        assert (
            main(
                [
                    "table",
                    "VII",
                    "--scale",
                    "0.003",
                    "--seeds",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Table VII" in out
        assert "RamCOM" in out

    def test_figure_small(self, capsys):
        assert (
            main(
                [
                    "figure",
                    "workers",
                    "revenue",
                    "--values",
                    "10,20",
                    "--seeds",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fig. 5(e)" in out

    def test_cr_random_order(self, capsys):
        assert main(["cr", "tota", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "random-order" in out

    def test_replay_serve_verify(self, capsys, tmp_path):
        import json

        output = tmp_path / "served.json"
        assert (
            main(
                [
                    "replay-serve",
                    "--requests",
                    "30",
                    "--workers",
                    "15",
                    "--verify",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "VERIFY OK" in out
        metrics = json.loads(output.read_text())
        assert metrics["algorithm"] == "RamCOM"

    def test_replay_serve_snapshot_drill(self, capsys):
        assert (
            main(
                [
                    "replay-serve",
                    "--requests",
                    "30",
                    "--workers",
                    "15",
                    "--snapshot-at",
                    "20",
                    "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "checkpointed after 20 events" in out
        assert "VERIFY OK" in out

    def test_replay_events_verifies_a_plain_recording(self, capsys, tmp_path):
        scale = ["--requests", "40", "--workers", "15"]
        directory = tmp_path / "soak"
        soak = ["soak", "--cycles", "1", "--directory", str(directory)]
        assert main([*soak, *scale]) == 0
        log = str(directory / "events.comevt")
        capsys.readouterr()
        assert main(["replay-events", "--log", log, *scale, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "1 shard(s)" in out
        assert "VERIFY OK" in out

    def test_replay_events_verifies_a_merged_recording(self, capsys, tmp_path):
        """The shard count comes from the recording; no flag names it."""
        scale = ["--requests", "60", "--workers", "30"]
        record = str(tmp_path / "cluster.comevt")
        cluster = ["replay-cluster", "--shards", "4", "--hetero", "--record"]
        assert main([*cluster, record, *scale]) == 0
        capsys.readouterr()
        assert main(["replay-events", "--log", record, *scale, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "4 shard(s)" in out
        assert "VERIFY OK" in out

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
