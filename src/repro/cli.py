"""Command-line interface: ``python -m repro`` / ``com-repro``.

Subcommands regenerate the paper's experiments from a terminal:

* ``table V|VI|VII`` — one city-pair comparison table;
* ``figure <axis> <metric>`` — one Fig.-5 panel;
* ``cr <algorithm>`` — a competitive-ratio study on a small instance;
* ``chaos`` — a fault-injection sweep (docs/RESILIENCE.md);
* ``trace`` — run one scenario with full telemetry and write
  ``trace.jsonl`` / ``trace.chrome.json`` / ``metrics.json``
  (docs/OBSERVABILITY.md);
* ``lint`` — run the ``comlint`` project-invariant static analyzer
  (docs/STATIC_ANALYSIS.md);
* ``serve [--shards N]`` — run the matching engine as a long-lived
  JSONL/TCP service: one gateway, or an N-shard cluster behind one front
  door (docs/SERVICE.md, docs/CLUSTER.md);
* ``replay`` — drive a generated trace through an ephemeral N-shard
  deployment under the virtual clock and record it, or re-drive a
  recorded ``COMEVT1`` log (``--log``); ``--verify`` asserts the canonical
  stream and metrics row reproduce byte-identically (docs/DASHBOARD.md);
* ``soak`` — crash→recover chaos soak (docs/RESILIENCE.md);
* ``quickstart`` — a tiny end-to-end demo run;
* ``datasets`` — the simulated Table-III statistics.

Experiment subcommands (``table``, ``figure``, ``chaos``, ``sensitivity``,
``ablation``) accept ``--jobs N`` to run their algorithm x seed cells
across a process pool (:func:`repro.experiments.harness.run_comparison`);
output is byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.experiments.harness import ExperimentConfig
from repro.experiments.tables import TABLE_IDS, run_city_table
from repro.experiments.figures import run_figure5_panel
from repro.utils.tables import TextTable

__all__ = ["main", "build_parser"]

# Defaults shared by several subcommands (argparse defaults and the
# hard-coded configs of demo commands must agree — keep them in one place).
DEFAULT_SERVICE_DURATION = 1800.0
DEFAULT_CITY_KM = 8.0
DEFAULT_DEMO_REQUESTS = 400
DEFAULT_DEMO_WORKERS = 100
DEFAULT_SWEEP_REQUESTS = 600
DEFAULT_SWEEP_WORKERS = 160


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for seed x algorithm cells (0 = one per "
            "CPU); results are byte-identical to --jobs 1"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for the docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="com-repro",
        description=(
            "Cross Online Matching (COM) reproduction — regenerate the "
            "tables and figures of Cheng et al., ICDE 2020."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table = subparsers.add_parser("table", help="regenerate Table V/VI/VII")
    table.add_argument("table_id", choices=sorted(TABLE_IDS), help="paper table id")
    table.add_argument("--scale", type=float, default=0.02)
    table.add_argument("--seeds", type=int, default=3, help="seed-days to average")
    table.add_argument(
        "--service-duration", type=float, default=DEFAULT_SERVICE_DURATION
    )
    table.add_argument(
        "--output", type=str, default=None, help="directory to save JSON results"
    )
    _add_jobs_flag(table)

    figure = subparsers.add_parser("figure", help="regenerate one Fig. 5 panel")
    figure.add_argument("axis", choices=["requests", "workers", "radius"])
    figure.add_argument(
        "metric", choices=["revenue", "time", "memory", "acceptance"]
    )
    figure.add_argument(
        "--values",
        type=str,
        default=None,
        help="comma-separated sweep values (default: a reduced Table-IV grid)",
    )
    figure.add_argument("--seeds", type=int, default=2)
    figure.add_argument(
        "--output", type=str, default=None, help="directory to save CSV results"
    )
    figure.add_argument(
        "--chart", action="store_true", help="also render an ASCII chart"
    )
    _add_jobs_flag(figure)

    cr = subparsers.add_parser("cr", help="competitive-ratio study")
    cr.add_argument("algorithm", help="algorithm name (demcom, ramcom, tota, ...)")
    cr.add_argument(
        "--model", choices=["adversarial", "random-order"], default="random-order"
    )
    cr.add_argument("--trials", type=int, default=50)

    chaos = subparsers.add_parser(
        "chaos", help="fault-injection sweep: revenue degradation vs fault rate"
    )
    chaos.add_argument(
        "--rates",
        type=str,
        default="0,0.2,0.4,0.6,0.8",
        help="comma-separated fault rates in [0, 1]",
    )
    chaos.add_argument(
        "--algorithms",
        type=str,
        default="demcom,ramcom",
        help="comma-separated registry names",
    )
    chaos.add_argument("--seeds", type=int, default=2)
    chaos.add_argument("--fault-seed", type=int, default=0)
    chaos.add_argument("--requests", type=int, default=DEFAULT_SWEEP_REQUESTS)
    chaos.add_argument("--workers", type=int, default=DEFAULT_SWEEP_WORKERS)
    chaos.add_argument(
        "--output", type=str, default=None, help="directory to save JSON results"
    )
    _add_jobs_flag(chaos)

    trace = subparsers.add_parser(
        "trace",
        help=(
            "run one scenario with telemetry enabled; write trace.jsonl, "
            "trace.chrome.json (open in Perfetto) and metrics.json"
        ),
    )
    trace.add_argument(
        "--algorithm", default="ramcom", help="registry name (default: ramcom)"
    )
    trace.add_argument("--requests", type=int, default=DEFAULT_DEMO_REQUESTS)
    trace.add_argument("--workers", type=int, default=DEFAULT_DEMO_WORKERS)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="also inject faults (FaultPlan.uniform) to trace the resilience path",
    )
    trace.add_argument(
        "--output", type=str, default="results/trace", help="artifact directory"
    )
    trace.add_argument(
        "--no-wall",
        action="store_true",
        help=(
            "omit wall-clock fields: the trace becomes a deterministic "
            "function of (scenario, seed)"
        ),
    )

    sensitivity = subparsers.add_parser(
        "sensitivity", help="calibration sensitivity study"
    )
    sensitivity.add_argument(
        "parameter",
        choices=["going-rate", "jitter", "skew", "occupation"],
    )
    sensitivity.add_argument("--seeds", type=int, default=2)
    _add_jobs_flag(sensitivity)

    ablation = subparsers.add_parser("ablation", help="design-choice ablation")
    ablation.add_argument(
        "study",
        choices=["cooperation", "ramcom-k", "payment-accuracy", "pricer"],
    )
    ablation.add_argument("--seeds", type=int, default=2)
    _add_jobs_flag(ablation)

    reproduce = subparsers.add_parser(
        "reproduce", help="run every table/figure/CR study, write REPORT.md"
    )
    reproduce.add_argument("--output", type=str, default="results")
    reproduce.add_argument("--scale", type=float, default=0.01)
    reproduce.add_argument("--seeds", type=int, default=2)
    reproduce.add_argument("--full-grids", action="store_true")

    lint = subparsers.add_parser(
        "lint",
        help=(
            "comlint: enforce project invariants (determinism, telemetry "
            "budget, error hygiene, API hygiene) over python sources"
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        dest="report_format",
        choices=["text", "json"],
        default="text",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "lint files across N worker processes (0 = one per CPU); the "
            "merged report is byte-identical to a serial run"
        ),
    )

    def _add_service_scenario_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--algorithm", default="ramcom", help="registry name (default: ramcom)"
        )
        sub.add_argument(
            "--scenario",
            help="scenario JSON (from workloads.save_scenario); default: synthetic",
        )
        sub.add_argument("--requests", type=int, default=DEFAULT_DEMO_REQUESTS)
        sub.add_argument("--workers", type=int, default=DEFAULT_DEMO_WORKERS)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--service-duration", type=float, default=DEFAULT_SERVICE_DURATION
        )

    def _add_deployment_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--events",
            help=(
                "record the COMEVT1 stream here (N > 1 shards: the merged "
                "recording, written at drain; serve --journal recovery "
                "resumes it); replay --log verifies it"
            ),
        )
        sub.add_argument(
            "--shards",
            type=int,
            default=1,
            help="shard gateways (default: 1 = one plain gateway; docs/CLUSTER.md)",
        )
        sub.add_argument(
            "--cell-km",
            type=float,
            default=2.0,
            help="shard plan grid cell edge in km (default: 2.0)",
        )
        sub.add_argument(
            "--hetero",
            action="store_true",
            help=(
                "density-aware shard plan: split hot cells instead of "
                "uniform column stripes (docs/CLUSTER.md#shard-plans)"
            ),
        )

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run the matching engine as a long-lived JSONL/TCP service; "
            "--shards N > 1 puts N shards behind one front door "
            "(docs/SERVICE.md, docs/CLUSTER.md)"
        ),
    )
    _add_service_scenario_flags(serve)
    _add_deployment_flags(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral, printed)"
    )
    serve.add_argument(
        "--shard-base-port",
        type=int,
        default=0,
        help="shard k listens on base+k (default: 0 = ephemeral, printed)",
    )
    serve.add_argument(
        "--journal",
        help=(
            "COMWAL1 journal directory; one holding a checkpoint is "
            "recovered (docs/RESILIENCE.md); with N > 1 shards, fresh "
            "journals in <dir>/shard-<k>"
        ),
    )
    serve.add_argument(
        "--sanitize-concurrency",
        action="store_true",
        help=(
            "runtime concurrency sanitizer: ownership guards plus the "
            "event-loop stall detector (docs/STATIC_ANALYSIS.md)"
        ),
    )
    # Flags below configure one gateway: usage errors with --shards N > 1.
    serve.add_argument(
        "--real-time",
        action="store_true",
        help="stamp arrivals with a wall clock instead of the virtual clock",
    )
    serve.add_argument(
        "--speed",
        type=float,
        default=1.0,
        help="real-time clock speed-up factor (with --real-time)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission bound: shed requests beyond this queue depth (0 = off)",
    )
    serve.add_argument(
        "--restore", help="boot from a snapshot file instead of a fresh scenario"
    )
    serve.add_argument(
        "--fsync",
        choices=["always", "interval", "never"],
        default="interval",
        help="journal fsync policy (default: interval)",
    )
    serve.add_argument(
        "--fsync-interval",
        type=int,
        default=256,
        help="records between fsyncs under --fsync interval (default: 256)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=4096,
        help="journal records between COMSNAP1 checkpoints (default: 4096)",
    )
    serve.add_argument(
        "--dashboard",
        type=int,
        default=None,
        metavar="PORT",
        help="live HTTP+SSE ops dashboard port (0 = ephemeral; docs/DASHBOARD.md)",
    )
    serve.add_argument(
        "--dashboard-cell-km",
        type=float,
        default=1.0,
        help="heatmap grid resolution in km (default: 1.0)",
    )

    replay = subparsers.add_parser(
        "replay",
        help=(
            "record a generated trace driven through an ephemeral N-shard "
            "deployment, or re-drive a recording (--log); --verify fails "
            "unless it reproduces byte-identically"
        ),
    )
    _add_service_scenario_flags(replay)
    _add_deployment_flags(replay)
    replay.add_argument(
        "--log",
        help=(
            "re-drive this .comevt recording instead of a generated trace "
            "(its meta names the shard count)"
        ),
    )
    replay.add_argument(
        "--tcp",
        action="store_true",
        help="put every gateway behind its own loopback JSONL/TCP server",
    )
    replay.add_argument(
        "--verify",
        action="store_true",
        help=(
            "fail unless replaying the recording reproduces its canonical "
            "stream and metrics row (and, shed-free on 1 shard, "
            "Simulator.run's row) byte for byte"
        ),
    )
    replay.add_argument(
        "--snapshot-at",
        type=int,
        default=None,
        help=(
            "recovery drill (1 shard, in process): after this many events, "
            "hand the state through a snapshot to a fresh gateway"
        ),
    )
    replay.add_argument(
        "--crash-shard",
        type=int,
        default=None,
        metavar="K",
        help="fail-stop shard K mid-stream; exit 1 unless the router fails over",
    )
    replay.add_argument(
        "--crash-index",
        type=int,
        default=16,
        help="kill-point boundary index on the crashed shard (default: 16)",
    )
    replay.add_argument(
        "--crash-channel",
        choices=["journal_append", "journal_torn", "checkpoint", "ack"],
        default="ack",
        help="crash channel for --crash-shard (default: ack)",
    )
    replay.add_argument("--output", help="write the report JSON here")

    soak = subparsers.add_parser(
        "soak",
        help=(
            "chaos soak: journaled service under load, killed and "
            "recovered repeatedly; fails unless the final metrics row is "
            "byte-identical to an uninterrupted run (docs/RESILIENCE.md)"
        ),
    )
    _add_service_scenario_flags(soak)
    soak.add_argument(
        "--cycles",
        type=int,
        default=3,
        help="crash->recover cycles to induce (default: 3)",
    )
    soak.add_argument(
        "--soak-seed",
        type=int,
        default=0,
        help="seed for the kill-point draw (independent of --seed)",
    )
    soak.add_argument(
        "--speed",
        type=float,
        default=0.0,
        help=(
            "real-time clock compression: trace seconds per wall second "
            "(0 = unthrottled, the default)"
        ),
    )
    soak.add_argument(
        "--fsync",
        choices=["always", "interval", "never"],
        default="interval",
        help="journal fsync policy under test (default: interval)",
    )
    soak.add_argument(
        "--directory",
        type=str,
        default=None,
        help="journal directory (default: a fresh temporary directory)",
    )
    soak.add_argument(
        "--no-events",
        action="store_true",
        help=(
            "skip recording + replay-verifying the COMEVT1 event stream "
            "(recorded and verified by default)"
        ),
    )
    soak.add_argument(
        "--output", type=str, default=None, help="write the JSON report here"
    )

    subparsers.add_parser("quickstart", help="tiny end-to-end demo")
    subparsers.add_parser("datasets", help="simulated Table III statistics")
    subparsers.add_parser("algorithms", help="list registered algorithms")
    return parser


def _cmd_table(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        seeds=tuple(range(args.seeds)),
        service_duration=args.service_duration,
        jobs=args.jobs,
    )
    result = run_city_table(args.table_id, scale=args.scale, config=config)
    print(result.render())
    if args.output:
        from repro.experiments.reporting import save_table

        path = save_table(result, args.output)
        print(f"saved: {path}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    values = None
    if args.values:
        parsed = [float(v) for v in args.values.split(",")]
        values = tuple(int(v) if v.is_integer() and v >= 10 else v for v in parsed)
    else:
        # A reduced default grid keeps the CLI interactive; EXPERIMENTS.md
        # records the full-grid runs.
        reduced = {
            "requests": (500, 1000, 2500, 5000, 10_000),
            "workers": (100, 200, 500, 1000, 2500),
            "radius": (0.5, 1.0, 1.5, 2.0, 2.5),
        }
        values = reduced[args.axis]
    config = ExperimentConfig(seeds=tuple(range(args.seeds)), jobs=args.jobs)
    panel = run_figure5_panel(args.axis, args.metric, values=values, config=config)
    print(panel.render())
    if args.chart:
        from repro.utils.ascii_chart import render_panel

        print()
        print(render_panel(panel))
    if args.output:
        from repro.experiments.reporting import save_panel

        path = save_panel(panel, args.output)
        print(f"saved: {path}")
    return 0


def _cmd_cr(args: argparse.Namespace) -> int:
    from repro.experiments.competitive import (
        RAMCOM_THEORETICAL_CR,
        adversarial_ratio,
        random_order_ratio,
    )
    from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

    if args.model == "adversarial":
        scenario = SyntheticWorkload(
            SyntheticWorkloadConfig(
                request_count=4, worker_count=4, city_km=2.0, radius_km=2.0
            )
        ).build(seed=3)
        report = adversarial_ratio(scenario, args.algorithm)
    else:
        scenario = SyntheticWorkload(
            SyntheticWorkloadConfig(
                request_count=40, worker_count=16, city_km=4.0, radius_km=1.5
            )
        ).build(seed=3)
        report = random_order_ratio(scenario, args.algorithm, trials=args.trials)
    table = TextTable(
        ["Model", "Orders", "Min ratio", "Mean ratio", "1/(8e) bound"],
        title=f"Competitive ratio — {args.algorithm}",
    )
    table.add_row(
        [
            report.model,
            report.orders_evaluated,
            report.minimum,
            report.expectation,
            RAMCOM_THEORETICAL_CR,
        ]
    )
    print(table.render())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import run_fault_sweep
    from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

    rates = tuple(float(rate) for rate in args.rates.split(","))
    algorithms = tuple(
        name.strip() for name in args.algorithms.split(",") if name.strip()
    )
    scenario = SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=args.requests,
            worker_count=args.workers,
            city_km=DEFAULT_CITY_KM,
        )
    ).build(seed=1)
    config = ExperimentConfig(seeds=tuple(range(args.seeds)), jobs=args.jobs)
    result = run_fault_sweep(
        scenario,
        algorithms=algorithms,
        rates=rates,
        config=config,
        fault_seed=args.fault_seed,
    )
    print(result.render())
    if args.output:
        from repro.experiments.reporting import save_chaos

        path = save_chaos(result, args.output)
        print(f"saved: {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core import Simulator, SimulatorConfig
    from repro.core.registry import algorithm_factory
    from repro.faults.plan import FaultPlan
    from repro.obs import Telemetry
    from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

    scenario = SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=args.requests,
            worker_count=args.workers,
            city_km=DEFAULT_CITY_KM,
        )
    ).build(seed=args.seed)
    telemetry = Telemetry(tracing=True, wall_clock=not args.no_wall)
    fault_plan = (
        FaultPlan.uniform(args.fault_rate) if args.fault_rate > 0.0 else None
    )
    config = SimulatorConfig(
        seed=args.seed,
        telemetry=telemetry,
        fault_plan=fault_plan,
        worker_reentry=True,
        service_duration=DEFAULT_SERVICE_DURATION,
    )
    result = Simulator(config).run(scenario, algorithm_factory(args.algorithm))
    paths = telemetry.write_trace(args.output)

    summary = result.telemetry
    assert summary is not None
    table = TextTable(
        ["Span", "Count"],
        title=(
            f"Trace — {result.algorithm_name} on {scenario.name} "
            f"(seed {args.seed})"
        ),
    )
    for name, count in summary.span_counts.items():
        table.add_row([name, count])
    print(table.render())
    decisions = sum(
        entry["value"]
        for entry in summary.metrics.counters.get("decisions_total", [])
    )
    print(
        f"decisions: {decisions:.0f}  revenue: {result.total_revenue:.0f}  "
        f"mean response: {result.mean_response_time_ms:.3f} ms"
    )
    for artifact, path in paths.items():
        print(f"{artifact}: {path}")
    print("open trace.chrome.json at https://ui.perfetto.dev")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments import sensitivity as module

    functions = {
        "going-rate": module.going_rate_sensitivity,
        "jitter": module.jitter_sensitivity,
        "skew": module.skew_sensitivity,
        "occupation": module.occupation_sensitivity,
    }
    config = ExperimentConfig(seeds=tuple(range(args.seeds)), jobs=args.jobs)
    result = functions[args.parameter](config=config)
    print(result.render())
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import ablation as module
    from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

    functions = {
        "cooperation": module.run_cooperation_ablation,
        "ramcom-k": module.run_ramcom_k_sweep,
        "payment-accuracy": module.run_payment_accuracy_ablation,
        "pricer": module.run_pricer_breakpoint_ablation,
    }
    scenario = SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=DEFAULT_SWEEP_REQUESTS,
            worker_count=DEFAULT_SWEEP_WORKERS,
            city_km=DEFAULT_CITY_KM,
        )
    ).build(seed=1)
    config = ExperimentConfig(seeds=tuple(range(args.seeds)), jobs=args.jobs)
    result = functions[args.study](scenario, config)
    print(result.render())
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.full_run import reproduce_all

    run = reproduce_all(
        args.output,
        scale=args.scale,
        seeds=args.seeds,
        full_grids=args.full_grids,
    )
    print(f"report: {run.report_path}")
    print(
        f"{len(run.tables)} tables, {len(run.panels)} figure panels, "
        f"{len(run.cr_rows)} CR rows in {run.elapsed_seconds:.1f}s"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        lint_paths,
        render_json,
        render_rule_catalogue,
        render_text,
    )

    if args.list_rules:
        print(render_rule_catalogue())
        return 0

    root = Path.cwd()
    violations = lint_paths(
        [Path(path) for path in args.paths], root=root, jobs=args.jobs
    )
    if args.report_format == "json":
        print(render_json(violations))
    else:
        print(render_text(violations))
    return 1 if violations else 0


def _save_report(path: str, payload: dict) -> None:
    """Write a command's JSON report and say where it went."""
    import json
    from pathlib import Path

    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"saved: {path}")


def _service_scenario(args: argparse.Namespace):
    """The scenario a ``serve``/``replay``/``soak`` invocation operates on."""
    if args.scenario:
        from repro.workloads import load_scenario

        return load_scenario(args.scenario)
    from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

    return SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=args.requests,
            worker_count=args.workers,
            city_km=DEFAULT_CITY_KM,
        )
    ).build(seed=args.seed)


def _service_config(args: argparse.Namespace):
    """Simulator config for the service commands.

    Response times are not measured: the service layer reports its own
    end-to-end latency histogram, and dropping the engine-side wall-clock
    read makes the metric row a deterministic function of the scenario —
    the property ``replay --verify`` checks.
    """
    from repro.core import SimulatorConfig

    return SimulatorConfig(
        seed=args.seed,
        service_duration=args.service_duration,
        measure_response_time=False,
        # Only `serve` exposes the flag; the other service commands fall
        # back to the COM_REPRO_SANITIZE_CONCURRENCY environment switch.
        sanitize_concurrency=getattr(args, "sanitize_concurrency", False),
    )


#: Flags (by dest) that work in one mode of ``serve``/``replay`` only; a
#: flag given outside its mode is a usage error, never silently ignored.
_ONE_GATEWAY_FLAGS = frozenset(
    "real_time speed max_pending restore fsync fsync_interval "
    "checkpoint_every dashboard dashboard_cell_km".split()
)
_SHARD_LAYOUT_FLAGS = frozenset({"cell_km", "hetero", "shard_base_port"})
_CRASH_FLAGS = frozenset({"crash_shard", "crash_index", "crash_channel"})
_TRACE_FLAGS = _CRASH_FLAGS | {"shards", "cell_km", "hetero", "events", "snapshot_at"}


def _flag_conflict(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> str | None:
    """Why a ``serve``/``replay`` flag combination is unusable, if it is.

    A flag counts as given when its value differs from its default.
    """
    if args.command not in ("serve", "replay"):
        return None
    if args.shards < 1:
        return f"--shards must be >= 1, got {args.shards}"
    crash = args.command == "replay" and args.crash_shard is not None
    if crash and not 0 <= args.crash_shard < args.shards:
        return (
            f"--crash-shard {args.crash_shard} out of range for "
            f"{args.shards} shard(s)"
        )
    if args.command == "serve":
        rules = [
            (
                args.restore,
                {"journal", "events"},
                "not with --restore: a journal carries its own checkpoint, "
                "and an event log begun mid-run never verifies",
            ),
            (args.shards > 1, _ONE_GATEWAY_FLAGS, "one gateway only (--shards 1)"),
            (args.shards == 1, _SHARD_LAYOUT_FLAGS, "need --shards N > 1"),
        ]
    else:
        rules = [
            (args.log, _TRACE_FLAGS, "shape a generated trace, not --log"),
            # The drill hands shard 0 of an in-process deployment over.
            (
                args.snapshot_at is not None,
                _CRASH_FLAGS | {"shards", "tcp"},
                "not with --snapshot-at",
            ),
            (not crash, _CRASH_FLAGS, "need --crash-shard"),
            (crash, {"verify"}, "not with --crash-shard: degraded runs never verify"),
        ]
    defaults = vars(parser.parse_args([args.command]))
    for applies, names, reason in rules:
        given = [
            f"--{name.replace('_', '-')}"
            for name, value in vars(args).items()
            if name in names and value != defaults[name]
        ]
        if applies and given:
            return f"{', '.join(given)}: {reason}"
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    serving = _serve_cluster(args) if args.shards > 1 else _serve_gateway(args)
    try:
        asyncio.run(serving)
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _serve_gateway(args: argparse.Namespace):
    """``serve --shards 1``: one gateway behind the pipelined
    :class:`~repro.service.server.MatchingServer`.

    The gateway is built here, before the event loop runs, so its
    construction is setup rather than a claim by the serving task.
    Returns the serving coroutine.
    """
    import asyncio

    from repro.obs.events import EventLog
    from repro.service import (
        AdmissionPolicy,
        DashboardServer,
        JournalConfig,
        MatchingGateway,
        MatchingServer,
        RealTimeClock,
        recover_gateway,
    )

    clock = RealTimeClock(speed=args.speed) if args.real_time else None
    admission = AdmissionPolicy(max_pending=args.max_pending)
    journal = None
    if args.journal:
        journal = JournalConfig(
            directory=args.journal,
            fsync=args.fsync,
            fsync_interval=args.fsync_interval,
            checkpoint_every=args.checkpoint_every,
        )
    if args.restore:
        gateway = MatchingGateway.from_snapshot(
            args.restore, clock=clock, admission=admission
        )
        print(f"restored: {args.restore}")
    elif journal is not None and journal.checkpoint_path.exists():
        gateway, report = recover_gateway(
            journal,
            clock=clock,
            admission=admission,
            events=args.events,
        )
        print(
            f"recovered: {args.journal} "
            f"({report.records_replayed} record(s) replayed, "
            f"{report.torn_bytes_dropped} torn byte(s) dropped, "
            f"{report.recovery_seconds * 1e3:.1f} ms)"
        )
    else:
        gateway = MatchingGateway(
            scenario=_service_scenario(args),
            algorithm=args.algorithm,
            config=_service_config(args),
            clock=clock,
            admission=admission,
            journal=journal,
            events=args.events,
        )
        if journal is not None:
            print(f"journal: {journal.journal_path} ({args.fsync})")
    if args.events:
        print(f"event log: {args.events} (COMEVT1)")
    if args.dashboard is not None and not isinstance(gateway.events, EventLog):
        # The dashboard streams from an EventLog; with no --events given,
        # keep it in memory (ring only, nothing written to disk).
        gateway.attach_events(EventLog(registry=gateway.registry))
    server = MatchingServer(gateway, host=args.host, port=args.port)
    dashboard = (
        DashboardServer(
            gateway,
            host=args.host,
            port=args.dashboard,
            cell_km=args.dashboard_cell_km,
        )
        if args.dashboard is not None
        else None
    )

    async def _serve() -> None:
        host, port = await server.start()
        mode = "real-time" if args.real_time else "virtual-clock"
        print(f"serving {gateway.stats()['algorithm']} on {host}:{port} ({mode})")
        print("protocol: one JSON object per line — see docs/SERVICE.md")
        if dashboard is not None:
            dash_host, dash_port = await dashboard.start()
            print(f"dashboard: http://{dash_host}:{dash_port}/ (SSE at /events)")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if dashboard is not None:
                await dashboard.stop()
            await server.stop()

    return _serve()


def _cluster_plan(args: argparse.Namespace, scenario):
    """The shard plan a ``serve``/``replay`` invocation lays out."""
    from repro.cluster import ShardPlan, reach_from_events

    reach = reach_from_events(scenario.events)
    if args.hetero:
        return ShardPlan.from_density(
            scenario.events, args.shards, args.cell_km, reach_km=reach
        )
    return ShardPlan.uniform(
        args.shards, args.cell_km, DEFAULT_CITY_KM, reach_km=reach
    )


async def _serve_cluster(args: argparse.Namespace) -> None:
    """``serve --shards N > 1``: shard gateways behind loopback servers
    and one lock-step :class:`~repro.cluster.server.ClusterServer`."""
    import asyncio
    from pathlib import Path

    from repro.cluster import ClusterServer, stop_tcp_cluster, tcp_cluster

    scenario = _service_scenario(args)
    plan = _cluster_plan(args, scenario)
    router, logs, servers, clock = await tcp_cluster(
        scenario,
        plan,
        algorithm=args.algorithm,
        config=_service_config(args),
        host=args.host,
        base_port=args.shard_base_port,
        journal_dirs=(
            {k: Path(args.journal) / f"shard-{k}" for k in range(args.shards)}
            if args.journal
            else None
        ),
        sanitize=True,
    )
    front = ClusterServer(
        router, clock, host=args.host, port=args.port, logs=logs, record=args.events
    )
    try:
        host, port = await front.start()
        print(
            f"cluster front door on {host}:{port} "
            f"({plan.shard_count} shard(s), cell {plan.cell_km} km, "
            f"{'density' if args.hetero else 'uniform'} plan)"
        )
        for shard_id, server in enumerate(servers):
            shard_host, shard_port = server.address
            cells = len(plan.cells_of(shard_id))
            print(f"  shard {shard_id}: {shard_host}:{shard_port} ({cells} cell(s))")
        if args.events:
            print(f"merged recording at drain: {args.events}")
        print("verbs: ping request worker shed outcome stats drain")
        await front.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await front.stop()
        await stop_tcp_cluster(router, servers)


def _cmd_replay(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    scenario = _service_scenario(args)
    config = _service_config(args)
    if args.log is not None:
        report, status = _replay_recording(args, args.log, scenario, config)
    else:
        with tempfile.TemporaryDirectory(prefix="com-replay-") as scratch:
            report, status = _replay_trace(args, scenario, config, Path(scratch))
    if args.output:
        _save_report(args.output, report)
    return status


def _replay_trace(
    args: argparse.Namespace, scenario, config, scratch
) -> tuple[dict, int]:
    """Route the generated trace through an ephemeral N-shard deployment
    and record it; then judge the crash drill, or ``--verify``."""
    import asyncio
    import dataclasses

    from repro.cluster import (
        drive_cluster,
        local_cluster,
        recording_of,
        stop_tcp_cluster,
        tcp_cluster,
    )
    from repro.core.events import EventStream
    from repro.faults.crash import CrashPlan

    plan = _cluster_plan(args, scenario)
    crash_plans = None
    journal_dirs = None
    if args.crash_shard is not None:
        crash_plans = {
            args.crash_shard: CrashPlan.at(args.crash_channel, args.crash_index)
        }
        # Every crash channel sits on the journal path, so the doomed
        # shard gets one even when the others run bare.
        journal_dirs = {args.crash_shard: scratch / "journal"}
    record = args.events or str(scratch / "run.comevt")
    events = list(scenario.events)
    cut = min(max(0, args.snapshot_at or 0), len(events))
    snapshot = scratch / "mid.snap"

    async def _run():
        options = dict(
            algorithm=args.algorithm,
            config=config,
            journal_dirs=journal_dirs,
            crash_plans=crash_plans,
            sanitize=True,
        )
        servers = []
        if args.tcp:
            router, logs, servers, _ = await tcp_cluster(scenario, plan, **options)
        else:
            router, logs, _ = local_cluster(scenario, plan, **options)
        await router.start()
        try:
            if args.snapshot_at is not None:
                await drive_cluster(router, scenario.events, stop_after=cut)
                await router.handoff(0, snapshot)
                print(f"checkpointed after {cut} events: {snapshot}")
            result = await drive_cluster(router, EventStream(events[cut:]))
            recording_of(router, logs, result, record)
        finally:
            await stop_tcp_cluster(router, servers)
        return result

    result = asyncio.run(_run())
    completed = sum(result.row["completed"].values())
    print(
        f"drained: {plan.shard_count} shard(s), {result.forwards} forward(s), "
        f"{result.cross_shard_serves} cross-shard serve(s), "
        f"completed {completed}"
    )
    print(f"recording: {record}")
    report = {
        "shards": plan.shard_count,
        "mode": "tcp" if args.tcp else "in-process",
        "completed": completed,
        **dataclasses.asdict(result),
    }
    if args.crash_shard is None:
        if not args.verify:
            return report, 0
        report["replay"], status = _replay_recording(args, record, scenario, config)
        return report, status
    report["degraded_ok"] = (
        args.crash_shard in result.crashed_shards and result.failovers >= 1
    )
    if not report["degraded_ok"]:
        print(
            f"DEGRADED FAIL: crash on shard {args.crash_shard} did not fire "
            f"or the router never failed over (crashed="
            f"{result.crashed_shards}, failovers={result.failovers})"
        )
        return report, 1
    print(
        f"DEGRADED OK: shard {args.crash_shard} fail-stopped "
        f"({args.crash_channel}@{args.crash_index}); router failed over "
        f"{result.failovers} arrival route(s), lost {result.lost_workers} "
        f"worker(s), survivors drained clean"
    )
    return report, 0


def _replay_recording(
    args: argparse.Namespace, path: str, scenario, config
) -> tuple[dict, int]:
    """Re-drive a recording with :func:`~repro.service.replay_event_log`
    and print what held; with ``--verify``, the VERIFY verdict too."""
    import asyncio

    from repro.service import replay_event_log

    report = asyncio.run(
        replay_event_log(
            path, scenario, algorithm=args.algorithm, config=config, tcp=args.tcp
        )
    )
    print(
        f"replayed {path} ({report.mode}, {report.shards} shard(s)): "
        f"{report.recorded_events} recorded event(s), "
        f"{report.workers} worker(s), {report.requests} request(s), "
        f"{report.sheds} shed(s), {report.crashes_recorded} crash marker(s)"
    )
    print(
        f"  stream {'identical' if report.stream_identical else 'DIVERGED'}, "
        f"metrics row {'identical' if report.row_identical else 'DIVERGED'}"
    )
    if not args.verify:
        return report.as_dict(), 0
    if not report.verified:
        print("VERIFY FAIL: replay did not reproduce the recorded stream")
        return report.as_dict(), 1
    print(
        "VERIFY OK: canonical event stream and metrics row "
        "byte-identical to the recording"
    )
    return report.as_dict(), 0


def _cmd_soak(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import tempfile

    from repro.service import SoakConfig, run_soak

    scenario = _service_scenario(args)
    config = _service_config(args)
    soak = SoakConfig(
        cycles=args.cycles,
        seed=args.soak_seed,
        speed=args.speed,
        fsync=args.fsync,
        events=not args.no_events,
    )
    with contextlib.ExitStack() as stack:
        directory = args.directory or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="com-soak-")
        )
        report = asyncio.run(
            run_soak(
                scenario,
                directory,
                algorithm=args.algorithm,
                config=config,
                soak=soak,
            )
        )
    print(
        f"soak: {report.events_submitted} events, "
        f"{report.induced_crashes} induced crash(es), "
        f"{report.retries} retried arrival(s), sanitizers on "
        f"(constraints + concurrency, {report.loop_stalls} loop stall(s))"
    )
    for number, recovery in enumerate(report.recoveries, start=1):
        print(
            f"  recovery {number}: {recovery.records_replayed} record(s) "
            f"replayed from seq {recovery.checkpoint_seq}, "
            f"{recovery.torn_bytes_dropped} torn byte(s), "
            f"{recovery.recovery_seconds * 1e3:.1f} ms"
        )
    if args.output:
        _save_report(args.output, report.as_dict())
    if not report.metrics_identical:
        print("SOAK FAIL: drained metrics differ from an uninterrupted run")
        return 1
    if report.events_identical is False:
        print(
            "SOAK FAIL: replaying the COMEVT1 stream did not reproduce "
            "the recorded canonical events"
        )
        return 1
    if report.events_identical:
        print(
            f"  event log: {report.event_count} canonical event(s), "
            "replay byte-identical across crash markers"
        )
    print(
        "SOAK OK: metrics byte-identical to an uninterrupted run "
        f"(max recovery {report.max_recovery_seconds * 1e3:.1f} ms)"
    )
    return 0


def _cmd_quickstart(_: argparse.Namespace) -> int:
    from repro.core import Simulator, SimulatorConfig
    from repro.core.registry import algorithm_factory
    from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

    scenario = SyntheticWorkload(
        SyntheticWorkloadConfig(
            request_count=DEFAULT_DEMO_REQUESTS,
            worker_count=DEFAULT_DEMO_WORKERS,
            city_km=DEFAULT_CITY_KM,
        )
    ).build(seed=1)
    simulator = Simulator(
        SimulatorConfig(
            seed=0, worker_reentry=True, service_duration=DEFAULT_SERVICE_DURATION
        )
    )
    table = TextTable(
        ["Algorithm", "Revenue", "Completed", "|CoR|", "AcpRt"],
        title=f"Quickstart — {scenario.name}",
    )
    for name in ("tota", "demcom", "ramcom"):
        result = simulator.run(scenario, algorithm_factory(name))
        revenue = sum(
            p.ledger.revenue + p.ledger.total_lender_income
            for p in result.platforms.values()
        )
        table.add_row(
            [
                result.algorithm_name,
                round(revenue),
                result.total_completed,
                result.total_cooperative,
                result.overall_acceptance_ratio,
            ]
        )
    print(table.render())
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    from repro.workloads.datasets import DATASETS

    table = TextTable(
        ["Name", "Company", "City", "Month", "|R|", "|W|", "rad (km)"],
        title="Table III — simulated dataset registry (full-scale counts)",
    )
    for spec in DATASETS.values():
        table.add_row(
            [
                spec.name,
                spec.company,
                spec.city,
                spec.month,
                spec.requests,
                spec.workers,
                spec.radius_km,
            ]
        )
    print(table.render())
    return 0


def _cmd_algorithms(_: argparse.Namespace) -> int:
    from repro.core.registry import available_algorithms

    for name in available_algorithms():
        print(name)
    print("off  (offline optimum; via repro.baselines.solve_offline)")
    return 0


_COMMANDS = {
    "table": _cmd_table,
    "figure": _cmd_figure,
    "cr": _cmd_cr,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "sensitivity": _cmd_sensitivity,
    "ablation": _cmd_ablation,
    "reproduce": _cmd_reproduce,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
    "soak": _cmd_soak,
    "quickstart": _cmd_quickstart,
    "datasets": _cmd_datasets,
    "algorithms": _cmd_algorithms,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    conflict = _flag_conflict(parser, args)
    if conflict is not None:
        parser.error(f"{args.command}: {conflict}")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
