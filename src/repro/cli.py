"""Command-line interface: ``python -m repro`` / ``com-repro``.

Subcommands regenerate the paper's experiments from a terminal:

* ``table V|VI|VII`` — one city-pair comparison table;
* ``figure <axis> <metric>`` — one Fig.-5 panel;
* ``cr <algorithm>`` — a competitive-ratio study on a small instance;
* ``chaos`` — a fault-injection sweep (docs/RESILIENCE.md);
* ``trace`` — run one scenario with full telemetry and write
  ``trace.jsonl`` / ``trace.chrome.json`` / ``metrics.json``
  (docs/OBSERVABILITY.md);
* ``bench`` — the hot-path performance benchmark (docs/PERFORMANCE.md);
* ``lint`` — run the ``comlint`` project-invariant static analyzer
  (docs/STATIC_ANALYSIS.md);
* ``serve`` — run the matching engine as a long-lived JSONL/TCP service
  (docs/SERVICE.md);
* ``replay-serve`` — replay a trace through an ephemeral service under
  the virtual clock; ``--verify`` asserts byte-identity with the batch
  simulator;
* ``replay-events`` — re-drive a recorded ``COMEVT1`` event log and
  verify the canonical stream and metrics row reproduce byte-identically
  (docs/DASHBOARD.md);
* ``quickstart`` — a tiny end-to-end demo run;
* ``datasets`` — the simulated Table-III statistics.

Experiment subcommands accept ``--jobs N`` to fan seed x algorithm cells
across a process pool (:class:`repro.experiments.parallel.ParallelRunner`);
output is byte-identical to the serial run.
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

    bench = subparsers.add_parser(
        "bench",
        help=(
            "hot-path benchmark: Algorithm-2 fast path vs its reference "
            "baseline, plus the parallel executor (docs/PERFORMANCE.md)"
        ),
    )
    bench.add_argument(
        "--full", action="store_true", help="full sizes (default: quick)"
    )
    bench.add_argument(
        "--service",
        action="store_true",
        help=(
            "benchmark the serving layer instead: gateway, journaled "
            "gateway and TCP throughput plus the journal-overhead gate "
            "(docs/SERVICE.md)"
        ),
    )
    bench.add_argument(
        "--cluster",
        action="store_true",
        help=(
            "benchmark the sharded cluster instead: routed throughput at "
            "1/2/4/8 shards with the scaling-ratio gate (docs/CLUSTER.md)"
        ),
    )
    bench.add_argument(
        "--output", type=str, default=None, help="write the JSON payload here"
    )
    bench.add_argument(
        "--check",
        type=str,
        default=None,
        help="compare against this reference JSON (BENCH_hotpath.json, "
        "BENCH_service.json with --service, or BENCH_cluster.json with "
        "--cluster); exit 1 on regression",
    )
    _add_jobs_flag(bench)
    bench.set_defaults(jobs=0)

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
        "--baseline",
        type=str,
        default="comlint.baseline.json",
        help="accepted-violation file (default: comlint.baseline.json)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept every current finding into the baseline and exit 0",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="fail on baselined findings too, not just new ones",
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
            type=str,
            default=None,
            help="scenario JSON (from workloads.save_scenario); default: synthetic",
        )
        sub.add_argument("--requests", type=int, default=DEFAULT_DEMO_REQUESTS)
        sub.add_argument("--workers", type=int, default=DEFAULT_DEMO_WORKERS)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--service-duration", type=float, default=DEFAULT_SERVICE_DURATION
        )

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run the matching engine as a long-lived JSONL/TCP service "
            "(docs/SERVICE.md)"
        ),
    )
    _add_service_scenario_flags(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral, printed)"
    )
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
        "--restore",
        type=str,
        default=None,
        help="boot from a snapshot file instead of a fresh scenario",
    )
    serve.add_argument(
        "--journal",
        type=str,
        default=None,
        help=(
            "directory for the COMWAL1 write-ahead journal; if it already "
            "holds a checkpoint the gateway auto-recovers the pre-crash "
            "state (docs/RESILIENCE.md)"
        ),
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
        "--events",
        type=str,
        default=None,
        help=(
            "record a COMEVT1 event log at this path (replayable with "
            "replay-events --verify; resumed across restarts under "
            "--journal recovery)"
        ),
    )
    serve.add_argument(
        "--dashboard",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve the live HTTP+SSE ops dashboard on this port "
            "(0 = ephemeral, printed; docs/DASHBOARD.md)"
        ),
    )
    serve.add_argument(
        "--dashboard-cell-km",
        type=float,
        default=1.0,
        help="heatmap grid resolution in km (default: 1.0)",
    )
    serve.add_argument(
        "--sanitize-concurrency",
        action="store_true",
        help=(
            "enable the runtime concurrency sanitizer: ownership guards "
            "on decision-loop-owned state plus the event-loop stall "
            "detector (docs/STATIC_ANALYSIS.md)"
        ),
    )

    replay = subparsers.add_parser(
        "replay-serve",
        help=(
            "replay a trace through an ephemeral service under the virtual "
            "clock; --verify asserts byte-identity with the batch simulator"
        ),
    )
    _add_service_scenario_flags(replay)
    replay.add_argument(
        "--verify",
        action="store_true",
        help=(
            "also run Simulator.run on the same scenario and fail unless "
            "the metric rows are byte-identical"
        ),
    )
    replay.add_argument(
        "--snapshot-at",
        type=int,
        default=None,
        help=(
            "checkpoint after this many events, restore into a second "
            "gateway, and finish the stream from the snapshot (recovery "
            "drill; composes with --verify)"
        ),
    )
    replay.add_argument(
        "--output", type=str, default=None, help="write the metrics JSON here"
    )

    replay_events = subparsers.add_parser(
        "replay-events",
        help=(
            "re-drive a recorded COMEVT1 event log through the engine; "
            "--verify fails unless the canonical stream and metrics row "
            "reproduce byte-identically (docs/DASHBOARD.md)"
        ),
    )
    _add_service_scenario_flags(replay_events)
    replay_events.add_argument(
        "--log",
        type=str,
        required=True,
        help="the recorded .comevt stream (from serve --events or soak)",
    )
    replay_events.add_argument(
        "--tcp",
        action="store_true",
        help=(
            "route the replay through a loopback JSONL/TCP server instead "
            "of the in-process gateway (adds wire-codec coverage)"
        ),
    )
    replay_events.add_argument(
        "--verify",
        action="store_true",
        help="exit non-zero unless every byte-identity held",
    )
    replay_events.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "replay a merged cluster recording through this many shard "
            "gateways (must match the recording's meta; default: 1 = "
            "single-gateway stream)"
        ),
    )
    replay_events.add_argument(
        "--output", type=str, default=None, help="write the replay report here"
    )

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

    def _add_cluster_topology_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--shards",
            type=int,
            default=4,
            help="shard gateway count (default: 4)",
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
                "heterogeneity-aware plan: split hot cells into half-size "
                "subcells from the trace's arrival density instead of "
                "uniform column stripes (docs/CLUSTER.md#shard-plans)"
            ),
        )

    serve_cluster = subparsers.add_parser(
        "serve-cluster",
        help=(
            "run an N-shard gateway cluster behind one JSONL/TCP front "
            "door with spatial routing (docs/CLUSTER.md)"
        ),
    )
    _add_service_scenario_flags(serve_cluster)
    _add_cluster_topology_flags(serve_cluster)
    serve_cluster.add_argument("--host", default="127.0.0.1")
    serve_cluster.add_argument(
        "--port",
        type=int,
        default=0,
        help="front-door TCP port (0 = ephemeral, printed)",
    )
    serve_cluster.add_argument(
        "--shard-base-port",
        type=int,
        default=0,
        help=(
            "shard k's own JSONL server listens on base+k "
            "(default: 0 = ephemeral ports, printed)"
        ),
    )
    serve_cluster.add_argument(
        "--journal-root",
        type=str,
        default=None,
        help=(
            "arm per-shard COMWAL1 journals under this directory "
            "(<root>/shard-<k>; default: unjournaled)"
        ),
    )
    serve_cluster.add_argument(
        "--record",
        type=str,
        default=None,
        help=(
            "write the merged cluster-ordered COMEVT1 recording here at "
            "drain (replayable with replay-events --shards N --verify)"
        ),
    )

    replay_cluster = subparsers.add_parser(
        "replay-cluster",
        help=(
            "route the trace through an ephemeral N-shard cluster under "
            "the virtual clock, record the merged stream, and --verify "
            "its byte-identical replay (docs/CLUSTER.md)"
        ),
    )
    _add_service_scenario_flags(replay_cluster)
    _add_cluster_topology_flags(replay_cluster)
    replay_cluster.add_argument(
        "--tcp",
        action="store_true",
        help=(
            "put every shard behind its own loopback JSONL server and "
            "route through GatewayClient (adds wire + reconnect coverage)"
        ),
    )
    replay_cluster.add_argument(
        "--record",
        type=str,
        default=None,
        help="write the merged recording here (default: temporary file)",
    )
    replay_cluster.add_argument(
        "--verify",
        action="store_true",
        help=(
            "re-drive the merged recording through a fresh cluster and "
            "fail unless the canonical stream and cluster row reproduce "
            "byte-identically (skipped when a crash is induced)"
        ),
    )
    replay_cluster.add_argument(
        "--crash-shard",
        type=int,
        default=None,
        metavar="K",
        help=(
            "induce a fail-stop on shard K mid-stream and require the "
            "router to fail over to the survivors (exit 1 otherwise)"
        ),
    )
    replay_cluster.add_argument(
        "--crash-index",
        type=int,
        default=16,
        help="kill-point boundary index on the crashed shard (default: 16)",
    )
    replay_cluster.add_argument(
        "--crash-channel",
        choices=["journal_append", "journal_torn", "checkpoint", "ack"],
        default="ack",
        help="crash channel for --crash-shard (default: ack)",
    )
    replay_cluster.add_argument(
        "--output", type=str, default=None, help="write the report JSON here"
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


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    if getattr(args, "cluster", False):
        from repro.experiments.cluster_bench import (
            check_cluster_regression as check_regression,
            render_cluster_report as render_report,
            run_cluster_benchmark,
        )

        payload = run_cluster_benchmark(quick=not args.full)
    elif args.service:
        from repro.experiments.service_bench import (
            check_service_regression as check_regression,
            render_service_report as render_report,
        )
        from repro.experiments.service_bench import run_service_benchmark

        payload = run_service_benchmark(quick=not args.full)
    else:
        from repro.experiments.benchmark import (
            check_regression,
            render_report,
            run_hotpath_benchmark,
        )

        payload = run_hotpath_benchmark(quick=not args.full, jobs=args.jobs)
    print(render_report(payload))
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"saved: {args.output}")
    if args.check:
        failures = check_regression(payload, args.check)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        if getattr(args, "cluster", False):
            what = "cluster scaling"
        elif args.service:
            what = "journal/event overhead"
        else:
            what = "speedups"
        print(f"OK: {what} within tolerance of {args.check}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        Baseline,
        lint_paths,
        partition_violations,
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
    baseline_path = Path(args.baseline)
    if args.update_baseline:
        Baseline.from_violations(violations).save(baseline_path)
        print(
            f"baseline updated: {len(violations)} accepted finding(s) "
            f"-> {baseline_path}"
        )
        return 0

    baseline = Baseline.load(baseline_path)
    new, baselined = partition_violations(violations, baseline)
    failing = violations if args.strict else new
    if args.report_format == "json":
        print(render_json(new, baselined))
    else:
        print(render_text(new, baselined))
        if args.strict and baselined:
            print(f"strict mode: {len(baselined)} baselined finding(s) fail too")
    return 1 if failing else 0


def _service_scenario(args: argparse.Namespace):
    """The scenario a ``serve``/``replay-serve`` invocation operates on."""
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
    the property ``replay-serve --verify`` checks.
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


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ConfigurationError
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
    if args.restore and args.journal:
        raise ConfigurationError(
            "--restore and --journal are mutually exclusive: a journal "
            "directory carries its own checkpoint to recover from"
        )
    if args.restore:
        gateway = MatchingGateway.from_snapshot(
            args.restore, clock=clock, admission=admission
        )
        if args.events:
            gateway.attach_events(
                EventLog(args.events, registry=gateway.registry)
            )
        print(f"restored: {args.restore}")
    elif args.journal:
        journal_config = JournalConfig(
            directory=args.journal,
            fsync=args.fsync,
            fsync_interval=args.fsync_interval,
            checkpoint_every=args.checkpoint_every,
        )
        if journal_config.checkpoint_path.exists():
            gateway, report = recover_gateway(
                args.journal,
                fsync=args.fsync,
                fsync_interval=args.fsync_interval,
                checkpoint_every=args.checkpoint_every,
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
                journal=journal_config,
                events=args.events,
            )
            print(f"journal: {journal_config.journal_path} ({args.fsync})")
    else:
        gateway = MatchingGateway(
            scenario=_service_scenario(args),
            algorithm=args.algorithm,
            config=_service_config(args),
            clock=clock,
            admission=admission,
            events=args.events,
        )
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

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_replay_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service import (
        GatewayClient,
        MatchingGateway,
        MatchingServer,
        drive_trace,
    )

    scenario = _service_scenario(args)
    config = _service_config(args)

    async def _replay() -> dict:
        gateway = MatchingGateway(
            scenario=scenario, algorithm=args.algorithm, config=config
        )
        server = MatchingServer(gateway)
        host, port = await server.start()
        events = list(scenario.events)
        try:
            async with GatewayClient(host, port) as client:
                if args.snapshot_at is None:
                    return await drive_trace(client, scenario.events)
                import tempfile
                from pathlib import Path

                cut = max(0, min(args.snapshot_at, len(events)))
                for event in events[:cut]:
                    await _submit_event(client, event)
                with tempfile.TemporaryDirectory() as tmp:
                    path = await client.snapshot(str(Path(tmp) / "mid.snap"))
                    print(f"checkpointed after {cut} events: {path}")
                    restored = MatchingGateway.from_snapshot(path)
                    restored_server = MatchingServer(restored)
                    r_host, r_port = await restored_server.start()
                    try:
                        async with GatewayClient(r_host, r_port) as tail:
                            for event in events[cut:]:
                                await _submit_event(tail, event)
                            return await tail.drain()
                    finally:
                        await restored_server.stop()
        finally:
            await server.stop()

    metrics = asyncio.run(_replay())
    rendered = json.dumps(metrics, indent=2, sort_keys=True)
    print(rendered)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(rendered + "\n")
        print(f"saved: {args.output}")
    if args.verify:
        from repro.core import Simulator
        from repro.core.registry import algorithm_factory
        from repro.experiments.metrics import AlgorithmMetrics
        from repro.experiments.reporting import metrics_to_dict

        result = Simulator(config).run(scenario, algorithm_factory(args.algorithm))
        golden = metrics_to_dict(AlgorithmMetrics.from_simulation(result))
        served_row = json.dumps(metrics, sort_keys=True)
        golden_row = json.dumps(golden, sort_keys=True)
        if served_row != golden_row:
            print("VERIFY FAIL: served metrics differ from Simulator.run")
            print(f"  served: {served_row}")
            print(f"  golden: {golden_row}")
            return 1
        print("VERIFY OK: served metrics byte-identical to Simulator.run")
    return 0


def _cluster_plan(args: argparse.Namespace, scenario):
    """The shard plan a cluster command operates on."""
    from repro.cluster import ShardPlan, reach_from_events
    from repro.errors import ConfigurationError

    if args.shards < 1:
        raise ConfigurationError(f"--shards must be >= 1, got {args.shards}")
    reach = reach_from_events(scenario.events)
    if args.hetero:
        return ShardPlan.from_density(
            scenario.events, args.shards, args.cell_km, reach_km=reach
        )
    return ShardPlan.uniform(
        args.shards, args.cell_km, DEFAULT_CITY_KM, reach_km=reach
    )


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import ClusterServer, stop_tcp_cluster, tcp_cluster

    scenario = _service_scenario(args)
    config = _service_config(args)
    plan = _cluster_plan(args, scenario)
    journal_dirs = None
    if args.journal_root:
        from pathlib import Path

        journal_dirs = {
            shard_id: Path(args.journal_root) / f"shard-{shard_id}"
            for shard_id in range(plan.shard_count)
        }

    async def _serve() -> None:
        router, logs, servers, clock = await tcp_cluster(
            scenario,
            plan,
            algorithm=args.algorithm,
            config=config,
            host=args.host,
            base_port=args.shard_base_port,
            journal_dirs=journal_dirs,
            sanitize=True,
        )
        front = ClusterServer(
            router,
            clock,
            host=args.host,
            port=args.port,
            logs=logs,
            record=args.record,
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
                print(
                    f"  shard {shard_id}: {shard_host}:{shard_port} "
                    f"({cells} cell(s))"
                )
            if args.record:
                print(f"merged recording at drain: {args.record}")
            print("verbs: ping request worker shed outcome stats drain")
            await front.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await front.stop()
            await stop_tcp_cluster(router, servers)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("cluster stopped")
    return 0


def _cmd_replay_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import json
    import tempfile
    from pathlib import Path

    from repro.cluster import (
        drive_cluster,
        local_cluster,
        recording_of,
        replay_cluster_log,
        stop_tcp_cluster,
        tcp_cluster,
    )
    from repro.faults.crash import CrashPlan
    from repro.service import replay_event_log

    scenario = _service_scenario(args)
    config = _service_config(args)
    plan = _cluster_plan(args, scenario)

    with contextlib.ExitStack() as stack:
        crash_plans = None
        journal_dirs = None
        if args.crash_shard is not None:
            if not 0 <= args.crash_shard < plan.shard_count:
                print(
                    f"--crash-shard {args.crash_shard} out of range for "
                    f"{plan.shard_count} shard(s)",
                    file=sys.stderr,
                )
                return 2
            crash_plans = {
                args.crash_shard: CrashPlan.at(
                    args.crash_channel, args.crash_index
                )
            }
            # Every crash channel sits on the journal path, so the
            # doomed shard gets one even when the others run bare.
            journal_dirs = {
                args.crash_shard: Path(
                    stack.enter_context(
                        tempfile.TemporaryDirectory(prefix="com-cluster-")
                    )
                )
            }
        record = args.record or str(
            Path(
                stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="com-cluster-rec-")
                )
            )
            / "cluster.comevt"
        )

        async def _run():
            if args.tcp:
                router, logs, servers, _clock = await tcp_cluster(
                    scenario,
                    plan,
                    algorithm=args.algorithm,
                    config=config,
                    journal_dirs=journal_dirs,
                    crash_plans=crash_plans,
                    sanitize=True,
                )
            else:
                router, logs, _clock = local_cluster(
                    scenario,
                    plan,
                    algorithm=args.algorithm,
                    config=config,
                    journal_dirs=journal_dirs,
                    crash_plans=crash_plans,
                    sanitize=True,
                )
                servers = None
            await router.start()
            try:
                result = await drive_cluster(router, scenario.events)
                recording_of(router, logs, result, record)
            finally:
                if servers is not None:
                    await stop_tcp_cluster(router, servers)
                else:
                    await router.stop()
            return result

        result = asyncio.run(_run())
        completed = sum(result.row["completed"].values())
        print(
            f"cluster drained: {plan.shard_count} shard(s), "
            f"{result.forwards} forward(s), "
            f"{result.cross_shard_serves} cross-shard serve(s), "
            f"completed {completed}"
        )
        print(f"merged recording: {record}")

        report: dict = {
            "shards": plan.shard_count,
            "mode": "tcp" if args.tcp else "in-process",
            "hetero": bool(args.hetero),
            "forwards": result.forwards,
            "cross_shard_serves": result.cross_shard_serves,
            "failovers": result.failovers,
            "crashed_shards": result.crashed_shards,
            "lost_workers": result.lost_workers,
            "completed": completed,
            "metrics": result.row,
        }
        status = 0
        if args.crash_shard is not None:
            degraded = (
                args.crash_shard in result.crashed_shards
                and result.failovers >= 1
            )
            report["degraded_ok"] = degraded
            if degraded:
                print(
                    f"DEGRADED OK: shard {args.crash_shard} fail-stopped "
                    f"({args.crash_channel}@{args.crash_index}); router "
                    f"failed over {result.failovers} arrival route(s), "
                    f"lost {result.lost_workers} worker(s), survivors "
                    f"drained clean"
                )
            else:
                print(
                    f"DEGRADED FAIL: crash on shard {args.crash_shard} did "
                    f"not fire or the router never failed over "
                    f"(crashed={result.crashed_shards}, "
                    f"failovers={result.failovers})",
                )
                status = 1
        elif args.verify:
            if plan.shard_count == 1:
                verify_report = asyncio.run(
                    replay_event_log(
                        record,
                        scenario,
                        algorithm=args.algorithm,
                        config=config,
                    )
                )
            else:
                verify_report = asyncio.run(
                    replay_cluster_log(
                        record,
                        scenario,
                        algorithm=args.algorithm,
                        config=config,
                    )
                )
            report["replay"] = verify_report.as_dict()
            if verify_report.verified:
                print(
                    "VERIFY OK: merged canonical stream and cluster row "
                    "byte-identical on replay"
                )
            else:
                print(
                    "VERIFY FAIL: cluster replay diverged "
                    f"(stream={verify_report.stream_identical}, "
                    f"row={verify_report.row_identical})"
                )
                status = 1
        if args.output:
            Path(args.output).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
            print(f"saved: {args.output}")
        return status


def _cmd_replay_events(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service import replay_event_log

    scenario = _service_scenario(args)
    config = _service_config(args)
    if getattr(args, "shards", 1) > 1:
        from repro.cluster import replay_cluster_log

        cluster_report = asyncio.run(
            replay_cluster_log(
                args.log,
                scenario,
                algorithm=args.algorithm,
                config=config,
            )
        )
        print(
            f"replayed {args.log} ({cluster_report.shards} shard(s)): "
            f"{cluster_report.recorded_events} recorded event(s), "
            f"{cluster_report.workers} worker(s), "
            f"{cluster_report.requests} request drive(s), "
            f"{cluster_report.sheds} shed(s)"
        )
        print(
            f"  stream "
            f"{'identical' if cluster_report.stream_identical else 'DIVERGED'}, "
            f"cluster row "
            f"{'identical' if cluster_report.row_identical else 'DIVERGED'}"
        )
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(
                json.dumps(cluster_report.as_dict(), indent=2, sort_keys=True)
                + "\n"
            )
            print(f"saved: {args.output}")
        if args.verify:
            if not cluster_report.verified:
                print(
                    "VERIFY FAIL: cluster replay did not reproduce the "
                    "recorded stream"
                )
                return 1
            print(
                "VERIFY OK: merged canonical stream and cluster row "
                "byte-identical to the recording"
            )
        return 0
    report = asyncio.run(
        replay_event_log(
            args.log,
            scenario,
            algorithm=args.algorithm,
            config=config,
            tcp=args.tcp,
        )
    )
    print(
        f"replayed {args.log} ({report.mode}): "
        f"{report.recorded_events} recorded event(s), "
        f"{report.workers} worker(s), {report.requests} request(s), "
        f"{report.sheds} shed(s), {report.crashes_recorded} crash marker(s)"
    )
    print(
        f"  stream {'identical' if report.stream_identical else 'DIVERGED'}, "
        f"metrics row {'identical' if report.row_identical else 'DIVERGED'}"
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"saved: {args.output}")
    if args.verify:
        if not report.verified:
            print(
                "VERIFY FAIL: replay did not reproduce the recorded stream"
            )
            return 1
        print(
            "VERIFY OK: canonical event stream and metrics row "
            "byte-identical to the recording"
        )
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import json
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
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"saved: {args.output}")
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


async def _submit_event(client, event) -> None:
    from repro.core.events import EventKind

    if event.kind is EventKind.WORKER:
        assert event.worker is not None
        await client.submit_worker(event.worker)
    else:
        assert event.request is not None
        await client.submit_request(event.request)


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
    "bench": _cmd_bench,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "serve-cluster": _cmd_serve_cluster,
    "replay-serve": _cmd_replay_serve,
    "replay-cluster": _cmd_replay_cluster,
    "replay-events": _cmd_replay_events,
    "soak": _cmd_soak,
    "quickstart": _cmd_quickstart,
    "datasets": _cmd_datasets,
    "algorithms": _cmd_algorithms,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
