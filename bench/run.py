"""Run the repository benchmark.

    python3 bench/run.py                    # all workloads, seed 17
    python3 bench/run.py --trace            # the same, traced: per-layer table
    python3 bench/run.py --workload demcom-serve --seed 3 --seconds 18 --trace 0

Without ``--workload`` every workload in ``BENCHMARK.json`` runs in its
own fresh interpreter, one after another, and the combined results land
in ``.bench_out/results.json``.  With ``--workload`` one workload runs in
this process (re-executed under the pinned environment first); it prints
its metrics by name with their units, writes ``.bench_out/<name>.json``
(plus ``spans.jsonl`` and ``loadgen.jsonl`` under ``.bench_out/<name>/``
when traced) and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import common


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=17, help="trace seed (default 17)")
    parser.add_argument("--seconds", type=float, help="measured time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument(
        "--forge-mismatch", action="store_true",
        help="corrupt the reference row (tests that a mismatch fails the run)",
    )
    return parser.parse_args(argv)


# -- host record -------------------------------------------------------------


def _filesystem(path: Path) -> str | None:
    """Type of the filesystem holding ``path`` (from /proc/mounts)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return None
    best, kind = "", None
    resolved = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) > 2 and (resolved + "/").startswith(fields[1].rstrip("/") + "/") and len(fields[1]) >= len(best):
            best, kind = fields[1], fields[2]
    return kind


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _calibration_s() -> float:
    """Time of a fixed pure-Python loop: reported to compare hosts, never gated."""
    start = time.perf_counter()
    total = 0
    for value in range(3_000_000):
        total += value * value
    return time.perf_counter() - start


def host_record() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    common.OUT_DIR.mkdir(exist_ok=True)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "work_dir_filesystem": _filesystem(common.OUT_DIR),
        "git_commit": _git_commit(),
        "calibration_s": _calibration_s(),
    }


# -- one workload ------------------------------------------------------------


def run_one(args: argparse.Namespace, spec: dict) -> int:
    from batch import run_batch
    from serve import run_served
    from tracing import per_layer_metrics, write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise common.BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    runner = run_served if workload.served else run_batch
    report = runner(workload, args.seed, args.seconds, bool(args.trace), args.forge_mismatch)
    if args.trace:
        values = per_layer_metrics(report.spans, report.records, report.layer_extras)
        declared = spec["per_layer"]
    else:
        values = report.metrics
        declared = spec["end_to_end"]
    if set(values) != {metric["name"] for metric in declared}:
        raise common.BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]} for metric in declared}

    for name, metric in metrics.items():
        print(f"{workload.name:14} {name:40} {metric['value']:>14.6g} {metric['unit']}")
    for problem in report.problems:
        print(f"{workload.name:14} FAILED: {problem}")
    error_ratio = report.failed / report.attempted if report.attempted else 1.0
    print(f"{workload.name:14} error_ratio = {error_ratio:.6g} ({report.failed}/{report.attempted})")
    if not args.trace:
        extras = report.extras
        line = (f"{workload.name:14} p90 {extras['p90_ms']:.6g} ms, p99 {extras['p99_ms']:.6g} ms "
                f"(reported, not gated) over {extras['latency_samples']} latency samples")
        if workload.served:
            line += (f"; p99 limit {extras['p99_limit_ms']} ms met: {extras['p99_limit_met']}; "
                     f"generator lateness {json.dumps(extras['lateness_ms'])}")
        print(line)
        if workload.served and not extras["valid"]:
            print(f"{workload.name:14} INVALID timings: open-loop generator lateness p99 over "
                  f"{extras['lateness_limit_ms']} ms, so the host, not the server, set the latencies")

    out = common.OUT_DIR
    out.mkdir(exist_ok=True)
    if args.trace:
        (out / workload.name).mkdir(exist_ok=True)
        write_spans(out / workload.name / "spans.jsonl", report.spans)
        (out / workload.name / "loadgen.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in report.records)
        )
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "error_ratio": error_ratio,
        "problems": report.problems,
        "extras": report.extras,
        "host": host_record(),
    }
    suffix = "-trace" if args.trace else ""
    (out / f"{workload.name}{suffix}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if report.correct else 1


# -- every workload ----------------------------------------------------------


def run_all(args: argparse.Namespace, spec: dict) -> int:
    names = [workload["name"] for workload in spec["workloads"]]
    records = {}
    status = 0
    start = time.perf_counter()
    suffix = "-trace" if args.trace else ""
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.forge_mismatch:
            command.append("--forge-mismatch")
        path = common.OUT_DIR / f"{name}{suffix}.json"
        path.unlink(missing_ok=True)
        done = subprocess.run(command, env=common.pinned_env(), cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
        print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
        if done.returncode != 0:
            status = 1
        records[name] = (
            json.loads(path.read_text()) if path.is_file() else {"correct": False, "exit_code": done.returncode}
        )
    wall = time.perf_counter() - start

    kind = "per_layer" if args.trace else "end_to_end"
    print()
    print(f"{'metric':40} {'unit':6} " + " ".join(f"{name:>14}" for name in names))
    for metric in spec[kind]:
        cells = []
        for name in names:
            value = records[name].get("metrics", {}).get(metric["name"], {}).get("value")
            cells.append(f"{value:>14.6g}" if value is not None else f"{'-':>14}")
        print(f"{metric['name']:40} {metric['unit']:6} " + " ".join(cells))
    verdicts = {name: bool(records[name].get("correct")) for name in names}
    print(f"correct: {verdicts}; wall {wall:.1f} s")
    summary = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall,
        "host": host_record(),
        "workloads": records,
    }
    (common.OUT_DIR / ("results-trace.json" if args.trace else "results.json")).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Unwind on SIGTERM so every serving target is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _parse(argv)
    try:
        spec = common.load_benchmark_spec()
        common.ensure_program()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.workload is None:
            return run_all(args, spec)
        if not common.env_is_pinned():
            os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], common.pinned_env())
        return run_one(args, spec)
    except (OSError, ValueError, common.BenchError) as error:
        print(f"bench: cannot run: {error}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
