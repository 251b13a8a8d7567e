"""Cluster benchmark: sharded throughput and modeled parallel speedup.

Thin runner around :mod:`repro.experiments.cluster_bench` (the core lives
in the package so its pytest entry point shares it).  One dense
trace is routed through in-process clusters of 1/2/4/8 shards with the
sanitizer on; each shard's routed substream is then re-driven in
isolation, so the critical path (slowest shard) gives the parallel
speedup a real N-process deployment realizes — see
``docs/CLUSTER.md#benchmarks``.

The repo-root ``BENCH_cluster.json`` is the checked-in reference::

    PYTHONPATH=src python benchmarks/bench_cluster.py --output BENCH_cluster.json

CI smoke (quick sizes, sanity thresholds only)::

    PYTHONPATH=src python benchmarks/bench_cluster.py --quick

Gate the scaling ratio against the reference::

    PYTHONPATH=src python benchmarks/bench_cluster.py --quick --check BENCH_cluster.json

Also runnable through pytest (``test_cluster_scaling_sane``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.cluster_bench import (
    check_cluster_regression,
    render_cluster_report,
    run_cluster_benchmark,
)


def test_cluster_scaling_sane():
    """Pytest entry point: sharding splits work and conserves matches."""
    payload = run_cluster_benchmark(quick=True)
    sections = payload["sections"]
    base = sections["1"]
    assert base["completed"] > 0
    for count in payload["shard_counts"]:
        row = sections[str(count)]
        # Forwarding must keep border matches alive across the partition.
        assert row["completed"] >= 0.8 * base["completed"]
        assert row["critical_path_seconds"] > 0
    # The 4-shard critical path must be well under the 1-shard time —
    # loose CI floor; the strict 2.5x gate runs via `--check` where
    # runner noise is visible.
    assert payload["scaling"]["modeled_speedup"]["4"] > 1.5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced sizes for CI smoke"
    )
    parser.add_argument(
        "--output", type=str, default=None, help="write the JSON payload here"
    )
    parser.add_argument(
        "--check",
        type=str,
        default=None,
        help="gate the scaling ratio against this reference JSON "
        "(e.g. BENCH_cluster.json); exit 1 on regression",
    )
    args = parser.parse_args(argv)
    payload = run_cluster_benchmark(quick=args.quick)
    print(render_cluster_report(payload))
    if args.output:
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"saved: {args.output}")
    if args.check:
        failures = check_cluster_regression(payload, args.check)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"OK: cluster scaling within tolerance of {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
