"""Hot-path benchmark: Algorithm-2 fast path and the parallel executor.

Measures the quantities docs/PERFORMANCE.md optimises — decisions/sec and
p50/p95 per-estimate latency on the DemCOM payment-estimation
microbenchmark, decisions/sec on full DemCOM and RamCOM runs, and (on
multi-core machines) the parallel executor's wall-clock speedup.  Every
section is measured twice in the same process: ``baseline`` runs the retained
reference implementations (``fast_path=False``, bit-identical to the
pre-optimisation code) and ``current`` runs the default fast path, so the
recorded speedups are self-relative and transfer across machines.

The repo-root ``BENCH_hotpath.json`` is the checked-in reference::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --output BENCH_hotpath.json

CI smoke (quick sizes, fail if a speedup regresses >25% vs the reference)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick \
        --check BENCH_hotpath.json --output bench_hotpath_ci.json

Also runnable through pytest (``test_fast_path_not_slower``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.benchmark import (
    check_regression,
    render_report,
    run_hotpath_benchmark,
)


def test_fast_path_not_slower():
    """Pytest entry point: the fast path must beat its own baseline."""
    payload = run_hotpath_benchmark(quick=True, jobs=1)
    # Conservative floor for noisy CI runners; the checked-in reference
    # records the real margin (>= 2x on the payment microbenchmark).
    assert payload["payment_micro"]["speedup"] > 1.0
    assert payload["demcom_end_to_end"]["speedup"] > 0.9
    assert payload["ramcom_end_to_end"]["speedup"] > 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced sizes for CI smoke"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help=(
            "worker processes for the parallel-executor section "
            "(0 = one per CPU; the section is skipped when this resolves "
            "to 1)"
        ),
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the JSON payload to this path",
    )
    parser.add_argument(
        "--check",
        type=str,
        default=None,
        help=(
            "compare speedups against this reference JSON "
            "(exit 1 on >25%% regression)"
        ),
    )
    args = parser.parse_args(argv)

    payload = run_hotpath_benchmark(quick=args.quick, jobs=args.jobs)
    print(render_report(payload))
    if args.output:
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
        print(f"OK: speedups within tolerance of {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
