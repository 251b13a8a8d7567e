"""Service benchmark: sustained throughput and end-to-end decision latency.

Thin runner around :mod:`repro.experiments.service_bench` (the core lives
in the package so its pytest entry point shares it).  Three modes
are measured: the in-process gateway, the gateway with the ``COMWAL1``
write-ahead journal enabled, and the full JSONL-over-TCP stack — plus the
journal-overhead ratio gated at 15%.

The repo-root ``BENCH_service.json`` is the checked-in reference::

    PYTHONPATH=src python benchmarks/bench_service.py --output BENCH_service.json

CI smoke (quick sizes, sanity thresholds only)::

    PYTHONPATH=src python benchmarks/bench_service.py --quick

Gate the journal overhead against the reference::

    PYTHONPATH=src python benchmarks/bench_service.py --quick --check BENCH_service.json

Also runnable through pytest (``test_service_throughput_sane``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.service_bench import (
    check_service_regression,
    render_service_report,
    run_service_benchmark,
)


def test_service_throughput_sane():
    """Pytest entry point: the service keeps interactive decision latency."""
    payload = run_service_benchmark(quick=True)
    for section in ("gateway", "gateway_journal", "tcp"):
        row = payload[section]
        assert row["requests"] > 0
        # Conservative floors for noisy CI runners; BENCH_service.json
        # records the real margins (thousands of req/s, sub-ms p95).
        assert row["requests_per_second"] > 50
        assert row["latency_ms"]["p95"] < 250.0
    # Transport overhead must not dominate the decision cost.
    assert (
        payload["tcp"]["requests_per_second"]
        > payload["gateway"]["requests_per_second"] * 0.05
    )
    # Loose sanity floor on the durability cost; the strict 15% budget is
    # gated by `--check` where runner noise is visible.
    assert payload["journal_overhead"]["throughput_ratio"] > 0.5


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
        help="gate the journal-overhead ratio against this reference JSON "
        "(e.g. BENCH_service.json); exit 1 on regression",
    )
    args = parser.parse_args(argv)
    payload = run_service_benchmark(quick=args.quick)
    print(render_service_report(payload))
    if args.output:
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"saved: {args.output}")
    if args.check:
        failures = check_service_regression(payload, args.check)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"OK: journal overhead within budget of {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
