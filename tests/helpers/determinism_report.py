"""Subprocess helper: print a canonical JSON report of a small run.

Executed by ``tests/test_determinism_hashseed.py`` under different
``PYTHONHASHSEED`` values; any dependence on builtin hashing or set
iteration order shows up as a byte-level diff between the two outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1]))

from repro.baselines import solve_geocrowd
from repro.core import DemCOM, RamCOM, Simulator, SimulatorConfig

from conftest import make_request, make_scenario, make_worker


def build_scenario():
    workers = [
        make_worker(f"a{i}", "A", i * 0.25, x=i * 0.3, y=0.1 * i, radius=1.6)
        for i in range(8)
    ] + [
        make_worker(f"b{i}", "B", i * 0.4, x=i * 0.5, y=0.2, radius=1.4)
        for i in range(6)
    ]
    requests = [
        make_request(f"ra{i}", "A", 2.0 + i * 0.3, x=i * 0.3, value=4.0 + i)
        for i in range(10)
    ] + [
        make_request(f"rb{i}", "B", 2.5 + i * 0.4, x=i * 0.45, y=0.2, value=6.0)
        for i in range(6)
    ]
    return make_scenario(workers, requests, platform_ids=["A", "B"])


def report_for(algorithm) -> dict:
    config = SimulatorConfig(seed=7, measure_response_time=False, sanitize=True)
    result = Simulator(config).run(build_scenario(), algorithm)
    platforms = {}
    for pid in sorted(result.platforms):
        ledger = result.platforms[pid].ledger
        platforms[pid] = {
            "revenue": round(ledger.revenue, 12),
            "revenue_inner": round(ledger.revenue_inner, 12),
            "revenue_outer": round(ledger.revenue_outer, 12),
            "lender_income": round(ledger.total_lender_income, 12),
            "matches": [
                [
                    record.request.request_id,
                    record.worker.worker_id,
                    record.kind.value,
                    round(record.payment, 12),
                ]
                for record in ledger.records
            ],
            "rejected": [request.request_id for request in ledger.rejected],
        }
    return {"total_revenue": round(result.total_revenue, 12), "platforms": platforms}


def main() -> None:
    payload = {
        algorithm.name: report_for(algorithm) for algorithm in (DemCOM, RamCOM)
    }
    payload["GeoCrowd"] = solve_geocrowd(build_scenario()).assignments
    json.dump(payload, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
