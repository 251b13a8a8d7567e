"""Shared machinery for the Table V/VI/VII benches.

Each table bench regenerates one city-pair comparison at the configured
scale, prints the measured table next to the paper's published rows
(normalized by the TOTA row, since absolute CNY scales with |R|), and
asserts the reproduction contract:

* revenue ordering OFF > RamCOM > DemCOM > TOTA;
* |CoR|: RamCOM >> DemCOM > 0; acceptance: RamCOM >> DemCOM;
* payment rates in the paper's 0.6-0.9 band, RamCOM >= DemCOM;
* response time: TOTA <= DemCOM <= RamCOM.

At EXPERIMENTS.md's settings (scale 0.01, 2 seed-days) each bench also
checks that every value it measures for that document's "Measured"
column rounds to the printed cell, so the document cannot drift from
the code.
"""

from __future__ import annotations

from pathlib import Path

from conftest import BENCH_SCALE, BENCH_SEEDS, bench_experiment_config
from paper_reference import PAPER_TABLES, PaperRow

from repro.experiments.metrics import AlgorithmMetrics
from repro.experiments.tables import TableResult, run_city_table
from repro.utils.tables import TextTable

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

#: The paper's request counts (both cities) per table: the denominator of
#: the completion (CpR) rate, scaled down to the bench's trace size.
PAPER_REQUESTS = {
    "V": 91_321 + 90_589,
    "VI": 100_973 + 100_448,
    "VII": 57_611 + 57_638,
}

#: Column of each table in EXPERIMENTS.md's "V / VI / VII" cells.
_TABLE_COLUMN = {"V": 0, "VI": 1, "VII": 2}


def completion_rate(result: TableResult, measured: AlgorithmMetrics) -> float:
    """Completed requests over the table's (scaled) request count."""
    return measured.total_completed / round(
        PAPER_REQUESTS[result.table_id] * result.scale
    )


def regenerate_table(table_id: str) -> TableResult:
    """Run one paper table at the bench scale."""
    return run_city_table(
        table_id, scale=BENCH_SCALE, config=bench_experiment_config()
    )


def print_comparison(result: TableResult) -> None:
    """Print measured rows next to the paper's, normalized by TOTA."""
    paper = PAPER_TABLES[result.table_id]
    measured_tota = result.row("TOTA").total_revenue
    paper_tota = paper["TOTA"].total_revenue_m
    table = TextTable(
        [
            "Method",
            "Rev vs TOTA (paper)",
            "Rev vs TOTA (ours)",
            "CpR rate (paper)",
            "CpR rate (ours)",
            "AcpRt (paper)",
            "AcpRt (ours)",
            "v'/v (paper)",
            "v'/v (ours)",
        ],
        title=(
            f"Table {result.table_id} paper-vs-measured "
            f"(scale {result.scale:g}, revenue normalized by TOTA)"
        ),
    )
    total_paper_requests = PAPER_REQUESTS[result.table_id]
    for name in ("OFF", "TOTA", "DemCOM", "RamCOM"):
        published: PaperRow = paper[name]
        measured = result.row(name)
        table.add_row(
            [
                name,
                published.total_revenue_m / paper_tota,
                measured.total_revenue / measured_tota,
                published.total_completed / total_paper_requests,
                completion_rate(result, measured),
                published.acceptance,
                measured.acceptance_ratio,
                published.payment_rate,
                measured.payment_rate,
            ]
        )
    print()
    print(result.render())
    print()
    print(table.render())


def assert_reproduction_contract(result: TableResult) -> None:
    """The shape assertions every table must satisfy."""
    off = result.row("OFF")
    tota = result.row("TOTA")
    demcom = result.row("DemCOM")
    ramcom = result.row("RamCOM")

    # Revenue ordering (the headline result).
    assert off.total_revenue >= ramcom.total_revenue
    assert ramcom.total_revenue > demcom.total_revenue * 0.98
    assert demcom.total_revenue > tota.total_revenue

    # Cooperation volume and incentive quality.
    assert ramcom.cooperative > demcom.cooperative > 0
    assert tota.cooperative == 0
    assert ramcom.acceptance_ratio > demcom.acceptance_ratio
    assert 0.55 <= demcom.payment_rate <= 0.95
    assert 0.55 <= ramcom.payment_rate <= 0.95
    assert ramcom.payment_rate >= demcom.payment_rate - 0.05

    # Completed requests: COM serves more users than TOTA; OFF tops all.
    assert demcom.total_completed > tota.total_completed
    assert ramcom.total_completed > tota.total_completed * 0.95
    assert off.total_completed >= max(
        demcom.total_completed, ramcom.total_completed
    )

    # Efficiency: the cooperative algorithms pay a latency premium.
    assert tota.response_time_ms <= demcom.response_time_ms * 1.5
    assert demcom.response_time_ms <= ramcom.response_time_ms * 1.5


def _measured_cells(result: TableResult) -> dict[str, float]:
    """EXPERIMENTS.md metric label -> this run's value for that row."""
    tota = result.row("TOTA")
    demcom = result.row("DemCOM")
    ramcom = result.row("RamCOM")
    cells = {
        f"Rev({name})/TOTA": result.row(name).total_revenue / tota.total_revenue
        for name in ("OFF", "DemCOM", "RamCOM")
    }
    for name in ("TOTA", "DemCOM"):
        cells[f"CpR rate ({name})"] = completion_rate(result, result.row(name))
    cells["\\|CoR\\|: RamCOM / DemCOM"] = ramcom.cooperative / demcom.cooperative
    for name, row in (("DemCOM", demcom), ("RamCOM", ramcom)):
        cells[f"AcpRt: {name}"] = row.acceptance_ratio
        cells[f"v'/v: {name}"] = row.payment_rate
    return cells


def _documented_cells() -> dict[str, list[str]]:
    """The "Measured (V / VI / VII)" cells per metric row."""
    lines = EXPERIMENTS_MD.read_text(encoding="utf-8").splitlines()
    header = lines.index(
        "| Metric | Paper (V / VI / VII) | Measured (V / VI / VII) | Shape |"
    )
    cells = {}
    for line in lines[header + 2 :]:
        if not line.startswith("|"):
            break
        metric, __, measured, __ = line.strip("|").split(" | ")
        cells[metric.strip()] = measured.split(" / ")
    return cells


def assert_matches_experiments_md(result: TableResult) -> None:
    """Every measured value lies within half a unit of its printed last
    place in EXPERIMENTS.md (the time row depends on the host and the
    memory row prints one range, so neither is checked).  Applies only at
    the document's settings."""
    if BENCH_SCALE != 0.01 or BENCH_SEEDS != 2:
        return
    documented = _documented_cells()
    column = _TABLE_COLUMN[result.table_id]
    drifted = []
    for metric, value in _measured_cells(result).items():
        printed = documented[metric][column].strip().rstrip("×")
        places = len(printed.partition(".")[2])
        if abs(value - float(printed)) > 0.5 * 10.0**-places + 1e-9:
            drifted.append(f"{metric}: measured {value:.4f}, documented {printed}")
    assert not drifted, (
        f"EXPERIMENTS.md Table {result.table_id} column drifted: {drifted}"
    )
