"""Harness tests for the benchmark: ``pytest bench/``.

Every workload runs at a one-second size, untraced and traced; the
output must carry exactly the metrics ``BENCHMARK.json`` declares, the
spans must be self-consistent, and a forged row mismatch must fail the
run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.ensure_program()

from tracing import analyze, read_spans  # noqa: E402
from workloads import WORKLOADS, build_trace, trace_config  # noqa: E402

SPEC = common.load_benchmark_spec()
RUN = [sys.executable, str(BENCH / "run.py")]


def _run(*args: str, cwd: Path = common.ROOT) -> tuple[int, list[str]]:
    done = subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout.splitlines()


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS.values()
    ]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]


def test_trace_builder_keeps_the_library_trace_at_the_layout_seed():
    from repro.workloads import SyntheticWorkload, complementary_hotspots, synthetic

    assert list(build_trace(3000, 17).events) == list(SyntheticWorkload(trace_config(3000)).build(17).events)
    assert list(build_trace(3000, 18).events) != list(build_trace(3000, 17).events)
    assert synthetic.complementary_hotspots is complementary_hotspots


def test_all_workloads_untraced_report_every_end_to_end_metric():
    code, lines = _run("--seconds", "1")
    assert code == 0, "\n".join(lines)
    results = json.loads((common.OUT_DIR / "results.json").read_text())
    assert set(results["workloads"]) == set(WORKLOADS)
    assert results["host"]["nproc"] >= 1 and results["host"]["calibration_s"] > 0
    for name, record in results["workloads"].items():
        assert record["correct"], name
        assert record["failed"] == 0 and record["attempted"] > 0
        assert {metric: value["unit"] for metric, value in record["metrics"].items()} == _declared("end_to_end")
        assert all(value["value"] > 0 for value in record["metrics"].values()), name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_with_consistent_spans(workload):
    code, lines = _run("--workload", workload, "--seconds", "1", "--trace", "1")
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: value["unit"] for name, value in result["metrics"].items()} == _declared("per_layer")
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0

    spans = read_spans(common.OUT_DIR / workload / "spans.jsonl")
    assert spans
    _, self_times, window = analyze(spans)
    assert window > 0
    by_id = {span[0]: span for span in spans}
    for span_id, parent, name, trace, start, end, _ in spans:
        assert 0 <= self_times[span_id] <= end - start, name
        if parent is not None and by_id[parent][2] in ("session.submit_request", "gateway.submit_request"):
            assert trace == by_id[parent][3], f"{name} left its request's trace"
    request_spans = [span for span in spans if span[2] == "session.submit_request"]
    assert request_spans and all(span[3] != f"{workload}-17" for span in request_spans)


@pytest.mark.parametrize("workload", ["demcom-batch", "demcom-serve"])
def test_forged_row_mismatch_fails_the_run(workload):
    code, lines = _run("--workload", workload, "--seconds", "1", "--forge-mismatch")
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        ["python3", "bench/run.py", "--workload", "demcom-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (1, None, "root", "run", 0, 100, None),
        (2, 1, "child", "run", 10, 40, None),
        (3, 1, "child", "run", 30, 60, None),
        (4, 1, "child", "run", 90, 120, None),
    ]
    layers, self_times, window = analyze(spans)
    assert self_times[1] == 100 - 50 - 10
    assert window == 100
    assert layers["child"].calls == 3
