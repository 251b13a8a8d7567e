"""Determinism regression: results must not depend on PYTHONHASHSEED.

Runs the same DemCOM + RamCOM simulation and GeoCrowd max-flow
assignment in two fresh interpreter processes with *different* hash
seeds and asserts the JSON reports are byte-identical.  Builtin ``hash()`` and raw set/dict-ordering leaks are
exactly what DET003/DET004 lint for; this is the end-to-end backstop.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parents[1]
HELPER = Path(__file__).parent / "helpers" / "determinism_report.py"


def _report(hash_seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("COM_REPRO_SANITIZE", None)
    completed = subprocess.run(
        [sys.executable, str(HELPER)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return completed.stdout


def test_reports_identical_across_hash_seeds() -> None:
    first = _report("0")
    second = _report("12345")
    assert first == second
    # sanity: the report is non-trivial (both algorithms, both platforms)
    assert b"DemCOM" in first and b"RamCOM" in first
    assert b"revenue" in first
