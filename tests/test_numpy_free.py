"""The engine never imports numpy.

numpy is an optional test/analysis dependency (pyproject's ``test``
extra), never a runtime one: the engine, the service and the cluster are
pure Python (DESIGN.md).  pytest's own plugins may already have imported
numpy into this process, so the check runs in a fresh interpreter that
imports only the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parents[1]

_SCRIPT = """
import sys

import repro.cluster
import repro.core
import repro.service
from repro.core import Simulator, SimulatorConfig
from repro.core.registry import algorithm_factory
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

scenario = SyntheticWorkload(
    SyntheticWorkloadConfig(request_count=80, worker_count=40)
).build(seed=3)
for name in ("demcom", "ramcom"):
    result = Simulator(SimulatorConfig(seed=3)).run(
        scenario, algorithm_factory(name)
    )
    assert result.total_completed > 0, name
assert "numpy" not in sys.modules, "the engine imported numpy"
print("numpy-free")
"""


def test_engine_runs_without_importing_numpy() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    assert completed.stdout.strip() == b"numpy-free"
