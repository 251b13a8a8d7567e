"""comlint: fixture-driven rule tests plus suppression/CLI checks.

Each file under ``tests/lint_fixtures/`` is crafted to fire *exactly* its
intended rule (and the suppressed/clean fixtures to fire nothing), so any
heuristic drift in the checker shows up as a precise fixture diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    get_rule,
    lint_paths,
    lint_source,
    render_json,
    rule_ids,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: fixture file -> the one rule it must fire (and nothing else).
EXPECTED = {
    "det001_direct_random.py": "DET001",
    "det002_wall_clock.py": "DET002",
    "det003_set_iteration.py": "DET003",
    "det004_builtin_hash.py": "DET004",
    "det005_numpy_random.py": "DET005",
    "obs001_unguarded_probe.py": "OBS001",
    "obs002_raw_event_serialization.py": "OBS002",
    "asy001_blocking_call.py": "ASY001",
    "asy002_unawaited_coroutine.py": "ASY002",
    "asy003_orphaned_task.py": "ASY003",
    "asy004_loop_owned_mutation.py": "ASY004",
    "wire001_schema_parity.py": "WIRE001",
    "err001_bare_except.py": "ERR001",
    "err002_swallowed_exception.py": "ERR002",
    "api001_mutable_default.py": "API001",
    "api002_mutable_dataclass_default.py": "API002",
}


@pytest.mark.parametrize("fixture,rule", sorted(EXPECTED.items()))
def test_fixture_fires_exactly_its_rule(fixture: str, rule: str) -> None:
    violations = lint_paths([FIXTURES / fixture], root=FIXTURES)
    assert [v.rule_id for v in violations] == [rule]


@pytest.mark.parametrize("fixture", ["suppressed.py", "clean.py"])
def test_quiet_fixtures_fire_nothing(fixture: str) -> None:
    assert lint_paths([FIXTURES / fixture], root=FIXTURES) == []


def test_every_rule_has_a_fixture() -> None:
    assert sorted(EXPECTED.values()) == sorted(rule_ids())


def test_directory_scan_covers_all_fixtures() -> None:
    violations = lint_paths([FIXTURES], root=FIXTURES)
    fired = {v.rule_id for v in violations}
    assert fired == set(rule_ids())
    assert len(violations) == len(EXPECTED)


def test_file_level_suppression() -> None:
    source = (
        "# comlint: disable-file=DET004\n"
        "def a(x):\n"
        "    return hash(x)\n"
        "def b(x):\n"
        "    return hash(x)\n"
    )
    assert lint_source(source, "mod.py") == []


def test_disable_all_on_line() -> None:
    source = "def a(x, acc=[]):  # comlint: disable=all\n    return acc\n"
    assert lint_source(source, "mod.py") == []


def test_syntax_error_becomes_e999() -> None:
    violations = lint_source("def broken(:\n", "mod.py")
    assert [v.rule_id for v in violations] == ["E999"]


def test_obs001_guard_patterns_pass() -> None:
    guarded = (
        "def emit(probe, pid):\n"
        "    if probe.enabled:\n"
        "        probe.count('x', 1, platform=pid)\n"
    )
    early_return = (
        "def emit(probe, pid):\n"
        "    if not probe.enabled:\n"
        "        return\n"
        "    probe.count('x', 1, platform=pid)\n"
    )
    ifexp = (
        "def emit(probe, pid):\n"
        "    span = probe.span('x') if probe.enabled else None\n"
        "    if span is not None:\n"
        "        probe.count('x', 1)\n"
    )
    for source in (guarded, early_return, ifexp):
        assert lint_source(source, "mod.py") == []


def test_det005_catches_aliased_and_lazy_numpy_random() -> None:
    aliased_module = (
        "import numpy.random as npr\n"
        "def draw():\n"
        "    return npr.default_rng(3)\n"
    )
    from_import = (
        "from numpy import random\n"
        "def draw():\n"
        "    return random.default_rng(3)\n"
    )
    submodule_from = "from numpy.random import default_rng\n"
    lazy_after_use = (
        "def draw():\n"
        "    return np.random.default_rng(3)\n"
        "def _load():\n"
        "    import numpy as np\n"
        "    return np\n"
    )
    for source in (aliased_module, from_import, submodule_from, lazy_after_use):
        violations = lint_source(source, "mod.py")
        assert [v.rule_id for v in violations] == ["DET005"], source


def test_det005_has_no_exempt_path() -> None:
    source = (
        "import numpy as np\n"
        "def make_generator(seed):\n"
        "    return np.random.Generator(np.random.PCG64(seed))\n"
    )
    assert get_rule("DET005").allowlist == ()
    # Including a module that other determinism rules exempt.
    for path in ("core/payment.py", "utils/rng.py", "core/other.py"):
        assert [v.rule_id for v in lint_source(source, path)] == [
            "DET005",
            "DET005",
        ]


def test_det003_sorted_iteration_passes() -> None:
    source = (
        "def order(items):\n"
        "    for key in sorted(set(items)):\n"
        "        yield key\n"
        "    return [k for k in sorted(items.keys())]\n"
    )
    assert lint_source(source, "mod.py") == []


def test_err002_reraise_passes() -> None:
    source = (
        "def guard(action):\n"
        "    try:\n"
        "        return action()\n"
        "    except Exception as error:\n"
        "        raise RuntimeError('context') from error\n"
    )
    assert lint_source(source, "mod.py") == []


def test_obs002_import_after_call_still_fires() -> None:
    # This codebase imports lazily inside functions, so the event-sink
    # import often appears *below* the offending call in source order.
    source = (
        "import json\n"
        "def save(row):\n"
        "    return json.dumps(row)\n"
        "def sink():\n"
        "    from repro.obs.events import EventLog\n"
        "    return EventLog()\n"
    )
    assert [v.rule_id for v in lint_source(source, "mod.py")] == ["OBS002"]


def test_obs002_quiet_without_event_sink_import() -> None:
    source = "import json\ndef save(row):\n    return json.dumps(row)\n"
    assert lint_source(source, "mod.py") == []


def test_obs002_canonical_encoder_passes() -> None:
    source = (
        "from repro.obs.events import encode_canonical\n"
        "def save(row):\n"
        "    return encode_canonical(row)\n"
    )
    assert lint_source(source, "mod.py") == []


def test_obs002_repro_obs_reexport_counts() -> None:
    source = (
        "import json\n"
        "from repro.obs import EventLog\n"
        "def save(row):\n"
        "    return json.dumps(row)\n"
    )
    assert [v.rule_id for v in lint_source(source, "mod.py")] == ["OBS002"]


def test_allowlisted_paths_are_exempt() -> None:
    source = "import random\nSTREAM = random.Random(7)\n"
    assert lint_source(source, "src/repro/utils/rng.py") == []
    assert [v.rule_id for v in lint_source(source, "src/repro/core/x.py")] == [
        "DET001"
    ]


def test_render_json_shape() -> None:
    violations = lint_paths([FIXTURES / "det001_direct_random.py"], root=FIXTURES)
    payload = json.loads(render_json(violations))
    assert payload["total"] == 1
    assert payload["counts"] == {"DET001": 1}
    assert payload["violations"][0]["rule"] == "DET001"


def test_cli_lint_exit_codes(tmp_path, monkeypatch, capsys) -> None:
    target = tmp_path / "pkg"
    target.mkdir()
    (target / "bad.py").write_text(
        "def f(x):\n    return hash(x)\n", encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)

    assert main(["lint", "pkg"]) == 1
    assert "DET004" in capsys.readouterr().out


def test_cli_lint_src_is_clean() -> None:
    repo_root = Path(__file__).parents[1]
    violations = lint_paths([repo_root / "src"], root=repo_root)
    assert violations == []
