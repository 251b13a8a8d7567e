"""What ``bench/`` reaches of the library still resolves.

The repository benchmark (``bench/run.py``) imports names from ``repro``
and, under ``--trace 1``, wraps the functions its ``LAYERS`` table names.
A deletion in ``src/`` that breaks either would only show when the
benchmark runs.  These tests read ``bench/*.py`` with :mod:`ast` and
import no bench module.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES = sorted(BENCH.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names() -> list[tuple[str, str, str]]:
    """``(bench file, module, name)`` for every ``from repro... import``."""
    found = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.module.split(".")[0] == "repro":
                found.extend(
                    (path.name, node.module, alias.name) for alias in node.names
                )
    return found


def _layers() -> list[tuple[str, str]]:
    """``(owner, attribute)`` of every row of ``bench/tracing.py``'s LAYERS."""
    for node in _tree(BENCH / "tracing.py").body:
        target = node.target if isinstance(node, ast.AnnAssign) else None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        if isinstance(target, ast.Name) and target.id == "LAYERS":
            assert isinstance(node.value, ast.Tuple)
            rows = []
            for row in node.value.elts:
                assert isinstance(row, ast.Tuple)
                owner, attribute = row.elts[:2]
                rows.append((ast.literal_eval(owner), ast.literal_eval(attribute)))
            return rows
    raise AssertionError("bench/tracing.py defines no LAYERS table")


def test_bench_sources_found() -> None:
    assert (BENCH / "run.py") in SOURCES


@pytest.mark.parametrize(
    "source, module, name", _imported_names(), ids=lambda value: str(value)
)
def test_bench_import_resolves(source: str, module: str, name: str) -> None:
    imported = importlib.import_module(module)
    submodule = f"{module}.{name}"
    assert hasattr(imported, name) or importlib.util.find_spec(submodule), (
        f"bench/{source} imports {name!r} from {module}, which has no such name"
    )


@pytest.mark.parametrize("owner, attribute", _layers(), ids=lambda value: str(value))
def test_traced_layer_resolves(owner: str, attribute: str) -> None:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    if class_name:
        assert hasattr(target, class_name), f"{module_name} has no {class_name}"
        target = getattr(target, class_name)
    assert callable(getattr(target, attribute, None)), (
        f"{owner} has no callable {attribute}"
    )
