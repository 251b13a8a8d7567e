"""The public API resolves: every name a ``repro`` module exports exists,
and every name docs/API.md lists imports from where the document says."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    ["repro"]
    + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith(".__main__")
    ]
)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name: str) -> None:
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"


API_DOC = Path(__file__).resolve().parent.parent / "docs" / "API.md"
_SECTION = re.compile(r"^## `(repro(?:\.\w+)*)`")
_NAME = re.compile(r"[A-Za-z_][\w.]*")


def _documented_names() -> list[tuple[str, str]]:
    """(module, dotted name) for each first-column name of docs/API.md.

    A ``## `repro.x` `` section documents names importable from ``repro.x``;
    a row whose first column also names a module, as in
    ``| `Name` (`repro.x.y`) |``, documents names of that submodule.  A span
    ``A.b / c`` lists ``A.b`` and ``A.c``; call syntax and ``await`` are
    dropped.
    """
    names = []
    section = None
    for line in API_DOC.read_text(encoding="utf-8").splitlines():
        heading = _SECTION.match(line)
        if heading:
            section = heading.group(1)
            continue
        if line.startswith("## "):
            section = None
        if section is None or not line.startswith("| ") or line.startswith("| Name "):
            continue
        spans = re.findall(r"`([^`]+)`", line.split("|")[1])
        owner = next((span for span in spans if span.startswith("repro.")), section)
        for span in spans:
            if span.startswith("repro."):
                continue
            prefix = ""
            for piece in span.removeprefix("await ").split(" / "):
                name = _NAME.match(piece.strip()).group(0)
                if "." in name:
                    prefix = name.rsplit(".", 1)[0] + "."
                else:
                    name = prefix + name
                names.append((owner, name))
    return names


def _resolves(module_name: str, dotted: str) -> bool:
    module = importlib.import_module(module_name)
    head, *rest = dotted.split(".")
    try:
        if hasattr(module, head):
            target = getattr(module, head)
        else:
            # `reporting.golden_row` under repro.experiments names a submodule.
            target = importlib.import_module(f"{module_name}.{head}")
        for attribute in rest:
            target = getattr(target, attribute)
    except (ImportError, AttributeError):
        return False
    return True


def test_api_doc_names_import() -> None:
    documented = _documented_names()
    assert documented, "no names parsed from docs/API.md"
    missing = [
        f"{module}: {name}"
        for module, name in documented
        if not _resolves(module, name)
    ]
    assert missing == [], f"docs/API.md names that do not import: {missing}"
