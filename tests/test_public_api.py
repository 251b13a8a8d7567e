"""The public API resolves: every name a ``repro`` module exports exists."""

from __future__ import annotations

import importlib
import pkgutil

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
