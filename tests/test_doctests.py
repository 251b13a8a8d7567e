"""Run the executable examples embedded in module docstrings.

Keeps every ``>>>`` snippet in the documentation honest; modules whose
examples are illustrative-only mark them ``# doctest: +SKIP``.
"""

from __future__ import annotations

import doctest

import pytest

import repro
import repro.graph.hopcroft_karp
import repro.graph.maxflow
import repro.graph.mincostflow
import repro.utils.memory
import repro.utils.rng

MODULES = [
    repro,
    repro.graph.hopcroft_karp,
    repro.graph.maxflow,
    repro.graph.mincostflow,
    repro.utils.memory,
    repro.utils.rng,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module}"
