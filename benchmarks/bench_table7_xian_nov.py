"""Bench: regenerate the paper's Table VII (xian-nov city pair).

Prints the measured table and the paper-vs-measured comparison, asserts
the reproduction contract, checks EXPERIMENTS.md's measured column, and
times one full table regeneration.
"""

from __future__ import annotations

from table_common import (
    assert_matches_experiments_md,
    assert_reproduction_contract,
    print_comparison,
    regenerate_table,
)


def test_table_7(benchmark):
    result = benchmark.pedantic(
        regenerate_table, args=("VII",), rounds=1, iterations=1
    )
    print_comparison(result)
    assert_reproduction_contract(result)
    assert_matches_experiments_md(result)
