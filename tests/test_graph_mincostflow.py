"""Tests for the capacitated assignment solver.

Exactness is cross-checked against networkx's maximum-weight matching on
a copy-expanded graph (the two formulations are equivalent by
construction).
"""

from __future__ import annotations

import heapq
import random
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph import mincostflow
from repro.graph.mincostflow import CapacitatedAssignment


def copy_expansion_optimum(
    edges: list[tuple[int, int, float]], capacities: dict[int, int]
) -> float:
    """Reference optimum: expand machines into capacity-many copies."""
    graph = nx.Graph()
    for job, machine, weight in edges:
        for copy in range(capacities.get(machine, 1)):
            graph.add_edge(("job", job), (machine, copy), weight=weight)
    matching = nx.max_weight_matching(graph)
    return sum(graph[u][v]["weight"] for u, v in matching)


class TestBasics:
    def test_empty(self):
        assert CapacitatedAssignment().solve() == ({}, 0.0)

    def test_single_edge(self):
        solver = CapacitatedAssignment()
        solver.add_edge("r", "w", 4.0)
        pairs, weight = solver.solve()
        assert pairs == {"r": "w"}
        assert weight == 4.0

    def test_capacity_two_serves_both(self):
        solver = CapacitatedAssignment()
        solver.set_capacity("w", 2)
        solver.add_edge("r1", "w", 5.0)
        solver.add_edge("r2", "w", 3.0)
        pairs, weight = solver.solve()
        assert weight == 8.0
        assert set(pairs) == {"r1", "r2"}

    def test_capacity_one_picks_heavier(self):
        solver = CapacitatedAssignment()
        solver.set_capacity("w", 1)
        solver.add_edge("r1", "w", 5.0)
        solver.add_edge("r2", "w", 3.0)
        pairs, weight = solver.solve()
        assert weight == 5.0
        assert pairs == {"r1": "w"}

    def test_zero_capacity(self):
        solver = CapacitatedAssignment()
        solver.set_capacity("w", 0)
        solver.add_edge("r", "w", 5.0)
        assert solver.solve() == ({}, 0.0)

    def test_negative_capacity_raises(self):
        with pytest.raises(GraphError):
            CapacitatedAssignment().set_capacity("w", -1)

    def test_non_finite_weight_raises(self):
        with pytest.raises(GraphError):
            CapacitatedAssignment().add_edge("r", "w", float("inf"))

    def test_non_positive_weights_unused(self):
        solver = CapacitatedAssignment()
        solver.add_edge("r", "w", -1.0)
        assert solver.solve() == ({}, 0.0)

    def test_rebalancing_through_full_machine(self):
        # r1 prefers w1 but must yield it to r2 (who has no alternative).
        solver = CapacitatedAssignment()
        solver.add_edge("r1", "w1", 10.0)
        solver.add_edge("r1", "w2", 9.0)
        solver.add_edge("r2", "w1", 8.0)
        pairs, weight = solver.solve()
        assert weight == 17.0
        assert pairs == {"r1": "w2", "r2": "w1"}


class TestAgainstCopyExpansion:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10),  # jobs
        st.integers(min_value=1, max_value=5),  # machines
        st.floats(min_value=0.1, max_value=1.0),  # density
        st.integers(min_value=1, max_value=4),  # max capacity
        st.integers(min_value=0, max_value=2**31),
    )
    def test_optimum_matches(self, jobs, machines, density, max_cap, seed):
        rng = random.Random(seed)
        capacities = {m: rng.randint(1, max_cap) for m in range(machines)}
        edges = [
            (j, m, round(rng.uniform(0.1, 10.0), 3))
            for j in range(jobs)
            for m in range(machines)
            if rng.random() < density
        ]
        solver = CapacitatedAssignment()
        for machine, capacity in capacities.items():
            solver.set_capacity(machine, capacity)
        for job, machine, weight in edges:
            solver.add_edge(job, machine, weight)
        __, ours = solver.solve()
        expected = copy_expansion_optimum(edges, capacities)
        assert ours == pytest.approx(expected, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_capacities_respected(self, seed):
        rng = random.Random(seed)
        solver = CapacitatedAssignment()
        capacities = {m: rng.randint(1, 3) for m in range(4)}
        for machine, capacity in capacities.items():
            solver.set_capacity(machine, capacity)
        for job in range(12):
            for machine in range(4):
                if rng.random() < 0.5:
                    solver.add_edge(job, machine, rng.uniform(0.1, 5.0))
        pairs, __ = solver.solve()
        loads: dict = {}
        for machine in pairs.values():
            loads[machine] = loads.get(machine, 0) + 1
        for machine, load in loads.items():
            assert load <= capacities[machine]

    def test_large_instance_smoke(self):
        rng = random.Random(0)
        solver = CapacitatedAssignment()
        for machine in range(30):
            solver.set_capacity(machine, rng.randint(1, 8))
        for job in range(300):
            for __ in range(3):
                solver.add_edge(job, rng.randrange(30), rng.uniform(1, 20))
        pairs, weight = solver.solve()
        assert weight > 0
        assert len(pairs) <= 300


class TestHeapWorkCounts:
    """Deterministic guard on the Dijkstra's heap work: a machine's key is
    pushed only when it improves on the smallest one pushed for it, where
    pushing every relaxation took 1,426 pushes and 194 pops here.  The
    pops fall too: stale entries are never pushed, so never popped."""

    PUSHES = 970
    POPS = 182

    def test_counts_pinned(self, monkeypatch):
        calls = {"push": 0, "pop": 0}

        def push(heap, item):
            calls["push"] += 1
            heapq.heappush(heap, item)

        def pop(heap):
            calls["pop"] += 1
            return heapq.heappop(heap)

        monkeypatch.setattr(
            mincostflow, "heapq", SimpleNamespace(heappush=push, heappop=pop)
        )
        rng = random.Random(7)
        solver = CapacitatedAssignment()
        capacities = {f"w{m}": 1 + m % 3 for m in range(10)}
        for machine, capacity in capacities.items():
            solver.set_capacity(machine, capacity)
        edges = []
        for job in range(60):
            # Integer weights: many ties for the key order to break.
            for machine in rng.sample(sorted(capacities), 6):
                edges.append((job, machine, float(rng.randint(1, 20))))
                solver.add_edge(*edges[-1])
        pairs, weight = solver.solve()
        assert calls == {"push": self.PUSHES, "pop": self.POPS}
        assert (len(pairs), weight) == (19, 364.0)
        assert weight == pytest.approx(copy_expansion_optimum(edges, capacities))
