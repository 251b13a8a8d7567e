"""Tests for bipartite structures and matching algorithms.

The exact solvers are cross-checked against ``networkx`` (Hopcroft-Karp,
max-weight matching, max flow) and each other.  Max-weight matching is
:class:`~repro.graph.mincostflow.CapacitatedAssignment` at unit capacity.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph import BipartiteGraph, Dinic, HopcroftKarp, MatchingResult
from repro.graph.mincostflow import CapacitatedAssignment


def random_graph(
    rng: random.Random, left: int, right: int, density: float
) -> BipartiteGraph:
    graph = BipartiteGraph()
    for l in range(left):
        graph.add_left(f"L{l}")
    for r in range(right):
        graph.add_right(f"R{r}")
    for l in range(left):
        for r in range(right):
            if rng.random() < density:
                graph.add_edge(f"L{l}", f"R{r}", rng.uniform(0.1, 10.0))
    return graph


def networkx_max_weight(graph: BipartiteGraph) -> float:
    g = nx.Graph()
    for left, right, weight in graph.edges():
        g.add_edge(("L", left), ("R", right), weight=weight)
    matching = nx.max_weight_matching(g)
    return sum(g[u][v]["weight"] for u, v in matching)


def unit_assignment(graph: BipartiteGraph) -> MatchingResult:
    solver = CapacitatedAssignment()
    for left, right, weight in graph.edges():
        solver.add_edge(left, right, weight)
    pairs, total_weight = solver.solve()
    return MatchingResult(pairs, total_weight)


class TestBipartiteGraph:
    def test_add_edge_creates_vertices(self):
        graph = BipartiteGraph()
        graph.add_edge("a", "x", 2.0)
        assert graph.left_count == 1
        assert graph.right_count == 1
        assert graph.weight("a", "x") == 2.0

    def test_edge_replacement(self):
        graph = BipartiteGraph()
        graph.add_edge("a", "x", 1.0)
        graph.add_edge("a", "x", 3.0)
        assert graph.edge_count == 1
        assert graph.weight("a", "x") == 3.0

    def test_missing_weight_is_none(self):
        graph = BipartiteGraph()
        graph.add_edge("a", "x", 1.0)
        assert graph.weight("a", "y") is None
        assert graph.weight("b", "x") is None

    def test_non_finite_weight_raises(self):
        graph = BipartiteGraph()
        with pytest.raises(GraphError):
            graph.add_edge("a", "x", float("nan"))
        with pytest.raises(GraphError):
            graph.add_edge("a", "x", float("inf"))

    def test_neighbours(self):
        graph = BipartiteGraph()
        graph.add_edge("a", "x", 1.0)
        graph.add_edge("a", "y", 2.0)
        assert graph.neighbours("a") == {"x": 1.0, "y": 2.0}
        with pytest.raises(GraphError):
            graph.neighbours("nope")


class TestMaxWeightMatching:
    def test_empty_graph(self):
        assert unit_assignment(BipartiteGraph()).cardinality == 0

    def test_single_edge(self):
        graph = BipartiteGraph()
        graph.add_edge("a", "x", 5.0)
        result = unit_assignment(graph)
        assert result.pairs == {"a": "x"}
        assert result.total_weight == 5.0

    def test_prefers_heavier_edge(self):
        graph = BipartiteGraph()
        graph.add_edge("a", "x", 1.0)
        graph.add_edge("b", "x", 9.0)
        result = unit_assignment(graph)
        assert result.pairs == {"b": "x"}

    def test_augmenting_beats_greedy(self):
        # Greedy would take a-x (10) and leave b unmatched; optimum is
        # a-y (7) + b-x (8) = 15 > 10.
        graph = BipartiteGraph()
        graph.add_edge("a", "x", 10.0)
        graph.add_edge("a", "y", 7.0)
        graph.add_edge("b", "x", 8.0)
        result = unit_assignment(graph)
        assert result.total_weight == 15.0

    def test_skips_non_positive_edges(self):
        graph = BipartiteGraph()
        graph.add_edge("a", "x", -2.0)
        graph.add_edge("b", "y", 0.0)
        result = unit_assignment(graph)
        assert result.cardinality == 0

    def test_leaves_vertices_unmatched_when_beneficial(self):
        # Matching "a" to x would block the much heavier b-x.
        graph = BipartiteGraph()
        graph.add_edge("a", "x", 1.0)
        graph.add_edge("b", "x", 100.0)
        graph.add_edge("a", "y", 0.5)
        result = unit_assignment(graph)
        assert result.total_weight == 100.5

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=0.1, max_value=1.0),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_networkx(self, left, right, density, seed):
        graph = random_graph(random.Random(seed), left, right, density)
        ours = unit_assignment(graph).total_weight
        reference = networkx_max_weight(graph)
        assert ours == pytest.approx(reference, abs=1e-6)

    def test_matching_is_injective(self):
        graph = random_graph(random.Random(5), 20, 15, 0.3)
        result = unit_assignment(graph)
        rights = list(result.pairs.values())
        assert len(rights) == len(set(rights))

    def test_right_to_left_inverse(self):
        graph = BipartiteGraph()
        graph.add_edge("a", "x", 1.0)
        result = unit_assignment(graph)
        assert result.right_to_left() == {"x": "a"}


class TestHopcroftKarp:
    def test_simple_contention(self):
        graph = BipartiteGraph()
        graph.add_edge("r1", "w1", 1.0)
        graph.add_edge("r2", "w1", 1.0)
        assert HopcroftKarp(graph).solve().cardinality == 1

    def test_perfect_matching(self):
        graph = BipartiteGraph()
        for i in range(4):
            graph.add_edge(f"r{i}", f"w{i}", 1.0)
            graph.add_edge(f"r{i}", f"w{(i + 1) % 4}", 1.0)
        assert HopcroftKarp(graph).solve().cardinality == 4

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0.1, max_value=1.0),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_networkx_cardinality(self, left, right, density, seed):
        graph = random_graph(random.Random(seed), left, right, density)
        g = nx.Graph()
        left_nodes = set()
        for l, r, __ in graph.edges():
            g.add_edge(("L", l), ("R", r))
            left_nodes.add(("L", l))
        expected = (
            len(nx.bipartite.maximum_matching(g, top_nodes=left_nodes)) // 2
            if g.number_of_edges()
            else 0
        )
        assert HopcroftKarp(graph).solve().cardinality == expected


class TestDinic:
    def test_simple_path(self):
        net = Dinic()
        net.add_edge("s", "a", 1.0)
        net.add_edge("a", "t", 1.0)
        assert net.max_flow("s", "t") == 1.0

    def test_bottleneck(self):
        net = Dinic()
        net.add_edge("s", "a", 10.0)
        net.add_edge("a", "t", 3.0)
        assert net.max_flow("s", "t") == 3.0

    def test_parallel_paths(self):
        net = Dinic()
        for mid in ("a", "b", "c"):
            net.add_edge("s", mid, 1.0)
            net.add_edge(mid, "t", 1.0)
        assert net.max_flow("s", "t") == 3.0

    def test_source_equals_sink_raises(self):
        with pytest.raises(GraphError):
            Dinic().max_flow("s", "s")

    def test_negative_capacity_raises(self):
        with pytest.raises(GraphError):
            Dinic().add_edge("a", "b", -1.0)

    def test_disconnected(self):
        net = Dinic()
        net.add_edge("s", "a", 1.0)
        net.add_edge("b", "t", 1.0)
        assert net.max_flow("s", "t") == 0.0

    def test_flow_on(self):
        net = Dinic()
        net.add_edge("s", "a", 2.0)
        net.add_edge("a", "t", 2.0)
        net.max_flow("s", "t")
        assert net.flow_on("s", "a") == 2.0

    def test_matches_hopcroft_karp_on_unit_bipartite(self):
        rng = random.Random(11)
        graph = random_graph(rng, 12, 12, 0.25)
        net = Dinic()
        for l, r, __ in graph.edges():
            net.add_edge(("L", l), ("R", r), 1.0)
        for l in graph.left_keys():
            net.add_edge("s", ("L", l), 1.0)
        for r in graph.right_keys():
            net.add_edge(("R", r), "t", 1.0)
        assert net.max_flow("s", "t") == HopcroftKarp(graph).solve().cardinality

    def test_matches_networkx_maxflow(self):
        rng = random.Random(2)
        nodes = [f"n{i}" for i in range(8)]
        net = Dinic()
        g = nx.DiGraph()
        for __ in range(20):
            u, v = rng.sample(nodes, 2)
            capacity = rng.uniform(0.5, 4.0)
            net.add_edge(u, v, capacity)
            if g.has_edge(u, v):
                g[u][v]["capacity"] += capacity
            else:
                g.add_edge(u, v, capacity=capacity)
        g.add_node("n0")
        g.add_node("n7")
        expected = nx.maximum_flow_value(g, "n0", "n7") if g.has_node("n0") else 0.0
        assert net.max_flow("n0", "n7") == pytest.approx(expected)
