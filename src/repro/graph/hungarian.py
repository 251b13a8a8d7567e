"""Maximum-weight bipartite matching.

:func:`max_weight_matching` is sparse successive-shortest-paths with
Johnson potentials (the incremental Jonker-Volgenant scheme).  Each left
vertex additionally owns a private zero-weight *dummy* column, which makes
every row matchable and turns "leave this request unserved" into an
ordinary assignment; maximizing total weight is converted to minimizing
``W - w`` with ``W`` the maximum edge weight, so all reduced costs stay
non-negative and Dijkstra applies.  Complexity ``O(L * (E + V) log V)``.

The offline COM baseline (paper §II-B / Fig. 4) builds a
:class:`~repro.graph.bipartite.BipartiteGraph` of eligible request-worker
pairs and calls :func:`max_weight_matching`.
"""

from __future__ import annotations

import heapq
import math

from repro.errors import GraphError
from repro.graph.bipartite import BipartiteGraph, MatchingResult

__all__ = ["max_weight_matching"]


def max_weight_matching(graph: BipartiteGraph) -> MatchingResult:
    """Exact maximum-weight bipartite matching of a sparse graph.

    Vertices may remain unmatched; only edges present in ``graph`` can be
    used.  Edges with non-positive weight are never chosen (matching them
    cannot increase the total weight, and the dummy column dominates them).
    """
    adjacency = graph.adjacency_by_id()
    left_count = graph.left_count
    right_count = graph.right_count
    if left_count == 0 or right_count == 0:
        return MatchingResult()

    max_weight = max(
        (weight for neighbours in adjacency for weight in neighbours.values()),
        default=0.0,
    )
    if max_weight <= 0.0:
        return MatchingResult()

    # Column ids: real columns [0, right_count); dummy for row i is
    # right_count + i.  cost(l, r) = max_weight - w(l, r); dummy cost =
    # max_weight (i.e. w = 0).
    total_columns = right_count + left_count
    match_col: list[int] = [-1] * total_columns  # column -> row
    match_row: list[int] = [-1] * left_count  # row -> column
    potential_row = [0.0] * left_count
    potential_col = [0.0] * total_columns

    def edge_cost(row: int, column: int) -> float:
        if column >= right_count:
            return max_weight  # dummy: weight 0
        return max_weight - adjacency[row][column]

    def columns_of(row: int):
        yield from adjacency[row].keys()
        yield right_count + row  # the row's private dummy

    for source_row in range(left_count):
        # Dijkstra from source_row over reduced costs.
        dist_final: dict[int, float] = {}
        parent_col: dict[int, int | None] = {}
        # Heap entries carry (distance, column, via); -1 encodes "reached
        # directly from the source row" so tuple comparison never touches a
        # None (columns are ints, ties fall through to the via field).
        heap: list[tuple[float, int, int]] = []
        for column in columns_of(source_row):
            reduced = (
                edge_cost(source_row, column)
                - potential_row[source_row]
                - potential_col[column]
            )
            heapq.heappush(heap, (reduced, column, -1))
        free_column = -1
        free_distance = math.inf
        while heap:
            distance, column, via_raw = heapq.heappop(heap)
            via = None if via_raw == -1 else via_raw
            if column in dist_final:
                continue
            dist_final[column] = distance
            parent_col[column] = via
            if match_col[column] == -1:
                free_column = column
                free_distance = distance
                break
            row = match_col[column]
            for next_column in columns_of(row):
                if next_column in dist_final:
                    continue
                reduced = (
                    edge_cost(row, next_column)
                    - potential_row[row]
                    - potential_col[next_column]
                )
                heapq.heappush(heap, (distance + reduced, next_column, column))
        if free_column == -1:  # pragma: no cover - dummy guarantees a path
            raise GraphError("no augmenting path found; dummy column missing?")

        # Potential update keeps all reduced costs non-negative and matched
        # edges tight.
        potential_row[source_row] += free_distance
        for column, distance in dist_final.items():
            if column == free_column:
                continue
            slack = free_distance - distance
            potential_col[column] -= slack
            row = match_col[column]
            if row != -1:
                potential_row[row] += slack

        # Augment along the alternating path.
        column = free_column
        while True:
            previous = parent_col[column]
            if previous is None:
                match_col[column] = source_row
                match_row[source_row] = column
                break
            row = match_col[previous]
            match_col[column] = row
            match_row[row] = column
            column = previous

    result = MatchingResult()
    for row, column in enumerate(match_row):
        if column < 0 or column >= right_count:
            continue  # unmatched or parked on its dummy
        weight = adjacency[row][column]
        if weight <= 0.0:
            continue
        result.pairs[graph.left_key_of(row)] = graph.right_key_of(column)
        result.total_weight += weight
    return result
