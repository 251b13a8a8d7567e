"""Graph substrate: bipartite graphs and the matching/flow algorithms the
offline baseline and competitive-ratio experiments rely on.

The paper reduces offline COM to maximum-weight bipartite matching (§II-B,
Fig. 4, citing Ahuja et al. [11]).  We implement:

* :class:`BipartiteGraph` — a sparse weighted bipartite graph;
* :func:`max_weight_matching` — successive-shortest-paths (min-cost-flow)
  maximum-weight matching on sparse graphs, optimal and fast enough for the
  table-scale experiments;
* :class:`HopcroftKarp` — maximum-cardinality matching (used by the
  RANKING baseline's offline reference and tests);
* :class:`Dinic` — maximum flow (the Kazemi-GeoCrowd [8] reduction
  substrate and an extension baseline).
"""

from repro.graph.bipartite import BipartiteGraph, MatchingResult
from repro.graph.hungarian import max_weight_matching
from repro.graph.hopcroft_karp import HopcroftKarp
from repro.graph.maxflow import Dinic

__all__ = [
    "BipartiteGraph",
    "MatchingResult",
    "max_weight_matching",
    "HopcroftKarp",
    "Dinic",
]
