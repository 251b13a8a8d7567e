"""Graph substrate: bipartite graphs and the matching/flow algorithms the
offline baseline and competitive-ratio experiments rely on.

The paper reduces offline COM to maximum-weight bipartite matching (§II-B,
Fig. 4, citing Ahuja et al. [11]).  We implement:

* :class:`BipartiteGraph` — a sparse weighted bipartite graph;
* :class:`~repro.graph.mincostflow.CapacitatedAssignment` —
  successive-shortest-paths maximum-weight assignment of requests to
  workers with capacities (1 by default, a plain matching); it solves OFF,
  OFF with worker reentry and every batch of the Batch baseline;
* :class:`HopcroftKarp` — maximum-cardinality matching (used by the
  RANKING baseline's offline reference and tests);
* :class:`Dinic` — maximum flow (the Kazemi-GeoCrowd [8] reduction
  substrate and an extension baseline).
"""

from repro.graph.bipartite import BipartiteGraph, MatchingResult
from repro.graph.hopcroft_karp import HopcroftKarp
from repro.graph.maxflow import Dinic

__all__ = [
    "BipartiteGraph",
    "MatchingResult",
    "HopcroftKarp",
    "Dinic",
]
