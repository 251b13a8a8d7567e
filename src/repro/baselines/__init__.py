"""Baselines the paper evaluates against, plus extension baselines.

* :class:`TOTA` — traditional online task assignment [9]: greedy matching
  on a single platform, no cooperation (COM with ``W_out = {}``).
* :func:`solve_offline` — OFF: the offline optimum of COM as a maximum-
  weight bipartite matching with full knowledge of arrivals and realized
  reservation prices (paper §II-B, Fig. 4).
* :class:`GreedyRT` — the randomized-threshold greedy of Tong et al. [9]
  (extension baseline; the paper cites its competitive ratio).
* :class:`Ranking` — Karp et al.'s RANKING [17] adapted to the platform
  model (extension baseline).

Importing this package registers every baseline in the algorithm registry.
"""

from repro.baselines.tota import TOTA
from repro.baselines.greedy_rt import GreedyRT
from repro.baselines.ranking import Ranking
from repro.baselines.batch import BatchMatching
from repro.baselines.geocrowd import GeoCrowdSolution, solve_geocrowd
from repro.baselines.offline import (
    OfflineSolution,
    solve_offline,
    solve_offline_reentry,
)

from repro.core.registry import register_algorithm

register_algorithm("tota", TOTA)
register_algorithm("greedy-rt", GreedyRT)
register_algorithm("ranking", Ranking)
register_algorithm("batch", BatchMatching)

__all__ = [
    "TOTA",
    "GreedyRT",
    "Ranking",
    "BatchMatching",
    "GeoCrowdSolution",
    "solve_geocrowd",
    "OfflineSolution",
    "solve_offline",
    "solve_offline_reentry",
]
