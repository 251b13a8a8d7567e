"""Cross Online Matching (COM) in spatial crowdsourcing.

A from-scratch reproduction of

    Cheng, Li, Zhou, Yuan, Wang, Chen.
    "Real-Time Cross Online Matching in Spatial Crowdsourcing." ICDE 2020.

COM lets a spatial-crowdsourcing platform *borrow* unoccupied crowd workers
from cooperating platforms: an incoming request is served by an inner
worker when possible, otherwise offered to outer workers at an
incentive-compatible payment.  The package ships the full system:

* the problem model and online simulation engine (:mod:`repro.core`);
* the paper's two algorithms — :class:`~repro.core.DemCOM` (greedy,
  minimum outer payment via Monte-Carlo bisection) and
  :class:`~repro.core.RamCOM` (randomized value threshold + maximum-
  expected-revenue pricing);
* the baselines — TOTA (single-platform greedy) and OFF (offline optimum
  via max-weight bipartite matching), plus Greedy-RT / RANKING / Random
  extension baselines (:mod:`repro.baselines`);
* all substrates: spatial indexes (:mod:`repro.geo`), matching/flow
  algorithms (:mod:`repro.graph`), worker behaviour (:mod:`repro.behavior`),
  and workload generation including simulated DiDi/Yueche city traces
  (:mod:`repro.workloads`);
* an experiment harness regenerating every table and figure of the
  paper's evaluation (:mod:`repro.experiments`) and a CLI (``com-repro``).

Quickstart
----------
>>> from repro import SyntheticWorkload, SyntheticWorkloadConfig
>>> from repro import Simulator, SimulatorConfig, make_algorithm
>>> scenario = SyntheticWorkload(
...     SyntheticWorkloadConfig(request_count=200, worker_count=60, city_km=6.0)
... ).build(seed=1)
>>> result = Simulator(SimulatorConfig(seed=0)).run(
...     scenario, lambda: make_algorithm("ramcom")
... )
>>> result.total_completed > 0
True
"""

from repro.core import (
    DemCOM,
    RamCOM,
    Request,
    Worker,
    Scenario,
    SimulationResult,
    Simulator,
    SimulatorConfig,
    available_algorithms,
    make_algorithm,
    register_algorithm,
    validate_matching,
)
from repro.baselines import (
    TOTA,
    BatchMatching,
    GreedyRT,
    Ranking,
    solve_geocrowd,
    solve_offline,
    solve_offline_reentry,
)
from repro.workloads import (
    SyntheticWorkload,
    SyntheticWorkloadConfig,
    build_city_pair,
)
from repro.experiments import (
    ExperimentConfig,
    run_algorithm,
    run_city_table,
    run_comparison,
    run_figure5_axis,
)

__version__ = "1.0.0"

__all__ = [
    "Request",
    "Worker",
    "Scenario",
    "Simulator",
    "SimulatorConfig",
    "SimulationResult",
    "DemCOM",
    "RamCOM",
    "TOTA",
    "BatchMatching",
    "GreedyRT",
    "Ranking",
    "solve_geocrowd",
    "solve_offline",
    "solve_offline_reentry",
    "validate_matching",
    "make_algorithm",
    "register_algorithm",
    "available_algorithms",
    "SyntheticWorkload",
    "SyntheticWorkloadConfig",
    "build_city_pair",
    "ExperimentConfig",
    "run_algorithm",
    "run_comparison",
    "run_city_table",
    "run_figure5_axis",
    "__version__",
]
