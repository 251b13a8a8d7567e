"""Worker behaviour substrate: the ground truth behind Definition 3.1.

The paper *estimates* a worker's willingness to serve a cooperative request
at payment ``v'`` from the worker's completed-request history (Eq. 4), but
never states the generative process being estimated.  Something must decide,
in the simulator, whether a real offer is accepted — and the offline oracle
(OFF) must be able to see that decision in advance.

We model each worker with a latent *reservation-price distribution*: on every
offer the worker draws a fresh reservation ``rho`` and accepts iff
``offer >= rho``.  This makes Eq. 4's empirical-CDF estimate a consistent
estimator of the true acceptance probability, reproduces the paper's
"draw x in [0,1], accept iff x <= pr" mechanics exactly (with the empirical
CDF as the reservation distribution), and gives OFF a well-defined oracle
(the realized draws).

Public pieces:

* distribution classes implementing :class:`ReservationDistribution`;
* :class:`WorkerBehavior` — per-worker accept/reject decisions, memoising
  realized draws per request so online algorithms and OFF see the *same*
  randomness (required for a fair competitive-ratio comparison).
"""

from repro.behavior.distributions import (
    EmpiricalDistribution,
    ReservationDistribution,
    UniformDistribution,
)
from repro.behavior.worker_model import BehaviorOracle, WorkerBehavior

__all__ = [
    "ReservationDistribution",
    "EmpiricalDistribution",
    "UniformDistribution",
    "WorkerBehavior",
    "BehaviorOracle",
]
