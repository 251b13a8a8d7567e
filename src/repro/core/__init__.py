"""The paper's primary contribution: the Cross Online Matching model and the
DemCOM / RamCOM algorithms.

Layering inside this package (lower layers never import higher ones):

1. :mod:`entities`, :mod:`events` — the problem's vocabulary
   (Definitions 2.1-2.4) and arrival streams.
2. :mod:`waiting_list`, :mod:`exchange`, :mod:`platform_state` — per-platform
   worker pools and the cross-platform cooperation exchange.
3. :mod:`acceptance`, :mod:`payment`, :mod:`pricing` — the incentive
   machinery (Definition 3.1 / Algorithm 2 / Definition 4.1).
4. :mod:`matching`, :mod:`constraints` — matchings, revenue accounting
   (Definition 2.5) and the four COM constraints (Definition 2.6).
5. :mod:`base`, :mod:`demcom`, :mod:`ramcom` — the online algorithm protocol
   and the paper's two algorithms (Algorithms 1 and 3).
6. :mod:`simulator` — the arrival-driven engine that runs any registered
   algorithm over any workload and produces a :class:`SimulationResult`.
"""

from repro.core.entities import Request, Worker
from repro.core.events import ArrivalEvent, EventKind, EventStream
from repro.core.waiting_list import WaitingList
from repro.core.exchange import CooperationExchange
from repro.core.acceptance import AcceptanceEstimator, AcceptanceSnapshot
from repro.core.payment import MinimumOuterPaymentEstimator, PaymentEstimate
from repro.core.pricing import MaximumExpectedRevenuePricer, PricingQuote
from repro.core.matching import AssignmentKind, MatchRecord, MatchingLedger
from repro.core.constraints import validate_matching
from repro.core.base import Decision, DecisionKind, OnlineAlgorithm, PlatformContext
from repro.core.demcom import DemCOM
from repro.core.ramcom import RamCOM
from repro.core.simulator import (
    Scenario,
    SimulationResult,
    SimulationSession,
    Simulator,
    SimulatorConfig,
)
from repro.core.service_time import ServiceTimeModel, TravelAwareServiceTime
from repro.core.registry import available_algorithms, make_algorithm, register_algorithm

__all__ = [
    "Request",
    "Worker",
    "ArrivalEvent",
    "EventKind",
    "EventStream",
    "WaitingList",
    "CooperationExchange",
    "AcceptanceEstimator",
    "AcceptanceSnapshot",
    "MinimumOuterPaymentEstimator",
    "PaymentEstimate",
    "MaximumExpectedRevenuePricer",
    "PricingQuote",
    "AssignmentKind",
    "MatchRecord",
    "MatchingLedger",
    "validate_matching",
    "Decision",
    "DecisionKind",
    "OnlineAlgorithm",
    "PlatformContext",
    "DemCOM",
    "RamCOM",
    "Scenario",
    "Simulator",
    "SimulatorConfig",
    "SimulationResult",
    "SimulationSession",
    "ServiceTimeModel",
    "TravelAwareServiceTime",
    "available_algorithms",
    "make_algorithm",
    "register_algorithm",
]
