"""Workload generation: everything the evaluation section consumes.

* :mod:`value_models` — request-value distributions ("real" fare-like and
  "normal", Table IV's two settings);
* :mod:`spatial` — city geometry: uniform and hotspot patterns, including
  the *complementary* hotspot skew of the paper's Fig. 2 (platform A's
  workers concentrate where platform B's requests do);
* :mod:`arrival` — arrival-time processes (uniform and diurnal two-peak);
* :mod:`synthetic` — the Table-IV synthetic sweeps (|R|, |W|, rad, value
  distribution);
* :mod:`gaia` — simulated DiDi/Yueche city traces standing in for the
  paper's proprietary datasets (Table III), matched on the statistics that
  drive matching behaviour;
* :mod:`datasets` — the named dataset registry (RDC10 ... RYX11) and the
  paired scenarios used by Tables V-VII.
"""

from repro.workloads.value_models import (
    NormalValueModel,
    RealFareModel,
    ValueModel,
    make_value_model,
)
from repro.workloads.spatial import (
    HotspotPattern,
    SpatialPattern,
    UniformPattern,
    complementary_hotspots,
)
from repro.workloads.arrival import ArrivalProcess, DiurnalArrivals, UniformArrivals
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig
from repro.workloads.gaia import CityTraceConfig, CityTraceGenerator
from repro.workloads.trace_io import RawTrace, load_trace_csv, scenario_from_traces
from repro.workloads.serialization import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.workloads.datasets import (
    CITY_PAIRS,
    DATASETS,
    build_city_pair,
    dataset_statistics,
)

__all__ = [
    "ValueModel",
    "RealFareModel",
    "NormalValueModel",
    "make_value_model",
    "SpatialPattern",
    "UniformPattern",
    "HotspotPattern",
    "complementary_hotspots",
    "ArrivalProcess",
    "UniformArrivals",
    "DiurnalArrivals",
    "SyntheticWorkload",
    "SyntheticWorkloadConfig",
    "CityTraceConfig",
    "CityTraceGenerator",
    "RawTrace",
    "load_trace_csv",
    "scenario_from_traces",
    "save_scenario",
    "load_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
    "DATASETS",
    "CITY_PAIRS",
    "build_city_pair",
    "dataset_statistics",
]
