"""Market-coordinated TCL population simulator with feeder-constrained clearing."""

from .population import Population, aggregate_power
from .market import ClearingResult, DemandCurve, build_demand_curve, clear
from .scenario import PopulationSpec, PriceSignal, Scenario, ScenarioError
from .engine import Trace, generate_population, run
from .metrics import (
    MetricsReport,
    compute_metrics,
    sync_index,
    temperature_dispersion,
)

__version__ = "0.1.0"

__all__ = [
    "Population",
    "aggregate_power",
    "DemandCurve",
    "ClearingResult",
    "build_demand_curve",
    "clear",
    "PriceSignal",
    "PopulationSpec",
    "Scenario",
    "ScenarioError",
    "Trace",
    "generate_population",
    "run",
    "sync_index",
    "temperature_dispersion",
    "MetricsReport",
    "compute_metrics",
    "__version__",
]
