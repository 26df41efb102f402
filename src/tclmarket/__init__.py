"""Market-coordinated TCL population simulator with feeder-constrained clearing."""

from .population import (
    Population,
    TclParams,
    TclState,
    aggregate_power,
    hysteresis_update,
    thermal_step,
)
from .bidding import Bid, make_bid, temperature_for_bidding
from .market import ClearingResult, DemandCurve, build_demand_curve, clear
from .engine import (
    PopulationSpec,
    PriceSignal,
    Scenario,
    ScenarioError,
    Trace,
    generate_population,
    price_signal_value,
    run,
)
from .metrics import (
    MetricsReport,
    compute_metrics,
    demand_oscillation,
    sync_index,
    temperature_dispersion,
)

__version__ = "0.1.0"

__all__ = [
    "TclParams",
    "TclState",
    "Population",
    "hysteresis_update",
    "thermal_step",
    "aggregate_power",
    "Bid",
    "temperature_for_bidding",
    "make_bid",
    "DemandCurve",
    "ClearingResult",
    "build_demand_curve",
    "clear",
    "PriceSignal",
    "PopulationSpec",
    "Scenario",
    "ScenarioError",
    "Trace",
    "price_signal_value",
    "generate_population",
    "run",
    "sync_index",
    "temperature_dispersion",
    "demand_oscillation",
    "MetricsReport",
    "compute_metrics",
    "__version__",
]
