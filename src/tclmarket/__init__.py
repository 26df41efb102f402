"""Market-coordinated TCL population simulator with feeder-constrained clearing."""

from .population import Population
from .scenario import PopulationSpec, PriceSignal, Scenario, ScenarioError
from .engine import Trace, generate_population, run
from .metrics import MetricsReport, compute_metrics

__version__ = "0.1.0"

__all__ = [
    "Population",
    "PriceSignal",
    "PopulationSpec",
    "Scenario",
    "ScenarioError",
    "Trace",
    "generate_population",
    "run",
    "MetricsReport",
    "compute_metrics",
    "__version__",
]
