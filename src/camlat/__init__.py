"""Monte-Carlo simulator of cellular V2X awareness-message latency.

Compares end-to-end signaling latency on a two-lane freeway between a
conventional distant-cloud architecture and processing at an edge host
collocated with the serving base station.
"""

from .config import SimulationPlan, default_plan, load_config
from .engine import AggregateStats, aggregate, replication_moments, run_plan, run_replication
from .errors import CamlatError, ConfigurationError, ScenarioError, UnreachableLinkError
from .experiments import SweepResult, SweepSpec, emit_csv, emit_plot, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "CamlatError",
    "ConfigurationError",
    "ScenarioError",
    "SimulationPlan",
    "SweepResult",
    "SweepSpec",
    "UnreachableLinkError",
    "__version__",
    "aggregate",
    "default_plan",
    "emit_csv",
    "emit_plot",
    "load_config",
    "replication_moments",
    "run_plan",
    "run_replication",
    "run_sweep",
]
