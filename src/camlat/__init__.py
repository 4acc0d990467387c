"""Monte-Carlo simulator of cellular V2X awareness-message latency.

Compares end-to-end signaling latency on a two-lane freeway between a
conventional distant-cloud architecture and processing at an edge host
collocated with the serving base station.

camlat does no linear algebra. Unless numpy is already loaded or ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set (the ways to keep OpenBLAS's threads),
it imports numpy with ``OPENBLAS_NUM_THREADS=1`` for that import alone: no worker spins.
"""

import os
import sys
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and os.environ.keys().isdisjoint(_BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # OpenBLAS reads it once, as it loads
    __import__("numpy")
    del os.environ["OPENBLAS_NUM_THREADS"]

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
