"""Deterministic simulator and library for scheduled gossip SGD on peer graphs.

Nodes run rounds of local SGD whose per-round step budgets follow a
growing schedule, broadcast each round's update (its gradient sum times
its step size) to their neighbors, and gate their progress on a bounded
round lag.  A discrete-event engine with stochastic compute and network
latencies drives the nodes, records a full trace, and the consistency
tools verify the staleness contracts that recorded runs must satisfy.
"""

from .baselines import ThresholdNode, default_threshold_schedules
from .consistency import (
    Report,
    TimelineMap,
    Violation,
    iteration_bound_from_round_lag,
    verify_iteration_delay,
    verify_round_delay,
)
from .harness import (
    ExperimentConfig,
    Metrics,
    NodeMetrics,
    export_csv,
    run_experiment,
    sweep,
)
from .node import Assignment, ComputeNode, Message, setup
from .objectives import (
    Dataset,
    Logistic,
    MeanQuadratic,
    gaussian_cloud,
    load_idx,
    synthetic_blobs,
    write_idx,
)
from .schedules import (
    Constant,
    Diminishing,
    Linear,
    LogDamped,
    round_plan,
    sample_size,
    step_size,
)
from .simnet import DelayModel, SimResult, Simulation, Trace
from .topology import Topology, complete, from_edges, line, neighbors, ring

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ComputeNode",
    "Constant",
    "Dataset",
    "DelayModel",
    "Diminishing",
    "ExperimentConfig",
    "Linear",
    "LogDamped",
    "Logistic",
    "MeanQuadratic",
    "Message",
    "Metrics",
    "NodeMetrics",
    "Report",
    "SimResult",
    "Simulation",
    "ThresholdNode",
    "TimelineMap",
    "Topology",
    "Trace",
    "Violation",
    "complete",
    "default_threshold_schedules",
    "export_csv",
    "from_edges",
    "gaussian_cloud",
    "iteration_bound_from_round_lag",
    "line",
    "load_idx",
    "neighbors",
    "ring",
    "round_plan",
    "run_experiment",
    "sample_size",
    "setup",
    "step_size",
    "sweep",
    "synthetic_blobs",
    "verify_iteration_delay",
    "verify_round_delay",
    "write_idx",
]
