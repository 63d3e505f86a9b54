"""Cooperative edge-computing task offloading: solvers, baselines, harness."""

from .errors import (ConfigError, CoopMecError, DomainError,
                     InfeasibleAssignment, InstanceTooLarge, UnknownAlgorithm)
from .model import (Assignment, CostBreakdown, DeviceProfile, FeasibilityBounds,
                    Scenario, TaskSpec, Violation, assignment_cost,
                    feasibility_bounds, make_assignment, offload_power,
                    ue_total_power, validate_constraints)
from .scenario import GenConfig, generate, read_config, read_scenario, write_scenario
from .harness import (ALGORITHMS, ExperimentSpec, MetricRow, RunRecord,
                      convergence_trace, run_algorithm, run_experiment)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "Assignment", "ConfigError", "CoopMecError", "CostBreakdown",
    "DeviceProfile", "DomainError", "ExperimentSpec", "FeasibilityBounds",
    "GenConfig", "InfeasibleAssignment", "InstanceTooLarge",
    "MetricRow", "RunRecord", "Scenario", "TaskSpec", "UnknownAlgorithm",
    "Violation", "assignment_cost", "convergence_trace", "feasibility_bounds",
    "generate", "make_assignment", "offload_power", "read_config",
    "read_scenario", "run_algorithm", "run_experiment", "ue_total_power",
    "validate_constraints", "write_scenario", "__version__",
]
