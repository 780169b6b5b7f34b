"""fogctl: optimal linear control over unreliable, latency-bound fog endpoints.

Computes finite-horizon gain schedules and exact minimum expected costs for
plants whose controller runs on a fog endpoint with Markov ON/OFF
availability and a fixed round-trip transport delay, and validates those
closed forms against an independent dynamic-programming oracle and
closed-loop Monte Carlo simulation. Includes a planar trajectory-tracking
study and a CLI front end.
"""

from .model import (
    ConfigError,
    CostBreakdown,
    DelayProfile,
    LinearSystemModel,
    ModelValidationError,
    ReliabilityChain,
    make_system,
    symmetric_chain,
    symmetrize,
    system_from_config,
    validate_model,
)
from .riccati import (
    REGIMES,
    GainSchedule,
    backward_recursion_delayed,
    backward_recursion_perfect,
    min_cost_full_delayed,
    min_cost_full_perfect,
    min_cost_partial_delayed,
    min_cost_partial_perfect,
)
from .estimation import EstimationPenalty, expected_estimation_penalty
from .policy import (
    ControllerRegime,
    min_cost,
    sandwich_policy,
    solve,
)
from .simulator import (
    SimulationBatch,
    SimulationConfig,
    noise_streams,
    run,
    sample_tau,
    tracking_metrics,
)
from .oracle import (
    bound_check,
    brute_force_min_cost,
    evaluate_policy_cost,
)
from .drone import (
    DroneScenario,
    WaypointPlan,
    build_system,
    error_consistency_check,
    initial_state,
    make_waypoints,
    scenario_from_config,
    tracking_study,
)

__version__ = "0.1.0"

__all__ = [
    # what a user calls: data types, solve/min_cost, the simulator, the
    # oracles and the drone study
    "ConfigError",
    "CostBreakdown",
    "DelayProfile",
    "LinearSystemModel",
    "ModelValidationError",
    "ReliabilityChain",
    "make_system",
    "symmetric_chain",
    "validate_model",
    "REGIMES",
    "GainSchedule",
    "EstimationPenalty",
    "expected_estimation_penalty",
    "ControllerRegime",
    "min_cost",
    "sandwich_policy",
    "solve",
    "SimulationBatch",
    "SimulationConfig",
    "run",
    "tracking_metrics",
    "bound_check",
    "brute_force_min_cost",
    "evaluate_policy_cost",
    "DroneScenario",
    "WaypointPlan",
    "build_system",
    "error_consistency_check",
    "make_waypoints",
    "tracking_study",
    "__version__",
    # the acceptance gate (tests/test_acceptance.py, tests/reference.py) calls these
    "backward_recursion_delayed",
    "backward_recursion_perfect",
    "min_cost_full_delayed",
    "min_cost_full_perfect",
    "min_cost_partial_delayed",
    "min_cost_partial_perfect",
    "symmetrize",
    # the benchmark (perfbench/) calls these through the package namespace
    "noise_streams",
    "sample_tau",
    "initial_state",
    "system_from_config",
    "scenario_from_config",
]
