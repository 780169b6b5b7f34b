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
    delay_from_config,
    make_system,
    reliability_from_config,
    stationary_on_probability,
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
from .estimation import (
    EstimationPenalty,
    expected_estimation_penalty,
    propagate_mean,
    transition_product,
    window_noise,
)
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
    psd_sqrt,
    run,
    sample_tau,
    tracking_metrics,
)
from .oracle import (
    TauPath,
    bound_check,
    brute_force_min_cost,
    enumerate_tau_paths,
    evaluate_policy_cost,
)
from .drone import (
    DroneScenario,
    WaypointPlan,
    build_system,
    error_consistency_check,
    initial_state,
    make_waypoints,
    plan_from_config,
    scenario_from_config,
    tracking_study,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CostBreakdown",
    "DelayProfile",
    "LinearSystemModel",
    "ModelValidationError",
    "ReliabilityChain",
    "delay_from_config",
    "make_system",
    "reliability_from_config",
    "stationary_on_probability",
    "symmetric_chain",
    "symmetrize",
    "system_from_config",
    "validate_model",
    "REGIMES",
    "GainSchedule",
    "backward_recursion_delayed",
    "backward_recursion_perfect",
    "min_cost_full_delayed",
    "min_cost_full_perfect",
    "min_cost_partial_delayed",
    "min_cost_partial_perfect",
    "EstimationPenalty",
    "expected_estimation_penalty",
    "propagate_mean",
    "transition_product",
    "window_noise",
    "ControllerRegime",
    "min_cost",
    "sandwich_policy",
    "solve",
    "SimulationBatch",
    "SimulationConfig",
    "noise_streams",
    "psd_sqrt",
    "run",
    "sample_tau",
    "tracking_metrics",
    "TauPath",
    "bound_check",
    "brute_force_min_cost",
    "enumerate_tau_paths",
    "evaluate_policy_cost",
    "DroneScenario",
    "WaypointPlan",
    "build_system",
    "error_consistency_check",
    "initial_state",
    "make_waypoints",
    "plan_from_config",
    "scenario_from_config",
    "tracking_study",
    "__version__",
]
