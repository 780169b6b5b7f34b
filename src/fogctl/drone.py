"""Planar trajectory-tracking scenario: waypoints, error-coordinate model.

A vehicle moving in the plane tracks a waypoint sequence x̄_0..x̄_N by
velocity adjustments. Subtracting the reference turns tracking into
regulation of the error state (e, v) with a known per-stage drift
x̄_k − x̄_{k+1} entering the position error. The builder here emits that
error-coordinate system; the consistency check below re-simulates the raw
kinematics independently to verify the transformation rather than trust it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    ConfigError,
    LinearSystemModel,
    ModelValidationError,
    ReliabilityChain,
    DelayProfile,
    _floats,
    _whole,
    arrival_grid,
    config_block,
    count,
    make_system,
    number,
    pair,
    symmetric_chain,
)
from .policy import solve
from .simulator import (
    SimulationConfig,
    noise_streams,
    psd_sqrt,
    run,
    sample_tau,
    sweep,
)

CONTROLLER_MODES = ("paper-faithful", "affine-compensated")


def _is_point(value) -> bool:
    """Whether value is two finite numbers."""
    try:
        pair(value)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class WaypointPlan:
    """Three-phase path descriptor: approach a target, circle it, return.

    Stage counts are hops (whole numbers read by ``count``, so 2.0 reads as
    2), so a phase with `stages` hops contributes that many waypoints; zero
    skips the phase. The circle starts at the point of the circle nearest
    the start (shortest approach) and runs one full
    counterclockwise revolution; the return leg interpolates back to the
    start. speed_bound (meters/second) caps consecutive waypoint spacing
    when the path is generated.
    """

    approach_target: tuple
    approach_stages: int
    circle_radius: float
    circle_stages: int
    return_stages: int
    start: tuple = (0.0, 0.0)
    circle_center: Optional[tuple] = None
    speed_bound: float = math.inf

    def __post_init__(self):
        violations = []
        for label in ("approach_stages", "circle_stages", "return_stages"):
            try:
                object.__setattr__(self, label, _whole(label, getattr(self, label), 0))
            except ModelValidationError as err:
                violations += err.violations
        if not violations and self.approach_stages + self.circle_stages + self.return_stages < 1:
            violations.append("plan must contain at least one stage")
        if not (0 <= self.circle_radius < math.inf):
            violations.append(
                f"circle_radius must be finite and nonnegative, got {self.circle_radius}"
            )
        elif self.circle_radius == 0 and self.circle_stages != 0:
            violations.append("zero radius with nonzero circle stages")
        if not (self.speed_bound > 0):
            violations.append(f"speed_bound must be positive, got {self.speed_bound}")
        for label in ("start", "approach_target", "circle_center"):
            point = getattr(self, label)
            if point is not None and not _is_point(point):
                violations.append(f"{label} must be two finite numbers, got {point!r}")
        if violations:
            raise ModelValidationError(violations)

    @property
    def center(self) -> np.ndarray:
        c = self.approach_target if self.circle_center is None else self.circle_center
        return np.asarray(c, dtype=float)

    def entry_point(self) -> np.ndarray:
        """Point of the circle nearest the start (angle 0 if start is the center)."""
        center = self.center
        d = np.asarray(self.start, dtype=float) - center
        norm = float(np.hypot(d[0], d[1]))
        if norm == 0.0:
            return center + np.array([self.circle_radius, 0.0])
        return center + self.circle_radius * d / norm


def make_waypoints(plan: WaypointPlan, delta_t: float) -> np.ndarray:
    """Generate the x̄ sequence for a plan: (N+1, 2) array of positions.

    Piecewise: linear interpolation start -> circle entry, uniform
    counterclockwise angular sampling around the circle, linear return to
    the start.

    Raises:
        ModelValidationError: consecutive spacing above speed_bound*delta_t.
    """
    if not (0 < delta_t < math.inf):
        raise ModelValidationError([f"delta_t must be finite and positive, got {delta_t}"])
    start = np.asarray(plan.start, dtype=float)
    center = plan.center
    entry = plan.entry_point()
    points = [start]
    for j in range(1, plan.approach_stages + 1):
        frac = j / plan.approach_stages
        points.append(start + frac * (entry - start))
    if plan.circle_stages > 0:
        phi0 = math.atan2(entry[1] - center[1], entry[0] - center[0])
        for j in range(1, plan.circle_stages + 1):
            phi = phi0 + 2.0 * math.pi * j / plan.circle_stages
            points.append(center + plan.circle_radius * np.array([math.cos(phi), math.sin(phi)]))
    exit_point = points[-1].copy()
    for j in range(1, plan.return_stages + 1):
        frac = j / plan.return_stages
        points.append(exit_point + frac * (start - exit_point))
    waypoints = np.array(points)
    if math.isfinite(plan.speed_bound):
        spacing = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
        limit = plan.speed_bound * delta_t
        if spacing.size and float(spacing.max()) > limit + 1e-12:
            raise ModelValidationError(
                [
                    f"waypoint spacing {float(spacing.max()):.6g} m exceeds the "
                    f"commanded speed bound ({plan.speed_bound} m/s over {delta_t} s)"
                ]
            )
    return waypoints


@dataclass(frozen=True)
class DroneScenario:
    """Error-coordinate tracking scenario: references, weights, disturbance.

    waypoints holds x̄_0..x̄_N (so N = len - 1 stages). alpha weights both
    control energy and velocity magnitude in the stage cost. The disturbance
    covariance couples position and velocity noise through rho per
    coordinate; rho defaults to sigma_x*sigma_v/2 (the demo parameterization)
    when omitted.
    """

    waypoints: np.ndarray
    delta_t: float = 1.0
    alpha: float = 0.1
    sigma_x: float = 0.1
    sigma_v: float = 0.1
    rho: Optional[float] = None
    start_position: Optional[tuple] = None
    start_velocity: tuple = (0.0, 0.0)

    def __post_init__(self):
        pts = _floats("waypoints", self.waypoints)
        violations = []
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            violations.append(
                f"waypoints must be an (N+1, 2) array with N >= 1, got shape {pts.shape}"
            )
        elif not np.isfinite(pts).all():
            violations.append("waypoints must be finite")
        if not (0 < self.delta_t < math.inf):
            violations.append(f"delta_t must be finite and positive, got {self.delta_t}")
        for label in ("alpha", "sigma_x", "sigma_v"):
            value = getattr(self, label)
            if not (0 <= value < math.inf):
                violations.append(f"{label} must be finite and nonnegative, got {value}")
        if self.rho is not None and not math.isfinite(self.rho):
            violations.append(f"rho must be finite, got {self.rho}")
        elif abs(self.rho_value) > self.sigma_x * self.sigma_v:
            violations.append(
                f"|rho| = {abs(self.rho_value)} exceeds sigma_x*sigma_v = "
                f"{self.sigma_x * self.sigma_v} (disturbance covariance not PSD)"
            )
        for label in ("start_position", "start_velocity"):
            point = getattr(self, label)
            if point is not None and not _is_point(point):
                violations.append(f"{label} must be two finite numbers, got {point!r}")
        if violations:
            raise ModelValidationError(violations)
        pts.setflags(write=False)
        object.__setattr__(self, "waypoints", pts)

    @property
    def rho_value(self) -> float:
        return self.sigma_x * self.sigma_v / 2.0 if self.rho is None else float(self.rho)

    @property
    def N(self) -> int:
        return int(np.asarray(self.waypoints).shape[0]) - 1


def build_system(scenario: DroneScenario) -> LinearSystemModel:
    """Error-coordinate model: state (e, v) in R^4, control in R^2.

    A shifts position error by delta_t times velocity; control adjusts
    velocity within the stage (so it also moves position by delta_t times
    itself). Q weights position error at 1 and velocity at alpha; R = alpha*I;
    the terminal weight equals the stage weight. The drift at stage k is
    x̄_k − x̄_{k+1} stacked on zeros.
    """
    dt = scenario.delta_t
    N = scenario.N
    I2 = np.eye(2)
    Z2 = np.zeros((2, 2))
    A = np.block([[I2, dt * I2], [Z2, I2]])
    B = np.vstack([dt * I2, I2])
    Q = np.diag([1.0, 1.0, scenario.alpha, scenario.alpha])
    R = scenario.alpha * I2
    sx2 = scenario.sigma_x ** 2
    sv2 = scenario.sigma_v ** 2
    rho = scenario.rho_value
    W = np.block([[sx2 * I2, rho * I2], [rho * I2, sv2 * I2]])
    pts = np.asarray(scenario.waypoints, dtype=float)
    drift = np.zeros((N, 4))
    drift[:, :2] = pts[:-1] - pts[1:]
    return make_system(A=A, B=B, Q=Q, R=R, W=W, drift=drift, N=N)


def initial_state(scenario: DroneScenario) -> np.ndarray:
    """(e_0, v_0): initial position error against x̄_0 and initial velocity."""
    pts = np.asarray(scenario.waypoints, dtype=float)
    pos = pts[0] if scenario.start_position is None else np.asarray(scenario.start_position, dtype=float)
    vel = np.asarray(scenario.start_velocity, dtype=float)
    return np.concatenate([pos - pts[0], vel])


def _compensates_drift(mode: str) -> bool:
    """Whether a controller mode feeds the known drift through its predictions.

    paper-faithful: gains designed for the zero-mean-disturbance problem act
    on the raw error state; the drift rides along as realized disturbance.
    affine-compensated: the controller additionally feeds the known drift
    through its predictions (never worse, offered for comparison). With
    constant waypoints the two coincide.
    """
    if mode not in CONTROLLER_MODES:
        raise ModelValidationError(
            [f"unknown controller mode {mode!r}; choose from {CONTROLLER_MODES}"]
        )
    return mode == "affine-compensated"


def tracking_study(
    scenario: DroneScenario,
    p_values,
    delays,
    replications: int,
    master_seed: int = 0,
    mode: str = "paper-faithful",
) -> list:
    """Sweep availability and delay settings; one metrics row per pair.

    All points run on one pass of the same disturbance and chain draws
    (common random numbers, see `simulator.sweep`), which makes
    cross-setting comparisons far tighter than independent sampling.
    """
    compensate = _compensates_drift(mode)
    model = build_system(scenario)
    points = []
    for delay in delays:
        for p in p_values:
            chain = symmetric_chain(p)
            points.append((chain, delay, solve(model, p, delay, compensate_drift=compensate)))
    cfg = SimulationConfig(replications=replications, master_seed=master_seed)
    results = sweep(model, points, cfg, x0=initial_state(scenario), alpha=scenario.alpha)
    return [
        {
            "p": float(chain.p),
            "M": int(delay.M) if delay is not None else 0,
            "mode": mode,
            "mean_cost": res["mean_cost"],
            "std_error": res["std_error"],
            **res["tracking"],
        }
        for (chain, delay, _), res in zip(points, results)
    ]


# ---------------------------------------------------------------------------
# Raw-kinematics cross-check
# ---------------------------------------------------------------------------

def _simulate_raw_kinematics(scenario, chain, delay, regime, replications, master_seed):
    """Independent position/velocity simulation of the same closed loop.

    delay is None or M = 0 for no delay, as for `simulator.run`.

    Integrates the raw kinematics (position += dt*(velocity + control),
    velocity += control) under the same noise draws as the error-form
    engine, computing the error state only inside the controller. No state
    arrays are shared with the error-form run; agreement is earned.
    """
    model = build_system(scenario)  # gains/shape source for the controller
    N = scenario.N
    dt = scenario.delta_t
    pts = np.asarray(scenario.waypoints, dtype=float)
    R = replications
    w_eps, _, chain_u = noise_streams(master_seed, R, N, 4, 4)
    tau = sample_tau(chain, chain_u)
    Lw = psd_sqrt(np.block([
        [scenario.sigma_x ** 2 * np.eye(2), scenario.rho_value * np.eye(2)],
        [scenario.rho_value * np.eye(2), scenario.sigma_v ** 2 * np.eye(2)],
    ]))
    pos = np.broadcast_to(
        pts[0] if scenario.start_position is None else np.asarray(scenario.start_position, float),
        (R, 2),
    ).copy()
    vel = np.broadcast_to(np.asarray(scenario.start_velocity, float), (R, 2)).copy()
    gains = regime.gains
    drift_known = regime.compensate_drift
    errors = np.empty((R, N + 1, 4))
    step, M_F, M, epochs = arrival_grid(delay, N)
    services = {j * step + M_F: j for j in range(epochs)}
    saved = {}     # epoch -> error state at its start, until served
    arrivals = {}  # arrival stage -> control; other stages apply zero
    zero = np.zeros((R, 2))
    for k in range(N):
        e = np.hstack([pos - pts[k], vel])
        if k % step == 0 and k // step < epochs:
            saved[k // step] = e
        if k in services:
            j = services[k]
            t0 = j * step
            # predicted error at the arrival stage t0 + M; the identity under
            # perfect match, where the control acts on the state it was served
            mean = saved.pop(j)
            for t in range(t0, t0 + M):
                mean = mean @ model.A[t].T + arrivals.get(t, zero) @ model.B[t].T
                if drift_known:
                    mean = mean + model.drift_at(t)
            u_new = -(mean @ gains.V[t0 + M].T)
            u_new[tau[:, k] != 1] = 0.0
            arrivals[t0 + M] = u_new
        u = arrivals.get(k, zero)
        errors[:, k] = e
        w = w_eps[:, k] @ Lw.T
        pos = pos + dt * (vel + u) + w[:, :2]
        vel = vel + u + w[:, 2:]
    errors[:, N] = np.hstack([pos - pts[N], vel])
    return errors


def error_consistency_check(
    scenario: DroneScenario,
    chain: ReliabilityChain,
    delay: Optional[DelayProfile] = None,
    replications: int = 3,
    master_seed: int = 0,
    mode: str = "paper-faithful",
    tolerance: float = 1e-9,
) -> dict:
    """Verify the error-coordinate algebra against the raw kinematics.

    Runs the error-form engine and the independent raw-kinematics loop under
    shared noise draws and compares the error trajectories elementwise.
    Full observation only.
    """
    compensate = _compensates_drift(mode)
    model = build_system(scenario)
    x0 = initial_state(scenario)
    regime = solve(model, chain.p, delay, compensate_drift=compensate)
    cfg = SimulationConfig(
        replications=replications, master_seed=master_seed, record_traces=True
    )
    res = run(model, chain, delay, regime, cfg, x0=x0)
    raw_errors = _simulate_raw_kinematics(scenario, chain, delay, regime, replications, master_seed)
    diff = float(np.max(np.abs(res["traces"].x - raw_errors)))
    return {
        "max_abs_difference": diff,
        "tolerance": float(tolerance),
        "agree": bool(diff <= tolerance),
    }


# ---------------------------------------------------------------------------
# Config blocks
# ---------------------------------------------------------------------------

def plan_from_config(block) -> WaypointPlan:
    """Build a WaypointPlan from its nested config block (``scenario.plan``)."""
    where = "scenario.plan"
    plan = config_block(where, block, {
        "approach": None, "circle": None, "return": None, "start": pair, "speed_bound": number,
    })
    approach = config_block(
        f"{where}.approach", plan.get("approach", {}), {"target": pair, "stages": count}
    )
    circle = config_block(
        f"{where}.circle", plan.get("circle", {}),
        {"center": pair, "radius": number, "stages": count},
    )
    ret = config_block(f"{where}.return", plan.get("return", {}), {"stages": count})
    target = approach.get("target", circle.get("center"))
    if target is None:
        raise ConfigError(f"{where} needs approach.target or circle.center")
    return WaypointPlan(
        approach_target=target,
        approach_stages=approach.get("stages", 0),
        circle_radius=circle.get("radius", 0.0),
        circle_stages=circle.get("stages", 0),
        return_stages=ret.get("stages", 0),
        start=plan.get("start", (0.0, 0.0)),
        circle_center=circle.get("center"),
        speed_bound=plan.get("speed_bound", math.inf),
    )


def scenario_from_config(block) -> DroneScenario:
    """Build a DroneScenario from its config block.

    The block gives either explicit `waypoints` ([[x, y], ...]) or a `plan`
    sub-block to generate them.
    """
    entries = config_block("scenario", block, {
        "delta_t": number, "alpha": number, "sigma_x": number, "sigma_v": number,
        "rho": number, "start_position": pair, "start_velocity": pair,
        "waypoints": None, "plan": None,
    })
    if ("waypoints" in entries) == ("plan" in entries):
        raise ConfigError("scenario needs exactly one of 'waypoints' or 'plan'")
    try:
        if "plan" in entries:
            plan = plan_from_config(entries.pop("plan"))
            entries["waypoints"] = make_waypoints(plan, entries.get("delta_t", 1.0))
        return DroneScenario(**entries)
    except ModelValidationError as e:
        raise ConfigError(f"scenario: {e}") from e
