"""Backward gain recursion and the exact minimum-cost formula.

One backward recursion produces the time-varying gain schedule of every
regime. Each stage computes the feedback gain V_k, the no-control value L_k
and the control benefit Lambda_k from K_{k+1}; the value K_k subtracts the
availability correction p * Lambda_k only on the arrival grid
(`model.arrival_grid`), the stages k = 0 mod step at which a control can
arrive. Perfect match (the controller responds within the stage) is the
grid with step 1; a delay M = M_F + M_B has step M and adds the collateral
weights P. Both are parameterized by the ON-persistence p of a symmetric
availability chain (q = 1 - p).

One closed form evaluates the exact expected optimal cost of any schedule
as a decomposition: an initial-state quadratic, a disturbance trace sum, a
latency-collateral trace sum (zero without delay), and an estimation
penalty (partial observation only). The initial endpoint state tau0 enters
through the first service gate, the availability at stage M_F: with
M_F = 0 (perfect match included) that gate is tau0 itself, ON with
probability P[tau0 = 1]; with M_F >= 1 it is one transition or more away,
and on a symmetric chain every such state is ON with probability p whatever
tau0 was.

Exactness notes:
- The closed form assumes the symmetric chain. Asymmetric chains are handled
  by the sandwich machinery in the policy/oracle modules.
- It is exact for every delay split and every tau0, M_F = 0 included: the
  recursion weights the first arrival's control benefit by p, and the
  closed form moves that weight to the first gate's probability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import (
    CostBreakdown,
    DelayProfile,
    LinearSystemModel,
    ModelValidationError,
    _freeze,
    arrival_grid,
    state_vector,
    symmetrize,
    tau0_pair,
)

REGIMES = ("full-perfect", "partial-perfect", "full-delayed", "partial-delayed")


def _tag(observation: str, delay: Optional[DelayProfile]) -> str:
    """The regime tag of an observation mode ("full" or "partial") under a delay."""
    return f"{observation}-{'delayed' if delay is not None and delay.M >= 1 else 'perfect'}"


@dataclass(frozen=True)
class GainSchedule:
    """Gain and weight matrices produced by a backward recursion.

    Fields:
        K: value matrices, k = 0..N (K[N] equals the terminal weight).
        L: no-control value matrices, k = 0..N-1.
        Lambda: control-benefit matrices, k = 0..N-1.
        V: feedback gains, k = 0..N-1.
        P: collateral weight matrices, k = 0..cM (delayed regimes only).
        regime: one of full-perfect, partial-perfect, full-delayed,
            partial-delayed: `_tag` of its observation mode and delay.
        p_used: the symmetric-chain ON-persistence the recursion used.
        delay: the delay profile as given, for delayed regimes (M >= 1).
        plant: the (A, B, Q, R) stacks of the model the recursion read; the
            closed forms price the gains on that plant only (`_fit`).
    """

    K: tuple
    L: tuple
    Lambda: tuple
    V: tuple
    P: Optional[tuple]
    regime: str
    p_used: float
    delay: Optional[DelayProfile] = None
    plant: Optional[tuple] = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ModelValidationError([f"unknown regime tag {self.regime!r}"])
        observation = self.regime.partition("-")[0]
        if self.regime != _tag(observation, self.delay):
            raise ModelValidationError([f"cannot tag a {_tag(observation, self.delay)} "
                                        f"schedule as {self.regime}: match type differs"])
        if self.P is None and self.regime != _tag(observation, None):
            raise ModelValidationError(["delayed schedule missing P matrices"])

    @property
    def N(self) -> int:
        return len(self.K) - 1

    def with_regime(self, regime: str) -> "GainSchedule":
        """Copy retagged for another observation mode (same match type)."""
        return replace(self, regime=regime)

    def to_jsonable(self) -> dict:
        out = {
            "regime": self.regime,
            "p_used": self.p_used,
            "K": [X.tolist() for X in self.K],
            "L": [X.tolist() for X in self.L],
            "Lambda": [X.tolist() for X in self.Lambda],
            "V": [X.tolist() for X in self.V],
        }
        if self.P is not None:
            out["P"] = [X.tolist() for X in self.P]
        if self.delay is not None:
            out["delay"] = {"M_F": self.delay.M_F, "M_B": self.delay.M_B}
        return out


def _fit(schedule: GainSchedule, tag: str, delay: Optional[DelayProfile],
         N: Optional[int] = None, plant: Optional[LinearSystemModel] = None):
    """schedule, if it was built for regime `tag`, `delay`'s split, horizon N
    and the A, B, Q, R of model `plant` (None: any), compared by identity, then value.

    The one comparison of a regime with its gains: ModelValidationError
    "configuration inconsistencies: ..." names every mismatch. Only the
    closed forms pass a plant: running gains on another plant is a valid question.
    """
    split, built = ((0, 0) if d is None else (d.M_F, d.M_B) for d in (delay, schedule.delay))
    observation, _, match = tag.partition("-")
    misfits = []
    if schedule.regime != tag:
        misfits.append(f"regime mismatch: gains tagged {schedule.regime}, but a {tag} regime "
                       f"requires a {match} schedule for {observation} observation")
    if split != built:
        misfits.append("regime delay split M_F={}, M_B={}, delay M={} but policy gains built "
                       "for M_F={}, M_B={}, M={}".format(*split, sum(split), *built, sum(built)))
    if N is not None and N != schedule.N:
        misfits.append(f"gains horizon {schedule.N} != model horizon {N}")
    elif plant is not None:
        differ = [name for name, X in zip("ABQR", schedule.plant or (None,) * 4)
                  if X is not getattr(plant, name) and not np.array_equal(X, getattr(plant, name))]
        if differ:
            misfits.append(f"gains built on another plant (stacks {', '.join(differ)} differ)")
    if misfits:
        raise ModelValidationError(["configuration inconsistencies: " + "; ".join(misfits)])
    return schedule


def _stage_gains(model: LinearSystemModel, k: int, K_next: np.ndarray):
    """One backward step: (V_k, L_k, Lambda_k) from K_{k+1}.

    Raises:
        ModelValidationError: when the step overflows, so that the value
            matrix K_k (built from L_k and Lambda_k) would not be finite.
    """
    A, B = model.A[k], model.B[k]
    KB = K_next @ B
    S = symmetrize(model.R[k] + B.T @ KB)
    try:
        np.linalg.cholesky(S)  # definiteness test
    except np.linalg.LinAlgError as e:  # unreachable when R is PD; defensive
        raise ModelValidationError(
            [f"gain solve failed at k={k}: control-weighted value matrix not positive definite"]
        ) from e
    V = np.linalg.solve(S, KB.T @ A)
    L = symmetrize(model.Q[k] + A.T @ K_next @ A)
    Lam = symmetrize(A.T @ KB @ V)
    if not (np.isfinite(V).all() and np.isfinite(L).all() and np.isfinite(Lam).all()):
        raise ModelValidationError(
            [f"non-finite value matrix at stage {k}: the plant is unstable "
             "or badly scaled for this horizon"]
        )
    return V, L, Lam


def backward_recursion(
    model: LinearSystemModel, p: float, delay: Optional[DelayProfile] = None
) -> GainSchedule:
    """Gain schedule for full observation on the arrival grid of delay.

    For k = N-1 down to 0:
        V_k = (R_k + B_k^T K_{k+1} B_k)^{-1} B_k^T K_{k+1} A_k
        L_k = Q_k + A_k^T K_{k+1} A_k
        Lambda_k = A_k^T K_{k+1} B_k V_k
        K_k = L_k - p * Lambda_k   on the arrival grid (k = 0 mod step)
        K_k = L_k                  off it (the same object)
    with K_N equal to the terminal weight and every matrix symmetrized after
    each step. Perfect match (delay None or M = 0) has step 1. A delay has
    step M and adds the collateral weights P, k = 0..cM: P_{cM} =
    Lambda_{cM} and, going backward, P_k = Lambda_k on the grid and
    P_k = A_k^T P_{k+1} A_k off it.

    Args:
        model: validated system model.
        p: ON-persistence of the symmetric availability chain, in [0, 1].
        delay: delay profile; None or M = 0 for perfect match.

    Returns:
        GainSchedule tagged full-perfect (P absent) or full-delayed.

    Raises:
        ModelValidationError: p outside [0, 1], a horizon shorter than the
            round-trip delay, or a stage whose value matrix overflows (named,
            first going backward).
    """
    step, _, M, epochs = arrival_grid(delay, model.N)
    if not (0.0 <= p <= 1.0):
        raise ModelValidationError([f"p must be in [0, 1], got {p}"])
    N = model.N
    K = [None] * (N + 1)
    L = [None] * N
    Lam = [None] * N
    V = [None] * N
    K[N] = _freeze(symmetrize(model.Q[N]))
    # an overflowing stage is reported by _stage_gains' finiteness check alone
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N - 1, -1, -1):
            V_k, L_k, Lam_k = _stage_gains(model, k, K[k + 1])
            V[k] = _freeze(V_k)
            L[k] = _freeze(L_k)
            Lam[k] = _freeze(Lam_k)
            K[k] = _freeze(symmetrize(L_k - p * Lam_k)) if k % step == 0 else L[k]
    P = None
    if M:
        cM = epochs * M
        P = [None] * (cM + 1)
        P[cM] = Lam[cM]
        for k in range(cM - 1, -1, -1):
            if k % M == 0:
                P[k] = Lam[k]
            else:
                P[k] = _freeze(symmetrize(model.A[k].T @ P[k + 1] @ model.A[k]))
        P = tuple(P)
    return GainSchedule(
        K=tuple(K), L=tuple(L), Lambda=tuple(Lam), V=tuple(V), P=P,
        regime=_tag("full", delay), p_used=float(p), delay=delay if M else None,
        plant=(model.A, model.B, model.Q, model.R),
    )


def backward_recursion_perfect(model: LinearSystemModel, p: float) -> GainSchedule:
    """`backward_recursion` with an arrival at every stage (tagged full-perfect)."""
    return backward_recursion(model, p)


def backward_recursion_delayed(
    model: LinearSystemModel, p: float, delay: DelayProfile
) -> GainSchedule:
    """`backward_recursion` on the arrival grid of a delay with M >= 1 (tagged full-delayed).

    Raises:
        ModelValidationError: M = 0, or any error of `backward_recursion`.
    """
    if delay.M < 1:
        raise ModelValidationError(["delayed recursion requires M >= 1; use the perfect-match recursion for M = 0"])
    return backward_recursion(model, p, delay)


def _quad(x: np.ndarray, X: np.ndarray) -> float:
    return float(x @ X @ x)


def closed_form(
    schedule: GainSchedule, model: LinearSystemModel, x0, tau0, penalty=None
) -> CostBreakdown:
    """Exact minimum expected cost of any regime's schedule.

    total = x0^T L_0 x0 + (w - g) xhat^T Lambda_M xhat
          + sum_{k<N} tr(K_{k+1} W_k) + p * sum_{k<cM} tr(P_{k+1} W_k)
          + penalty total

    where xhat = A_{M-1} ... A_0 x0 is the first arrival's predicted state
    (x0 itself for perfect match), w is the weight the recursion put on its
    control benefit inside L_0 (p when M >= 1, 0 for perfect match), and g
    is the probability that the first service gate is ON (P[tau0 = 1] when
    M_F = 0, p otherwise). The correction is zero when no control arrives
    within the horizon (c = 0). The collateral sum is empty for perfect
    match.

    Args:
        schedule: a schedule from `backward_recursion`, tagged for its
            observation mode (its p_used is the chain parameter).
        model: the model the schedule was built from (W may differ).
        x0: known initial state.
        tau0: initial endpoint state, 0 or 1, or a (P[0], P[1]) distribution.
        penalty: the estimation penalty of a partial-observation schedule
            (one per-stage term per epoch after the first, plus stage 0 for
            perfect match); None under full observation.

    Raises:
        ModelValidationError: a model of another horizon or another A, B,
            Q or R ("configuration inconsistencies"), a malformed x0 or tau0,
            a penalty missing under partial observation or given under full
            observation, or one whose length does not fit the horizon
            ("penalty horizon mismatch").
    """
    _fit(schedule, schedule.regime, schedule.delay, model.N, model)
    _, M_F, M, epochs = arrival_grid(schedule.delay, schedule.N)
    x0 = state_vector(x0, model.state_dim)
    p, pi1 = schedule.p_used, tau0_pair(tau0)[1]
    if (schedule.regime == _tag("partial", schedule.delay)) != (penalty is not None):
        raise ModelValidationError(
            [f"a {schedule.regime} schedule takes "
             f"{'an' if penalty is None else 'no'} estimation penalty"]
        )
    terms = max(epochs - 1, 0) + (M == 0)  # perfect match also lists stage 0
    if penalty is not None and len(penalty.per_stage) != terms:
        raise ModelValidationError(
            [f"penalty horizon mismatch: {len(penalty.per_stage)} per-stage terms, "
             f"expected {terms} for {schedule.regime}"]
        )
    initial = _quad(x0, schedule.L[0])
    correction = (p if M else 0.0) - (pi1 if M_F == 0 else p)
    if epochs and correction != 0.0:  # with no epoch no control arrives at all
        xhat = x0
        for A in model.A[:M]:
            xhat = A @ xhat
        initial += correction * _quad(xhat, schedule.Lambda[M])
    disturbance = float(sum(np.trace(schedule.K[k + 1] @ model.W[k]) for k in range(schedule.N)))
    collateral = p * float(
        sum(np.trace(schedule.P[k + 1] @ model.W[k]) for k in range(epochs * M))
    )
    return CostBreakdown.assemble(
        initial, disturbance, collateral_trace_sum=collateral,
        estimation_penalty=0.0 if penalty is None else float(penalty.total),
    )


def min_cost_full_perfect(
    schedule: GainSchedule, model: LinearSystemModel, x0: np.ndarray, tau0
) -> CostBreakdown:
    """`closed_form` of a full-perfect schedule:
    x0^T (L_0 - P[tau0 = 1] Lambda_0) x0 + sum_k tr(K_{k+1} W_k)."""
    return closed_form(_fit(schedule, "full-perfect", schedule.delay), model, x0, tau0)


def min_cost_full_delayed(
    schedule: GainSchedule, model: LinearSystemModel, x0: np.ndarray
) -> CostBreakdown:
    """`closed_form` of a full-delayed schedule with the chain started stationary:
    x0^T L_0 x0 + sum_{k<N} tr(K_{k+1} W_k) + p * sum_{k<cM} tr(P_{k+1} W_k)."""
    p = _fit(schedule, "full-delayed", schedule.delay).p_used
    return closed_form(schedule, model, x0, (1.0 - p, p))


def min_cost_partial_perfect(
    schedule: GainSchedule, model: LinearSystemModel, x0: np.ndarray, tau0, penalty
) -> CostBreakdown:
    """`closed_form` of a partial-perfect schedule: the full-perfect cost plus
    the penalty total (one per-stage term for each stage 0..N-1)."""
    return closed_form(_fit(schedule, "partial-perfect", schedule.delay), model, x0, tau0, penalty)


def min_cost_partial_delayed(
    schedule: GainSchedule, model: LinearSystemModel, x0: np.ndarray, penalty
) -> CostBreakdown:
    """`closed_form` of a partial-delayed schedule with the chain started
    stationary: the full-delayed cost plus the penalty total (one term per
    interior service epoch, k = 1..c-1)."""
    p = _fit(schedule, "partial-delayed", schedule.delay).p_used
    return closed_form(schedule, model, x0, (1.0 - p, p), penalty)
