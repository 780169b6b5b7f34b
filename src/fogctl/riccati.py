"""Backward gain recursions and exact minimum-cost formulas.

One backward recursion produces the time-varying gain schedule. Each stage
computes the feedback gain V_k, the no-control value L_k and the control
benefit Lambda_k from K_{k+1}; the value K_k subtracts the availability
correction p * Lambda_k only on the arrival grid, the stages k = 0 mod M at
which a control can arrive. The perfect-match setting (controller responds
within the stage) is the grid with M = 1; the delayed setting (round-trip
delay M = M_F + M_B) adds the collateral weights P. Both are parameterized
by the ON-persistence p of a symmetric availability chain (q = 1 - p).

The min-cost functions evaluate the exact expected optimal cost as a
decomposition: an initial-state quadratic, a disturbance trace sum, a
latency-collateral trace sum (delayed only), and an estimation penalty
(partial observation only).

Exactness notes:
- All closed forms assume the symmetric chain. Asymmetric chains are handled
  by the sandwich machinery in the policy/oracle modules.
- The delayed formulas additionally assume the first service gate is at least
  one transition away from the initial chain state (forward delay M_F >= 1),
  or an initial state drawn from the stationary distribution; otherwise the
  first epoch's gate probability is not p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    CostBreakdown,
    DelayProfile,
    LinearSystemModel,
    ModelValidationError,
    _freeze,
    arrival_grid,
    bind_delay,
    state_vector,
    symmetrize,
    tau0_pair,
)

REGIMES = ("full-perfect", "partial-perfect", "full-delayed", "partial-delayed")


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
            partial-delayed.
        p_used: the symmetric-chain ON-persistence the recursion used.
        delay: the delay profile (bound to the horizon) for delayed regimes.
    """

    K: tuple
    L: tuple
    Lambda: tuple
    V: tuple
    P: Optional[tuple]
    regime: str
    p_used: float
    delay: Optional[DelayProfile] = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ModelValidationError([f"unknown regime tag {self.regime!r}"])
        delayed = self.regime.endswith("-delayed")
        if delayed and (self.delay is None or self.delay.M < 1):
            raise ModelValidationError([f"regime {self.regime} requires a delay profile with M >= 1"])
        if not delayed and self.delay is not None and self.delay.M >= 1:
            raise ModelValidationError([f"regime {self.regime} carries a nonzero delay profile"])
        if delayed and self.P is None:
            raise ModelValidationError(["delayed schedule missing P matrices"])

    @property
    def N(self) -> int:
        return len(self.K) - 1

    def with_regime(self, regime: str) -> "GainSchedule":
        """Copy retagged for another observation mode (same match type)."""
        if regime.endswith("-delayed") != self.regime.endswith("-delayed"):
            raise ModelValidationError(
                [f"cannot retag {self.regime} schedule as {regime}: match type differs"]
            )
        return GainSchedule(
            K=self.K, L=self.L, Lambda=self.Lambda, V=self.V, P=self.P,
            regime=regime, p_used=self.p_used, delay=self.delay,
        )

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


def _backward(model: LinearSystemModel, p: float, M: int):
    """(K, L, Lambda, V): K_k = L_k - p * Lambda_k on the arrival grid k = 0 mod M.

    Off the grid K_k is the same object as L_k, so the equality is exact.
    """
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
            K[k] = _freeze(symmetrize(L_k - p * Lam_k)) if k % M == 0 else L[k]
    return tuple(K), tuple(L), tuple(Lam), tuple(V)


def backward_recursion_perfect(model: LinearSystemModel, p: float) -> GainSchedule:
    """Gain schedule for full observation with a per-stage control opportunity.

    For k = N-1 down to 0:
        V_k = (R_k + B_k^T K_{k+1} B_k)^{-1} B_k^T K_{k+1} A_k
        L_k = Q_k + A_k^T K_{k+1} A_k
        Lambda_k = A_k^T K_{k+1} B_k V_k
        K_k = L_k - p * Lambda_k
    with K_N equal to the terminal weight. Every matrix is symmetrized after
    each step. This is the recursion with an arrival at every stage (the
    perfect-match `arrival_grid`, step 1).

    Args:
        model: validated system model.
        p: ON-persistence of the symmetric availability chain, in [0, 1].

    Returns:
        GainSchedule tagged full-perfect (P absent).

    Raises:
        ModelValidationError: p outside [0, 1], or a stage whose value
            matrix overflows (named, first going backward).
    """
    K, L, Lam, V = _backward(model, p, arrival_grid(None, model.N)[0])
    return GainSchedule(
        K=K, L=L, Lambda=Lam, V=V, P=None,
        regime="full-perfect", p_used=float(p), delay=None,
    )


def backward_recursion_delayed(
    model: LinearSystemModel, p: float, delay: DelayProfile
) -> GainSchedule:
    """Gain schedule when controls only arrive every M = M_F + M_B stages.

    V_k and Lambda_k are computed at every stage, but K absorbs the
    -p*Lambda correction only at stages k with k = 0 mod M (the arrival
    grid); off-grid, K_k is the same object as L_k so the equality is exact.

    The collateral weights P run k = 0..cM with P_{cM} = Lambda_{cM} and,
    going backward, P_k = Lambda_k on-grid and P_k = A_k^T P_{k+1} A_k
    off-grid.

    Args:
        model: validated system model.
        p: symmetric-chain ON-persistence.
        delay: delay profile with M >= 1; bound to the model horizon here.

    Returns:
        GainSchedule tagged full-delayed.

    Raises:
        ModelValidationError: when N < M ("horizon shorter than round-trip
            delay"), M = 0, or a stage's value matrix overflows.
    """
    if delay.M < 1:
        raise ModelValidationError(["delayed recursion requires M >= 1; use the perfect-match recursion for M = 0"])
    delay = bind_delay(delay, model.N)
    M = delay.M
    K, L, Lam, V = _backward(model, p, M)
    cM = delay.c * M
    P = [None] * (cM + 1)
    P[cM] = Lam[cM]
    for k in range(cM - 1, -1, -1):
        if k % M == 0:
            P[k] = Lam[k]
        else:
            A = model.A[k]
            P[k] = _freeze(symmetrize(A.T @ P[k + 1] @ A))
    return GainSchedule(
        K=K, L=L, Lambda=Lam, V=V, P=tuple(P),
        regime="full-delayed", p_used=float(p), delay=delay,
    )


def _require_regime(schedule: GainSchedule, expected: str):
    if schedule.regime != expected:
        raise ModelValidationError(
            [f"regime mismatch: schedule is {schedule.regime}, expected {expected}"]
        )


def _quad(x: np.ndarray, X: np.ndarray) -> float:
    return float(x @ X @ x)


def _disturbance_sum(schedule: GainSchedule, model: LinearSystemModel) -> float:
    return float(sum(np.trace(schedule.K[k + 1] @ model.W[k]) for k in range(model.N)))


def min_cost_full_perfect(
    schedule: GainSchedule, model: LinearSystemModel, x0: np.ndarray, tau0
) -> CostBreakdown:
    """Exact minimum expected cost, full observation, no delay.

    total = x0^T (L_0 - Lambda_0 * 1{tau0=1}) x0 + sum_k tr(K_{k+1} W_k).

    Args:
        schedule: full-perfect schedule (its p_used is the chain parameter).
        model: the model the schedule was built from.
        x0: known initial state.
        tau0: initial endpoint state, 0 or 1, or a (P[0], P[1]) distribution.

    Returns:
        CostBreakdown with zero collateral and estimation components.
    """
    _require_regime(schedule, "full-perfect")
    x0 = state_vector(x0, model.state_dim)
    pi1 = tau0_pair(tau0)[1]
    initial = _quad(x0, schedule.L[0]) - pi1 * _quad(x0, schedule.Lambda[0])
    return CostBreakdown.assemble(initial, _disturbance_sum(schedule, model))


def min_cost_full_delayed(
    schedule: GainSchedule, model: LinearSystemModel, x0: np.ndarray
) -> CostBreakdown:
    """Exact minimum expected cost, full observation, delay M >= 1.

    total = x0^T L_0 x0 + sum_{k<N} tr(K_{k+1} W_k)
          + p * sum_{k<cM} tr(P_{k+1} W_k).

    Independent of the initial endpoint state (requires M_F >= 1 or a
    stationary initial chain state; see module docstring).
    """
    _require_regime(schedule, "full-delayed")
    x0 = state_vector(x0, model.state_dim)
    initial = _quad(x0, schedule.L[0])
    disturbance = _disturbance_sum(schedule, model)
    cM = len(schedule.P) - 1
    collateral = schedule.p_used * float(
        sum(np.trace(schedule.P[k + 1] @ model.W[k]) for k in range(cM))
    )
    return CostBreakdown.assemble(initial, disturbance, collateral_trace_sum=collateral)


def _check_penalty(penalty, expected_stages: int, what: str):
    if len(penalty.per_stage) != expected_stages:
        raise ModelValidationError(
            [
                f"penalty horizon mismatch: {len(penalty.per_stage)} per-stage terms, "
                f"expected {expected_stages} for {what}"
            ]
        )


def min_cost_partial_perfect(
    schedule: GainSchedule, model: LinearSystemModel, x0: np.ndarray, tau0, penalty
) -> CostBreakdown:
    """Exact minimum expected cost, noisy observation, no delay.

    Adds the estimation penalty total to the full-observation formula. The
    penalty must carry one per-stage term for each stage 0..N-1 (the stage-0
    term is zero because the initial state is known exactly).
    """
    _require_regime(schedule, "partial-perfect")
    base = min_cost_full_perfect(schedule.with_regime("full-perfect"), model, x0, tau0)
    _check_penalty(penalty, model.N, "per-stage estimation terms")
    return CostBreakdown.assemble(
        base.initial_state_term,
        base.disturbance_trace_sum,
        estimation_penalty=float(penalty.total),
    )


def min_cost_partial_delayed(
    schedule: GainSchedule, model: LinearSystemModel, x0: np.ndarray, penalty
) -> CostBreakdown:
    """Exact minimum expected cost, noisy observation, delay M >= 1.

    Adds the delayed estimation penalty (one term per interior service epoch,
    k = 1..c-1) to the full-observation delayed formula.
    """
    _require_regime(schedule, "partial-delayed")
    base = min_cost_full_delayed(schedule.with_regime("full-delayed"), model, x0)
    c = schedule.delay.bound_to(model.N).c
    _check_penalty(penalty, max(c - 1, 0), "interior service epochs")
    return CostBreakdown.assemble(
        base.initial_state_term,
        base.disturbance_trace_sum,
        collateral_trace_sum=base.collateral_trace_sum,
        estimation_penalty=float(penalty.total),
    )
