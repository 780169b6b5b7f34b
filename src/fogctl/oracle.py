"""Independent verification oracles.

Everything here recomputes optimal costs and policy values from first
principles: dynamic programming over availability states for the matched
loop, dynamic programming over update-cycle gates for the delayed loop, and
exact closed-loop moment recursions for fixed policies. None of it reuses
the production recursions, so agreement between the two is evidence, not
tautology.

The exact oracles cover full observation, no drift, and short horizons
(the guard is N <= 16); anything outside that envelope raises instead of
silently approximating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimation import penalty_config_for
from .model import (
    DelayProfile,
    LinearSystemModel,
    ModelValidationError,
    ReliabilityChain,
    bind_delay,
    state_vector,
    symmetrize,
)
from .policy import ControllerRegime, check_fits, min_cost, sandwich_policy, solve
from .riccati import REGIMES
from .simulator import SimulationConfig, run

ORACLE_MAX_N = 16


@dataclass(frozen=True)
class TauPath:
    """One availability path tau_0..tau_{N-1} and its probability."""

    states: tuple
    probability: float


def enumerate_tau_paths(N: int, chain: ReliabilityChain) -> list:
    """All positive-probability availability paths of length N."""
    if N > ORACLE_MAX_N:
        raise ModelValidationError(
            [f"path enumeration limited to N <= {ORACLE_MAX_N}, got N={N}"]
        )
    dist = chain.tau0_distribution()
    T = chain.transition_matrix()
    paths = []
    for bits in itertools.product((0, 1), repeat=N):
        prob = dist[bits[0]]
        for a, b in zip(bits, bits[1:]):
            prob *= T[a, b]
        if prob > 0.0:
            paths.append(TauPath(states=bits, probability=float(prob)))
    return paths


def _check_oracle_scope(model: LinearSystemModel, what: str) -> None:
    if model.N > ORACLE_MAX_N:
        raise ModelValidationError(
            [f"{what} limited to N <= {ORACLE_MAX_N}, got N={model.N}"]
        )
    if model.drift is not None:
        raise ModelValidationError([f"{what} does not support drift terms"])


def _tau0_dist(chain: ReliabilityChain, tau0) -> np.ndarray:
    if tau0 is None:
        return chain.tau0_distribution()
    if isinstance(tau0, tuple):
        return np.asarray(tau0, dtype=float)
    return np.array([1.0, 0.0]) if int(tau0) == 0 else np.array([0.0, 1.0])


# ---------------------------------------------------------------------------
# Exact minimum cost by dynamic programming
# ---------------------------------------------------------------------------

def _dp_perfect(model, chain, x0, tau0) -> float:
    """Value iteration over (stage, availability state) quadratics."""
    N = model.N
    T = chain.transition_matrix()
    G = {0: model.Q[N].copy(), 1: model.Q[N].copy()}
    g = {0: 0.0, 1: 0.0}
    for k in reversed(range(N)):
        A, B, Q, R, W = model.A[k], model.B[k], model.Q[k], model.R[k], model.W[k]
        newG, newg = {}, {}
        for t in (0, 1):
            Gbar = T[t, 0] * G[0] + T[t, 1] * G[1]
            gbar = T[t, 0] * g[0] + T[t, 1] * g[1]
            if t == 1:
                S = symmetrize(R + B.T @ Gbar @ B)
                BGA = B.T @ Gbar @ A
                np.linalg.cholesky(S)  # raises unless positive definite
                Gk = Q + A.T @ Gbar @ A - BGA.T @ np.linalg.solve(S, BGA)
            else:
                Gk = Q + A.T @ Gbar @ A
            newG[t] = symmetrize(Gk)
            newg[t] = float(np.trace(Gbar @ W)) + gbar
        G, g = newG, newg
    dist = _tau0_dist(chain, tau0)
    return float(
        dist[0] * (x0 @ G[0] @ x0 + g[0]) + dist[1] * (x0 @ G[1] @ x0 + g[1])
    )


def _epoch_quadratic(model, t0, t1, include_end):
    """Cost of stages t0..t1-1 as a quadratic over y = (x_{t0}, u_{t0}).

    Controls between grid stages are zero, so only u_{t0} enters. Returns
    (E, e, G_end, Xi): cost is y'Ey + e, and x_{t1} = G_end y + noise with
    covariance Xi. With include_end the stage-t1 state cost is folded in as
    well (terminal tail).
    """
    n, s = model.state_dim, model.control_dim
    E = np.zeros((n + s, n + s))
    E[:n, :n] = model.Q[t0]
    E[n:, n:] = model.R[t0]
    e = 0.0
    cur_map = np.hstack([model.A[t0], model.B[t0]])
    cur_cov = symmetrize(np.asarray(model.W[t0], dtype=float))
    for i in range(t0 + 1, t1 + 1):
        if i < t1 or include_end:
            E = E + cur_map.T @ model.Q[i] @ cur_map
            e += float(np.trace(model.Q[i] @ cur_cov))
        if i == t1:
            break
        cur_map = model.A[i] @ cur_map
        cur_cov = symmetrize(model.A[i] @ cur_cov @ model.A[i].T + model.W[i])
    return symmetrize(E), e, cur_map, cur_cov


def _dp_delayed(model, chain, delay, x0, tau0) -> float:
    """Value iteration over (update cycle, gate state) quadratics.

    The joint variable per cycle is y_j = (state at the cycle start, control
    applied at the cycle start). The gate of cycle j is the availability at
    its service stage; gates at consecutive service stages are Markov with
    the M-step transition matrix.
    """
    N, n, s = model.N, model.state_dim, model.control_dim
    M, M_F, c = delay.M, delay.M_F, delay.c
    T = chain.transition_matrix()
    Tm = np.linalg.matrix_power(T, M)
    E_tail, e_tail, _, _ = _epoch_quadratic(model, c * M, N, include_end=True)
    y0 = np.concatenate([np.asarray(x0, dtype=float), np.zeros(s)])
    if c == 0:
        return float(y0 @ E_tail @ y0 + e_tail)
    H = {0: E_tail, 1: E_tail}
    h = {0: e_tail, 1: e_tail}
    for j in reversed(range(c)):
        E_j, e_j, G_end, Xi = _epoch_quadratic(model, j * M, (j + 1) * M, include_end=False)
        newH, newh = {}, {}
        for gate in (0, 1):
            Hbar = Tm[gate, 0] * H[0] + Tm[gate, 1] * H[1]
            hbar = Tm[gate, 0] * h[0] + Tm[gate, 1] * h[1]
            Hxx = Hbar[:n, :n]
            Hxd = Hbar[:n, n:]
            Hdd = symmetrize(Hbar[n:, n:])
            if gate == 1:
                np.linalg.cholesky(Hdd)  # raises unless positive definite
                Hred = Hxx - Hxd @ np.linalg.solve(Hdd, Hxd.T)
            else:
                Hred = Hxx
            newH[gate] = symmetrize(E_j + G_end.T @ Hred @ G_end)
            newh[gate] = e_j + float(np.trace(Hxx @ Xi)) + hbar
        H, h = newH, newh
    g0 = _tau0_dist(chain, tau0) @ np.linalg.matrix_power(T, M_F)
    return float(
        g0[0] * (y0 @ H[0] @ y0 + h[0]) + g0[1] * (y0 @ H[1] @ y0 + h[1])
    )


def brute_force_min_cost(
    model: LinearSystemModel,
    chain: ReliabilityChain,
    delay: Optional[DelayProfile],
    x0: np.ndarray,
    tau0=None,
    observation: str = "full",
) -> float:
    """Exact minimum expected cost by dynamic programming.

    Works for any reliability chain (symmetric or not). tau0 overrides the
    chain's initial state when given (0, 1, or a distribution pair).

    Raises:
        ModelValidationError: horizon above the guard, drift present,
            partial observation requested, or horizon shorter than the
            round-trip delay.
    """
    _check_oracle_scope(model, "the exact oracle")
    if observation != "full":
        raise ModelValidationError(
            ["the exact oracle covers full observation only"]
        )
    x0 = state_vector(x0, model.state_dim)
    delay = bind_delay(delay, model.N)
    if delay is None:
        return _dp_perfect(model, chain, x0, tau0)
    return _dp_delayed(model, chain, delay, x0, tau0)


# ---------------------------------------------------------------------------
# Exact closed-loop policy evaluation
# ---------------------------------------------------------------------------

def _eval_perfect_moments(model, chain, policy, x0, tau0) -> float:
    """Availability-conditioned second-moment recursion (exact, O(N))."""
    N = model.N
    T = chain.transition_matrix()
    dist = _tau0_dist(chain, tau0)
    mass = {t: float(dist[t]) for t in (0, 1)}
    mom = {t: mass[t] * np.outer(x0, x0) for t in (0, 1)}
    total = 0.0
    for k in range(N):
        A, B, Qk, Rk, Wk = model.A[k], model.B[k], model.Q[k], model.R[k], model.W[k]
        V = policy.gains.V[k]
        total += float(np.trace(Qk @ (mom[0] + mom[1])))
        total += float(np.trace((V.T @ Rk @ V) @ mom[1]))
        Acl = {0: A, 1: A - B @ V}
        new_mass = {t: 0.0 for t in (0, 1)}
        new_mom = {t: np.zeros_like(mom[0]) for t in (0, 1)}
        for t in (0, 1):
            pushed = Acl[t] @ mom[t] @ Acl[t].T + mass[t] * Wk
            for t2 in (0, 1):
                new_mass[t2] += T[t, t2] * mass[t]
                new_mom[t2] = new_mom[t2] + T[t, t2] * pushed
        mass = new_mass
        mom = {t: symmetrize(new_mom[t]) for t in (0, 1)}
    total += float(np.trace(model.Q[N] @ (mom[0] + mom[1])))
    return total


def _eval_perfect_enumeration(model, chain, policy, x0, tau0) -> float:
    """Path-by-path conditional rollout; cross-checks the moment recursion."""
    N, n = model.N, model.state_dim
    override = ReliabilityChain(
        p=chain.p, q=chain.q,
        tau0=tuple(_tau0_dist(chain, tau0)) if tau0 is not None else chain.tau0,
    )
    total = 0.0
    for path in enumerate_tau_paths(N, override):
        mu = np.asarray(x0, dtype=float)
        Sig = np.zeros((n, n))
        cost = 0.0
        for k, t in enumerate(path.states):
            Qk = model.Q[k]
            cost += float(mu @ Qk @ mu + np.trace(Qk @ Sig))
            if t == 1:
                V = policy.gains.V[k]
                VRV = V.T @ model.R[k] @ V
                cost += float(mu @ VRV @ mu + np.trace(VRV @ Sig))
                Acl = model.A[k] - model.B[k] @ V
            else:
                Acl = model.A[k]
            mu = Acl @ mu
            Sig = symmetrize(Acl @ Sig @ Acl.T + model.W[k])
        QN = model.Q[N]
        cost += float(mu @ QN @ mu + np.trace(QN @ Sig))
        total += path.probability * cost
    return total


def _eval_delayed_moments(model, chain, delay, policy, x0, tau0) -> float:
    """Gate-conditioned joint second-moment recursion over update cycles."""
    N, n, s = model.N, model.state_dim, model.control_dim
    M, M_F, c = delay.M, delay.M_F, delay.c
    T = chain.transition_matrix()
    Tm = np.linalg.matrix_power(T, M)
    g0 = _tau0_dist(chain, tau0) @ np.linalg.matrix_power(T, M_F)
    y0 = np.concatenate([np.asarray(x0, dtype=float), np.zeros(s)])
    mass = {gate: float(g0[gate]) for gate in (0, 1)}
    mom = {gate: mass[gate] * np.outer(y0, y0) for gate in (0, 1)}
    total = 0.0
    for j in range(c):
        E_j, e_j, G_end, Xi = _epoch_quadratic(model, j * M, (j + 1) * M, include_end=False)
        total += float(np.trace(E_j @ (mom[0] + mom[1]))) + e_j
        V_next = policy.gains.V[(j + 1) * M]
        Ty = {
            0: np.vstack([G_end, np.zeros((s, n + s))]),
            1: np.vstack([G_end, -V_next @ G_end]),
        }
        noise = np.zeros((n + s, n + s))
        noise[:n, :n] = Xi
        new_mass = {gate: 0.0 for gate in (0, 1)}
        new_mom = {gate: np.zeros((n + s, n + s)) for gate in (0, 1)}
        for gate in (0, 1):
            pushed = Ty[gate] @ mom[gate] @ Ty[gate].T + mass[gate] * noise
            for g2 in (0, 1):
                new_mass[g2] += Tm[gate, g2] * mass[gate]
                new_mom[g2] = new_mom[g2] + Tm[gate, g2] * pushed
        mass = new_mass
        mom = {gate: symmetrize(new_mom[gate]) for gate in (0, 1)}
    E_tail, e_tail, _, _ = _epoch_quadratic(model, c * M, N, include_end=True)
    total += float(np.trace(E_tail @ (mom[0] + mom[1]))) + e_tail
    return total


def evaluate_policy_cost(
    model: LinearSystemModel,
    chain: ReliabilityChain,
    delay: Optional[DelayProfile],
    policy: ControllerRegime,
    x0: np.ndarray,
    tau0=None,
    method: str = "moments",
) -> float:
    """Exact expected cost of a fixed gated linear policy.

    The policy applies -V_k x at available stages (or the delay-grid
    equivalent through the horizon predictor); this routine computes its
    exact closed-loop expected cost for ANY reliability chain via
    conditional second-moment recursions. method="enumeration" reruns the
    matched-case computation path by path as a cross-check.

    Raises:
        ModelValidationError: partial observation, drift, horizon above the
            guard, or a delay that disagrees with the policy's gains.
    """
    _check_oracle_scope(model, "exact policy evaluation")
    if policy.observation != "full":
        raise ModelValidationError(["exact policy evaluation covers full observation only"])
    delay = check_fits(policy, model, delay)
    x0 = state_vector(x0, model.state_dim)
    if method not in ("moments", "enumeration"):
        raise ModelValidationError([f"unknown evaluation method {method!r}"])
    if delay is None:
        if method == "enumeration":
            return _eval_perfect_enumeration(model, chain, policy, x0, tau0)
        return _eval_perfect_moments(model, chain, policy, x0, tau0)
    if method == "enumeration":
        raise ModelValidationError(
            ["enumeration evaluation covers the zero-delay loop only"]
        )
    return _eval_delayed_moments(model, chain, delay, policy, x0, tau0)


# ---------------------------------------------------------------------------
# Bracketing check for asymmetric chains
# ---------------------------------------------------------------------------

def bound_check(
    model: LinearSystemModel,
    p: float,
    q: float,
    delay: Optional[DelayProfile],
    regime: str,
    x0: Optional[np.ndarray] = None,
    tau0=1,
    config: Optional[dict] = None,
) -> dict:
    """Check the bracketing of a sticky chain between two solvable twins.

    For p > 1 - q the optimal cost under the (p, q) chain is bracketed by
    the closed-form costs of the symmetric chains at rate p (below) and at
    rate 1 - q (above), and the rate-(1 - q) gains run on the true chain
    land inside the same bracket. Returns lower, upper, the value of that
    policy on the true chain, a holds flag, and the tolerance used.

    The policy value is exact (moment recursion) when the model fits the
    oracle scope; otherwise it falls back to Monte Carlo and the tolerance
    widens to three standard errors.
    """
    if regime not in REGIMES:
        raise ModelValidationError([f"unknown regime {regime!r}"])
    if not (p > 1.0 - q):
        raise ModelValidationError(["sandwich hypotheses violated: requires p > 1 - q"])
    observation = "full" if regime.startswith("full") else "partial"
    delayed = regime.endswith("delayed")
    eff_M = delay.M if delay is not None else 0
    if delayed and eff_M < 1:
        raise ModelValidationError(["delayed regime requires a delay profile with M >= 1"])
    if not delayed and eff_M != 0:
        raise ModelValidationError(["matched regime given a nonzero delay profile"])
    cfg = dict(config or {})
    replications = int(cfg.pop("replications", 50_000))
    seed = int(cfg.pop("seed", 0))
    if cfg:
        raise ModelValidationError([f"unknown bound_check config keys {sorted(cfg)}"])
    x0 = state_vector(x0, model.state_dim)
    pen_cfg = penalty_config_for(model.N, replications, seed)
    lower = min_cost(model, solve(model, p, delay, observation), x0, tau0, pen_cfg).total
    policy = sandwich_policy(model, p, q, delay, observation)
    upper = min_cost(model, policy, x0, tau0, pen_cfg).total
    chain_true = ReliabilityChain(p=p, q=q, tau0=tau0)
    exact_ok = (
        observation == "full" and model.N <= ORACLE_MAX_N and model.drift is None
    )
    if exact_ok:
        policy_value = evaluate_policy_cost(model, chain_true, delay, policy, x0, tau0=tau0)
        tolerance = 1e-9
        method = "exact"
    else:
        sim = run(
            model, chain_true, delay, policy,
            SimulationConfig(replications=replications, master_seed=seed), x0=x0,
        )
        policy_value = sim["mean_cost"]
        tolerance = 3.0 * sim["std_error"] + 1e-9
        method = "monte-carlo"
    holds = (lower <= policy_value + tolerance) and (policy_value <= upper + tolerance)
    return {
        "lower": float(lower),
        "upper": float(upper),
        "policy_value": float(policy_value),
        "holds": bool(holds),
        "tolerance": float(tolerance),
        "method": method,
    }
