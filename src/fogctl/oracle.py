"""Independent verification oracles.

Everything here recomputes optimal costs and policy values from first
principles: dynamic programming over availability states for the matched
loop, dynamic programming over update-cycle gates for the delayed loop, and
exact closed-loop moment recursions for fixed policies. None of it reuses
the production recursions, so agreement between the two is evidence, not
tautology.

Path enumeration walks the availability histories as one breadth-first
prefix tree: stage k holds every positive-probability prefix tau_0..tau_k
as a row of stacked arrays, so the rollout takes a few batched operations
per stage over about 2^(N+1) nodes in all, where a path-by-path loop would
take N 2^N steps. Its widest stage holds up to 2^N nodes, so it is limited
to N <= 16 and checked against the machine's memory before it starts.

The exact oracles cover full observation without drift. Anything outside
that envelope raises instead of silently approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimation import penalty_config_for
from .model import (
    DelayProfile,
    LinearSystemModel,
    ModelValidationError,
    ReliabilityChain,
    _memory_guard,
    _whole,
    bind_delay,
    count,
    state_vector,
    symmetrize,
    tau0_pair,
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


def _check_enumeration_horizon(N) -> int:
    """N as an int, or ModelValidationError unless 1 <= N <= ORACLE_MAX_N."""
    try:
        whole = count(N)
    except ValueError:
        whole = 0
    if whole < 1:
        raise ModelValidationError([f"path enumeration needs a whole number N >= 1, got {N!r}"])
    if whole > ORACLE_MAX_N:
        raise ModelValidationError(
            [f"path enumeration limited to N <= {ORACLE_MAX_N}, got N={whole}"]
        )
    return whole


def _prefix_tree(N: int, dist: np.ndarray, T: np.ndarray):
    """The prefix tree of positive-probability availability histories, stage by stage.

    Yields, for k = 0..N-1, (parent, state, prob) over the prefixes
    tau_0..tau_k of positive probability, in lexicographic order: parent
    indexes each prefix's own prefix in the previous stage (all zeros at
    k = 0), state is tau_k, and prob is dist[tau_0] T[tau_0, tau_1] ...
    T[tau_{k-1}, tau_k], multiplied left to right. A prefix of probability
    zero has no descendants.
    """
    prob = np.asarray(dist, dtype=float)
    state = np.array([0, 1])
    parent = np.zeros(2, dtype=np.intp)
    for k in range(N):
        if k:
            parent = np.repeat(np.arange(len(prob)), 2)
            prob = (prob[:, None] * T[state]).ravel()  # child j of node i at 2 i + j
            state = np.tile([0, 1], len(state))
        keep = np.flatnonzero(prob > 0.0)
        parent, state, prob = parent[keep], state[keep], prob[keep]
        yield parent, state, prob


def _widest_stage(N: int, dist: np.ndarray, T: np.ndarray) -> int:
    """Nodes in the last, widest stage of `_prefix_tree`: every node has a child.

    Counted from the zero pattern of dist and T, so a probability product
    that underflows to zero is still counted.
    """
    ends = (np.asarray(dist) > 0.0).astype(np.int64)  # positive prefixes ending in 0 and 1
    for _ in range(N - 1):
        ends = ends @ (T > 0.0)
    return int(ends.sum())


def enumerate_tau_paths(N: int, chain: ReliabilityChain) -> list:
    """All positive-probability availability paths of length N, in lexicographic order.

    Raises:
        ModelValidationError: unless N is a whole number with 1 <= N <= 16.
    """
    N = _check_enumeration_horizon(N)
    states = np.zeros((1, 0), dtype=np.int8)
    tree = _prefix_tree(N, chain.tau0_distribution(), chain.transition_matrix())
    for parent, state, prob in tree:
        states = np.column_stack([states[parent], state])
    return [
        TauPath(states=tuple(row), probability=float(pr))
        for row, pr in zip(states.tolist(), prob.tolist())
    ]


def _check_oracle_scope(model: LinearSystemModel, what: str) -> None:
    if model.drift is not None:
        raise ModelValidationError([f"{what} does not support drift terms"])


def _tau0_dist(chain: ReliabilityChain, tau0) -> np.ndarray:
    """tau0 as (P[0], P[1]) through `tau0_pair`; None means the chain's own."""
    if tau0 is None:
        return chain.tau0_distribution()
    return np.array(tau0_pair(tau0))


# ---------------------------------------------------------------------------
# Exact minimum cost by dynamic programming
# ---------------------------------------------------------------------------

def _dp_perfect(model, chain, x0, dist) -> float:
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


def _dp_delayed(model, chain, delay, x0, dist) -> float:
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
    g0 = dist @ np.linalg.matrix_power(T, M_F)
    return float(
        g0[0] * (y0 @ H[0] @ y0 + h[0]) + g0[1] * (y0 @ H[1] @ y0 + h[1])
    )


def brute_force_min_cost(
    model: LinearSystemModel,
    chain: ReliabilityChain,
    delay: Optional[DelayProfile],
    x0: np.ndarray,
    tau0=None,
) -> float:
    """Exact minimum expected cost by dynamic programming, full observation.

    Works for any reliability chain (symmetric or not). tau0 overrides the
    chain's initial state when given (0, 1, or a distribution pair).

    Raises:
        ModelValidationError: drift present, a malformed tau0, or horizon
            shorter than the round-trip delay.
    """
    _check_oracle_scope(model, "the exact oracle")
    x0 = state_vector(x0, model.state_dim)
    dist = _tau0_dist(chain, tau0)
    delay = bind_delay(delay, model.N)
    if delay is None:
        return _dp_perfect(model, chain, x0, dist)
    return _dp_delayed(model, chain, delay, x0, dist)


# ---------------------------------------------------------------------------
# Exact closed-loop policy evaluation
# ---------------------------------------------------------------------------

def _eval_perfect_moments(model, chain, policy, x0, dist) -> float:
    """Availability-conditioned second-moment recursion (exact, O(N))."""
    N = model.N
    T = chain.transition_matrix()
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


def _eval_perfect_enumeration(model, chain, policy, x0, dist) -> float:
    """Rollout over the prefix tree of availability histories.

    Each node of stage k carries its history's conditional state mean and
    covariance at stage k and its cost so far, stacked over the stage's
    nodes; the stage cost and the closed-loop step (A - B V_k where tau_k
    is ON, A where it is OFF) act on all of them at once, and each child
    starts from its parent's result. The expected cost is the
    probability-weighted sum over the leaves. Cross-checks the moment
    recursion.
    """
    N, n = _check_enumeration_horizon(model.N), model.state_dim
    T = chain.transition_matrix()
    widest = _widest_stage(N, dist, T)
    # doubles per node of the widest stage: three n x n stacks (the
    # covariances, those of one availability state, and a product
    # temporary), two of means, and about eight entries of cost, tree
    # index, probability and mask
    mib = 8 * widest * (3 * n * n + 2 * n + 8) / 2**20
    with _memory_guard(f"N = {N}, n = {n}", "path enumeration", mib,
                       f" for {widest} histories"):
        mu = x0[None, :]
        Sig = np.zeros((1, n, n))
        cost = np.zeros(1)
        for k, (parent, state, prob) in enumerate(_prefix_tree(N, dist, T)):
            V = policy.gains.V[k]
            mu, Sig = mu[parent], Sig[parent]
            on = state == 1
            cost = cost[parent] + _node_cost(model.Q[k], mu, Sig)
            cost[on] += _node_cost(V.T @ model.R[k] @ V, mu[on], Sig[on])
            for rows, Acl in ((~on, model.A[k]), (on, model.A[k] - model.B[k] @ V)):
                mu[rows] = mu[rows] @ Acl.T
                Sig[rows] = Acl @ Sig[rows] @ Acl.T
            Sig = symmetrize(Sig + model.W[k])
        cost += _node_cost(model.Q[N], mu, Sig)
    return float(prob @ cost)


def _node_cost(weight, mu, Sig) -> np.ndarray:
    """E[x' weight x] per node, from its conditional mean and covariance."""
    return np.einsum("pi,ij,pj->p", mu, weight, mu) + np.einsum("ij,pji->p", weight, Sig)


def _eval_delayed_moments(model, chain, delay, policy, x0, dist) -> float:
    """Gate-conditioned joint second-moment recursion over update cycles."""
    N, n, s = model.N, model.state_dim, model.control_dim
    M, M_F, c = delay.M, delay.M_F, delay.c
    T = chain.transition_matrix()
    Tm = np.linalg.matrix_power(T, M)
    g0 = dist @ np.linalg.matrix_power(T, M_F)
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
    conditional second-moment recursions, O(N). method="enumeration"
    recomputes the matched case over the prefix tree of availability
    histories as a cross-check: each history's conditional mean and
    covariance, a few batched operations per stage over at most 2^(k+1)
    histories at stage k.

    Raises:
        ModelValidationError: partial observation, drift, a malformed tau0,
            a delay that disagrees with the policy's gains, or with
            method="enumeration" N > 16 or a widest stage that needs more
            than the machine's memory or the memory left (naming N, n and
            the MiB needed).
    """
    _check_oracle_scope(model, "exact policy evaluation")
    if policy.observation != "full":
        raise ModelValidationError(["exact policy evaluation covers full observation only"])
    delay = check_fits(policy, model, delay)
    x0 = state_vector(x0, model.state_dim)
    dist = _tau0_dist(chain, tau0)
    if method not in ("moments", "enumeration"):
        raise ModelValidationError([f"unknown evaluation method {method!r}"])
    if delay is None:
        if method == "enumeration":
            return _eval_perfect_enumeration(model, chain, policy, x0, dist)
        return _eval_perfect_moments(model, chain, policy, x0, dist)
    if method == "enumeration":
        raise ModelValidationError(
            ["enumeration evaluation covers the zero-delay loop only"]
        )
    return _eval_delayed_moments(model, chain, delay, policy, x0, dist)


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
    widens to three standard errors. config sets that fallback's
    replications (a whole number >= 1) and seed (>= 0).
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
    replications = _whole("bound_check replications", cfg.pop("replications", 50_000), 1)
    seed = _whole("bound_check seed", cfg.pop("seed", 0), 0)
    if cfg:
        raise ModelValidationError([f"unknown bound_check config keys {sorted(cfg)}"])
    x0 = state_vector(x0, model.state_dim)
    pen_cfg = penalty_config_for(model.N, replications, seed)
    lower = min_cost(model, solve(model, p, delay, observation), x0, tau0, pen_cfg).total
    policy = sandwich_policy(model, p, q, delay, observation)
    upper = min_cost(model, policy, x0, tau0, pen_cfg).total
    chain_true = ReliabilityChain(p=p, q=q, tau0=tau0)
    if observation == "full" and model.drift is None:
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
