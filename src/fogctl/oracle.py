"""Independent verification oracles.

Everything here recomputes optimal costs and policy values from first
principles. Perfect match and the delayed loop are one two-mode Markov-jump
LQ problem over the arrival grid's epochs (`_epoch_forms`, the only code
here that tells them apart): a quadratic stage cost over the epoch's state
y and its decision d, a linear step to the next y, and a gate that lets the
decision through or holds it at zero. One dynamic program over gate
states gives the optimal cost, and one exact moment recursion the cost of
a fixed gated policy. None of it reuses the production recursions, so
agreement between the two is evidence, not tautology.

Path enumeration walks the gate histories as one breadth-first prefix
tree: stage j holds every positive-probability prefix of the first j + 1
epochs' gates as a row of stacked arrays, so the rollout takes a few
batched operations per epoch over about 2^(c+1) nodes in all for c epochs,
where a path-by-path loop would take c 2^c steps. Its widest stage holds up
to 2^c nodes, so it is limited to N <= 16 and checked against the
memory left before it starts.

The exact oracles cover full observation without drift. Anything outside
that envelope raises instead of silently approximating.
"""

from __future__ import annotations

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
    arrival_grid,
    state_vector,
    symmetrize,
    tau0_pair,
)
from .policy import ControllerRegime, check_fits, min_cost, sandwich_policy, solve
from .riccati import REGIMES, _tag
from .simulator import SimulationConfig, run

ORACLE_MAX_N = 16


def _prefix_tree(N: int, dist: np.ndarray, T: np.ndarray):
    """The prefix tree of positive-probability two-state histories, stage by stage.

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


def _check_oracle_scope(model: LinearSystemModel, what: str) -> None:
    if model.drift is not None:
        raise ModelValidationError([f"{what} does not support drift terms"])


def _tau0_dist(chain: ReliabilityChain, tau0) -> np.ndarray:
    """tau0 as (P[0], P[1]) through `tau0_pair`; None means the chain's own."""
    if tau0 is None:
        return chain.tau0_distribution()
    return np.array(tau0_pair(tau0))


# ---------------------------------------------------------------------------
# The loop in epoch form
# ---------------------------------------------------------------------------

def _blkdiag(a, b) -> np.ndarray:
    """The block-diagonal matrix [[a, 0], [0, b]] of two rectangular blocks."""
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def _epoch_quadratic(model, t0, t1, include_end):
    """Cost of stages t0..t1-1 as a quadratic over w = (x_{t0}, u_{t0}).

    Controls between grid stages are zero, so only u_{t0} enters. Returns
    (E, e, G_end, Xi): cost is w'Ew + e, and x_{t1} = G_end w + noise with
    covariance Xi. With include_end the stage-t1 state cost is folded in as
    well (terminal tail).
    """
    E, e = _blkdiag(model.Q[t0], model.R[t0]), 0.0
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


def _epoch_forms(model, chain, delay, x0, dist):
    """The loop as a two-mode Markov-jump LQ problem over the arrival grid's epochs.

    Returns (epochs, tail, T_gate, g0, y0). Epoch j is (E, e, F, Xi, P,
    arrive): its cost is z'Ez + e over z = (y, d), d being the control the
    epoch decides, and the next y is F z plus noise of covariance Xi. A gated
    linear policy decides d = -V[arrive] P y where the epoch's gate is ON and
    d = 0 where it is OFF. tail = (E_tail, e_tail) is the cost after the last
    epoch as a quadratic over y. The gates of consecutive epochs are Markov
    with transition T_gate, the first one distributed as g0; y0 is the
    starting y.

    Perfect match: y = x_k and d = u_k, one epoch per stage k, gated by
    tau_k. A delay M: y = (x_{jM}, u_{jM}) and d = u_{(j+1)M}, the control
    epoch j sends, gated by the availability at its service stage jM + M_F.
    Its cost and step are the window of stages jM..(j+1)M-1
    (`_epoch_quadratic`) with a zero block for d.
    """
    step, M_F, M, c = arrival_grid(delay, model.N)
    N, n, s = model.N, model.state_dim, model.control_dim
    T = chain.transition_matrix()
    if M == 0:
        I = np.eye(n)
        epochs = [(_blkdiag(model.Q[k], model.R[k]), 0.0, np.hstack([model.A[k], model.B[k]]),
                   model.W[k], I, k) for k in range(N)]
        tail, y0 = (model.Q[N], 0.0), x0
    else:
        zero, I = np.zeros((s, s)), np.eye(s)
        epochs = []
        for j in range(c):
            E, e, G_end, Xi = _epoch_quadratic(model, j * M, (j + 1) * M, include_end=False)
            epochs.append((_blkdiag(E, zero), e, _blkdiag(G_end, I), _blkdiag(Xi, zero),
                           G_end, (j + 1) * M))
        tail = _epoch_quadratic(model, c * M, N, include_end=True)[:2]
        y0 = np.concatenate([x0, np.zeros(s)])
    g0 = dist @ np.linalg.matrix_power(T, M_F)
    return epochs, tail, np.linalg.matrix_power(T, step), g0, y0


def _gated_steps(epoch, V) -> list:
    """[(weight, Acl)] with the gate OFF (d = 0) and ON (d = -V[arrive] P y): the
    stage cost is y' weight y and the next y is Acl y plus noise."""
    E, _, F, _, P, arrive = epoch
    r = len(F)
    K = np.vstack([np.eye(r), -V[arrive] @ P])  # z = K y with the gate ON
    return [(E[:r, :r], F[:, :r]), (K.T @ E @ K, F @ K)]


# ---------------------------------------------------------------------------
# Exact minimum cost by dynamic programming
# ---------------------------------------------------------------------------

def _dp(model, chain, delay, x0, dist) -> float:
    """Value iteration over (epoch, gate) quadratics in y: with the gate ON the
    decision d minimizes the cost-to-go over z = (y, d) by a Schur complement,
    with it OFF d = 0."""
    epochs, (E_tail, e_tail), T, g0, y0 = _epoch_forms(model, chain, delay, x0, dist)
    H, h = (E_tail, E_tail), (e_tail, e_tail)
    for E, e, F, Xi, _, _ in reversed(epochs):
        r = len(F)
        newH, newh = [], []
        for gate in (0, 1):
            Hbar = T[gate, 0] * H[0] + T[gate, 1] * H[1]
            Z = E + F.T @ Hbar @ F
            Hred = Z[:r, :r]
            if gate:
                S = symmetrize(Z[r:, r:])
                np.linalg.cholesky(S)  # raises unless positive definite
                Hred = Hred - Z[:r, r:] @ np.linalg.solve(S, Z[r:, :r])
            newH.append(symmetrize(Hred))
            newh.append(e + float(np.trace(Hbar @ Xi)) + T[gate, 0] * h[0] + T[gate, 1] * h[1])
        H, h = newH, newh
    return float(g0[0] * (y0 @ H[0] @ y0 + h[0]) + g0[1] * (y0 @ H[1] @ y0 + h[1]))


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
    return _dp(model, chain, delay, x0, dist)


# ---------------------------------------------------------------------------
# Exact closed-loop policy evaluation
# ---------------------------------------------------------------------------

def _moments(model, chain, delay, policy, x0, dist) -> float:
    """Gate-conditioned second-moment recursion over the epochs (exact, O(N))."""
    epochs, (E_tail, e_tail), T, g0, y0 = _epoch_forms(model, chain, delay, x0, dist)
    mass = g0
    mom = [g0[gate] * np.outer(y0, y0) for gate in (0, 1)]
    total = 0.0
    for epoch in epochs:
        pushed = []
        for gate, (weight, Acl) in enumerate(_gated_steps(epoch, policy.gains.V)):
            total += float(np.trace(weight @ mom[gate]))
            pushed.append(Acl @ mom[gate] @ Acl.T + mass[gate] * epoch[3])
        total += epoch[1]
        mass = mass @ T
        mom = [symmetrize(T[0, g] * pushed[0] + T[1, g] * pushed[1]) for g in (0, 1)]
    return total + float(np.trace(E_tail @ (mom[0] + mom[1]))) + e_tail


def _rollout(model, chain, delay, policy, x0, dist) -> float:
    """Rollout over the prefix tree of gate histories.

    Each node of stage j carries its history's conditional mean and
    covariance of y at epoch j and its cost so far, stacked over the stage's
    nodes; the stage cost and the closed-loop step of each gate act on all
    of them at once, and each child starts from its parent's result. The
    expected cost is the probability-weighted sum over the leaves.
    Cross-checks the moment recursion.
    """
    N, n = model.N, model.state_dim
    if N > ORACLE_MAX_N:
        raise ModelValidationError(
            [f"path enumeration limited to N <= {ORACLE_MAX_N}, got N={N}"]
        )
    epochs, (E_tail, e_tail), T, g0, y0 = _epoch_forms(model, chain, delay, x0, dist)
    r = len(y0)
    widest = _widest_stage(len(epochs), g0, T)
    # doubles per node of the widest stage: three r x r stacks (the
    # covariances, those of one gate, and a product temporary), two of
    # means, and about eight entries of cost, tree index, probability and mask
    mib = 8 * widest * (3 * r * r + 2 * r + 8) / 2**20
    with _memory_guard(f"N = {N}, n = {n}", "path enumeration", mib,
                       f" for {widest} histories"):
        mu, Sig = y0[None, :], np.zeros((1, r, r))
        cost, prob = np.zeros(1), np.ones(1)
        for epoch, (parent, gate, prob) in zip(epochs, _prefix_tree(len(epochs), g0, T)):
            mu, Sig, cost = mu[parent], Sig[parent], cost[parent] + epoch[1]
            for rows, (weight, Acl) in zip((gate == 0, gate == 1),
                                           _gated_steps(epoch, policy.gains.V)):
                cost[rows] += _node_cost(weight, mu[rows], Sig[rows])
                mu[rows] = mu[rows] @ Acl.T
                Sig[rows] = Acl @ Sig[rows] @ Acl.T
            Sig = symmetrize(Sig + epoch[3])
        cost += _node_cost(E_tail, mu, Sig) + e_tail
    return float(prob @ cost)


def _node_cost(weight, mu, Sig) -> np.ndarray:
    """E[y' weight y] per node, from its conditional mean and covariance."""
    return np.einsum("pi,ij,pj->p", mu, weight, mu) + np.einsum("ij,pji->p", weight, Sig)


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
    recomputes it over the prefix tree of gate histories as a cross-check,
    for perfect match and delays alike: each history's conditional mean and
    covariance, a few batched operations per epoch over at most 2^(j+1)
    histories at epoch j.

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
    check_fits(policy, model, delay)
    x0 = state_vector(x0, model.state_dim)
    dist = _tau0_dist(chain, tau0)
    if method not in ("moments", "enumeration"):
        raise ModelValidationError([f"unknown evaluation method {method!r}"])
    evaluate = _rollout if method == "enumeration" else _moments
    return evaluate(model, chain, delay, policy, x0, dist)


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

    The policy value is exact (moment recursion) under full observation;
    under partial observation it falls back to Monte Carlo and the
    tolerance widens to three standard errors. config sets that fallback's
    replications (a whole number >= 1) and seed (>= 0). A model with drift
    raises, as `min_cost` does.
    """
    if regime not in REGIMES:
        raise ModelValidationError([f"unknown regime {regime!r}"])
    if not (p > 1.0 - q):
        raise ModelValidationError(["sandwich hypotheses violated: requires p > 1 - q"])
    observation = regime.partition("-")[0]
    if regime != _tag(observation, delay):
        raise ModelValidationError(
            ["matched regime given a nonzero delay profile" if regime == _tag(observation, None)
             else "delayed regime requires a delay profile with M >= 1"]
        )
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
    if observation == "full":
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
