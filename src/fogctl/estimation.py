"""Conditional-mean machinery: Kalman filtering and delay prediction.

Partial observation uses a standard intermittent Kalman filter: the
measurement update runs only at stages where the endpoint served the request.
Full observation with delay uses a deterministic M-step mean propagation of
the last transmitted (state, control) pair.

The expected estimation penalty quantifies the exact cost of acting on a
conditional mean instead of the true state. For linear-Gaussian models each
per-stage term is an expectation over ON/OFF histories of a weighted trace of
the filter error covariance; the covariances are history-dependent but
state-independent, so the expectation is computable by exact enumeration at
small horizons or by Monte Carlo sampling otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    LinearSystemModel,
    ModelValidationError,
    is_psd,
    symmetrize,
)

PENALTY_METHODS = ("exact-enumeration", "monte-carlo")
EXACT_ENUMERATION_MAX_N = 20


@dataclass(frozen=True)
class FilterState:
    """Conditional mean and error covariance at a given stage.

    last_update_stage is the most recent stage whose measurement was
    ingested, or None if no update has happened yet.
    """

    x_hat: np.ndarray
    Sigma: np.ndarray
    k: int
    last_update_stage: Optional[int] = None

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x_hat, dtype=float))
        S = symmetrize(self.Sigma)
        if not is_psd(S):
            raise ModelValidationError(
                [f"filter covariance not positive semidefinite at stage {self.k}"]
            )
        x.setflags(write=False)
        S.setflags(write=False)
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "Sigma", S)


@dataclass(frozen=True)
class EstimationPenalty:
    """Per-stage estimation-error cost terms and their weighted total.

    per_stage holds the conditional terms (expected weighted squared error
    given the stage's request was served); stages names the stage index of
    each entry. total is the availability-weighted sum the cost formulas
    consume. standard_error is 0 for the exact method.
    """

    per_stage: tuple
    total: float
    method: str
    standard_error: float
    stages: tuple = ()

    def __post_init__(self):
        if self.method not in PENALTY_METHODS:
            raise ModelValidationError([f"unknown penalty method {self.method!r}"])
        vals = []
        for v in self.per_stage:
            v = float(v)
            if v < -1e-9:
                raise ModelValidationError([f"negative per-stage penalty term {v}"])
            vals.append(max(v, 0.0))
        object.__setattr__(self, "per_stage", tuple(vals))
        if self.standard_error < 0:
            raise ModelValidationError(["standard_error must be nonnegative"])
        if not self.stages:
            object.__setattr__(self, "stages", tuple(range(len(vals))))


def zero_penalty(stages, method: str = "exact-enumeration") -> EstimationPenalty:
    """All-zero penalty over the given stage indices (exact observation)."""
    stages = tuple(int(s) for s in stages)
    return EstimationPenalty(
        per_stage=(0.0,) * len(stages), total=0.0, method=method,
        standard_error=0.0, stages=stages,
    )


# ---------------------------------------------------------------------------
# Filter transitions
# ---------------------------------------------------------------------------

def kalman_predict(
    state: FilterState,
    model: LinearSystemModel,
    applied_control: np.ndarray,
    known_drift: Optional[np.ndarray] = None,
) -> FilterState:
    """Time update from stage k to k+1 with a known applied control.

    known_drift overrides the model's drift at stage k when given; passing a
    drift-stripped model (or explicit zeros) reproduces the zero-mean
    propagation the gain derivations assume.
    """
    k = state.k
    if k >= model.N:
        raise ModelValidationError([f"predict past the horizon: stage {k} of {model.N}"])
    u = np.atleast_1d(np.asarray(applied_control, dtype=float))
    if u.shape != (model.control_dim,):
        raise ModelValidationError(
            [f"applied control has shape {u.shape}, expected ({model.control_dim},)"]
        )
    drift = model.drift_at(k) if known_drift is None else np.atleast_1d(np.asarray(known_drift, dtype=float))
    A, B = model.A[k], model.B[k]
    x = A @ state.x_hat + B @ u + drift
    S = symmetrize(A @ state.Sigma @ A.T + model.W[k])
    return FilterState(x_hat=x, Sigma=S, k=k + 1, last_update_stage=state.last_update_stage)


def kalman_update(state: FilterState, model: LinearSystemModel, z: np.ndarray) -> FilterState:
    """Measurement update at the filter's current stage (served request).

    Raises:
        ModelValidationError: when the innovation covariance is singular
            (possible only with zero measurement noise and a rank-deficient
            prior; use the exact-observation shortcut in that case).
    """
    k = state.k
    if k >= model.N:
        raise ModelValidationError([f"no measurement model at stage {k} of horizon {model.N}"])
    z = np.atleast_1d(np.asarray(z, dtype=float))
    C, V = model.C[k], model.V_noise[k]
    if z.shape != (model.obs_dim,):
        raise ModelValidationError(
            [f"measurement has shape {z.shape}, expected ({model.obs_dim},)"]
        )
    S = symmetrize(C @ state.Sigma @ C.T + V)
    try:
        np.linalg.cholesky(S)  # definiteness test
    except np.linalg.LinAlgError as e:
        raise ModelValidationError(
            ["innovation covariance singular; add measurement noise or use the exact-observation shortcut"]
        ) from e
    gain = np.linalg.solve(S, C @ state.Sigma).T
    x = state.x_hat + gain @ (z - C @ state.x_hat)
    IKC = np.eye(model.state_dim) - gain @ C
    Sigma = symmetrize(IKC @ state.Sigma @ IKC.T + gain @ V @ gain.T)
    return FilterState(x_hat=x, Sigma=Sigma, k=k, last_update_stage=k)


def propagate_mean(
    model: LinearSystemModel,
    x: np.ndarray,
    u: np.ndarray,
    t0: int,
    t1: int,
) -> np.ndarray:
    """Mean of x_{t1} given x_{t0} = x, control u applied at t0, none after."""
    xi = model.A[t0] @ x + model.B[t0] @ u + model.drift_at(t0)
    for t in range(t0 + 1, t1):
        xi = model.A[t] @ xi + model.drift_at(t)
    return xi


def delayed_predictor(lambda_k, model: LinearSystemModel, k: int, M: int) -> np.ndarray:
    """Conditional mean of x_k given (x_{k-M}, u_{k-M}).

    Propagates the transmitted state M stages forward through the dynamics
    with the transmitted control applied at stage k-M, zero control at the
    intermediate stages, zero-mean disturbances, and the model's known drift
    added per stage.

    Args:
        lambda_k: pair (x_{k-M}, u_{k-M}).
        model: system model (strip its drift for the zero-mean variant).
        k: target stage; must satisfy k >= M and k = 0 mod M.
        M: round-trip delay in stages, M >= 1.
    """
    if M < 1:
        raise ModelValidationError([f"delayed predictor requires M >= 1, got {M}"])
    if k < M:
        raise ModelValidationError([f"stage {k} precedes the first possible arrival at {M}"])
    if k % M != 0:
        raise ModelValidationError([f"stage {k} is off the arrival grid (M = {M})"])
    x_prev, u_prev = lambda_k
    x_prev = np.atleast_1d(np.asarray(x_prev, dtype=float))
    u_prev = np.atleast_1d(np.asarray(u_prev, dtype=float))
    return propagate_mean(model, x_prev, u_prev, k - M, k)


# ---------------------------------------------------------------------------
# Window algebra shared by the delayed penalty and the simulator
# ---------------------------------------------------------------------------

def transition_product(model: LinearSystemModel, t1: int, t0: int) -> np.ndarray:
    """State-transition product A_{t1-1} ... A_{t0} (identity when t1 = t0)."""
    Phi = np.eye(model.state_dim)
    for t in range(t0, t1):
        Phi = model.A[t] @ Phi
    return Phi


def window_noise(model: LinearSystemModel, t0: int, t1: int) -> np.ndarray:
    """Covariance of the disturbance accumulated from stage t0 up to t1."""
    n = model.state_dim
    Xi = np.zeros((n, n))
    Phi = np.eye(n)  # running product A_{t1-1}...A_{l+1}
    for l in range(t1 - 1, t0 - 1, -1):
        Xi += Phi @ model.W[l] @ Phi.T
        Phi = Phi @ model.A[l]
    return symmetrize(Xi)


def _batch_sym(X: np.ndarray) -> np.ndarray:
    return (X + np.swapaxes(X, -1, -2)) / 2.0


def gated_posterior(Sig: np.ndarray, C: np.ndarray, V: np.ndarray):
    """Gains and Joseph-form posterior covariances for a batch of priors (P, n, n).

    Uses a pseudo-inverse of the innovation covariance so that exact
    observation (zero noise, possibly singular prior) degrades gracefully to
    the projection update instead of failing. Each batch entry is computed
    independently of the others, so a covariance comes out bit for bit the
    same whichever batch it is computed in.

    Returns:
        (gain, posterior) with shapes (P, n, m) and (P, n, n).
    """
    n = Sig.shape[-1]
    S = _batch_sym(np.matmul(np.matmul(C, Sig), C.T) + V)
    Sinv = np.linalg.pinv(S, hermitian=True)
    gain = np.matmul(np.matmul(Sig, C.T), Sinv)
    IKC = np.eye(n) - np.matmul(gain, C)
    post = np.matmul(np.matmul(IKC, Sig), np.swapaxes(IKC, -1, -2))
    post = post + np.matmul(np.matmul(gain, V), np.swapaxes(gain, -1, -2))
    return gain, _batch_sym(post)


def predict_covariances(Sig: np.ndarray, Phi: np.ndarray, Xi: np.ndarray) -> np.ndarray:
    """Batched time update Phi Sig Phi^T + Xi of covariances (P, n, n)."""
    return _batch_sym(np.matmul(np.matmul(Phi, Sig), Phi.T) + Xi)


def advance_histories(ids: np.ndarray, served: np.ndarray, n_nodes: int):
    """Append one ON/OFF outcome to each sampled history and renumber them.

    The filter covariances depend on a replication's ON/OFF history alone,
    so replications sharing a history share one covariance node. Each
    replication's history id in [0, n_nodes) is extended by its update bit
    (key = 2 id + bit) and the distinct keys are renumbered in increasing
    order: O(R), no sort.

    Returns:
        (new_ids, parents, updated): new_ids per replication; for each
        distinct child node, the parent node it extends and whether it
        extends it by an update.
    """
    key = 2 * ids + served
    present = np.zeros(2 * n_nodes, dtype=bool)
    present[key] = True
    children = np.flatnonzero(present)
    remap = np.cumsum(present) - 1
    return remap[key], children // 2, (children % 2).astype(bool)


def _batch_traces(Sig: np.ndarray, weight: np.ndarray) -> np.ndarray:
    return np.einsum("pij,ji->p", Sig, weight)


# ---------------------------------------------------------------------------
# Expected estimation penalty
# ---------------------------------------------------------------------------

def _penalty_config(config) -> dict:
    cfg = {"method": "exact-enumeration", "replications": 100_000, "seed": 0}
    if config:
        unknown = set(config) - set(cfg)
        if unknown:
            raise ModelValidationError([f"penalty config: unknown keys {sorted(unknown)}"])
        cfg.update(config)
    if cfg["method"] not in PENALTY_METHODS:
        raise ModelValidationError([f"unknown penalty method {cfg['method']!r}"])
    if int(cfg["replications"]) < 2:
        raise ModelValidationError(["penalty replications must be >= 2"])
    return cfg


def _branch(post: np.ndarray, prior: np.ndarray, probs: np.ndarray, p: float):
    """Split enumeration branches on this stage's ON/OFF outcome."""
    if p == 1.0:
        return post, probs
    if p == 0.0:
        return prior, probs
    children = np.concatenate([post, prior], axis=0)
    probs = np.concatenate([probs * p, probs * (1.0 - p)])
    return children, probs


def _delayed_weights(model: LinearSystemModel, schedule) -> list:
    """Effective penalty weights, one per interior service epoch k = 1..c-1.

    The weight for epoch k transports the arrival-stage control benefit back
    to the estimation stage kM: A_{kM}^T P_{kM+1} A_{kM}.
    """
    delay = schedule.delay.bound_to(model.N)
    M, c = delay.M, delay.c
    out = []
    for k in range(1, c):
        A = model.A[k * M]
        out.append(symmetrize(A.T @ schedule.P[k * M + 1] @ A))
    return out


def _penalty_sweep(Sig0, steps, p, cfg):
    """Conditional penalty terms over a sequence of update epochs.

    Sig0 is the prior covariance at the first epoch; steps holds, per epoch,
    (C, V, weight, Phi, Xi): the measurement channel, the trace weight, and
    the time update Phi Sig Phi^T + Xi to the next epoch. Monte Carlo
    computes the covariances once per distinct sampled history and gathers
    each replication's trace by its history id.

    Returns:
        (per, total, standard_error) with one conditional term per epoch.
    """
    exact = cfg["method"] == "exact-enumeration"
    Sig = Sig0[None].copy()
    if exact:
        probs = np.array([1.0])
    else:
        R = int(cfg["replications"])
        rng = np.random.default_rng(int(cfg["seed"]))
        draws = rng.random((R, len(steps) + 1))
        ids = np.zeros(R, dtype=np.intp)
        samples = np.zeros((R, len(steps)))
    per = np.zeros(len(steps))
    for i, (C, V, weight, Phi, Xi) in enumerate(steps):
        post = gated_posterior(Sig, C, V)[1]  # holding no gains keeps the peak down
        traces = _batch_traces(post, weight)
        if exact:
            per[i] = float(probs @ traces)
            children, probs = _branch(post, Sig, probs, p)
        else:
            samples[:, i] = traces[ids]
            ids, parents, updated = advance_histories(ids, draws[:, i + 1] < p, len(Sig))
            children = np.where(updated[:, None, None], post[parents], Sig[parents])
        if i < len(steps) - 1:
            Sig = predict_covariances(children, Phi, Xi)
    if exact:
        return per, p * float(per.sum()), 0.0
    totals = p * samples.sum(axis=1)
    se = float(totals.std(ddof=1) / np.sqrt(len(totals)))
    return samples.mean(axis=0), float(totals.mean()), se


def _penalty_perfect_terms(model, p, schedule, cfg):
    steps = [
        (model.C[k], model.V_noise[k], schedule.Lambda[k], model.A[k], model.W[k])
        for k in range(1, model.N)
    ]
    per, total, se = _penalty_sweep(model.W[0], steps, p, cfg)
    return np.concatenate([[0.0], per]), total, se


def _penalty_delayed_terms(model, p, schedule, cfg):
    delay = schedule.delay.bound_to(model.N)
    M, c = delay.M, delay.c
    stages = [k * M for k in range(1, c)]
    if c <= 1:
        return np.zeros(0), 0.0, 0.0, stages
    weights = _delayed_weights(model, schedule)
    steps = [
        (
            model.C[k * M], model.V_noise[k * M], weights[k - 1],
            transition_product(model, (k + 1) * M, k * M),
            window_noise(model, k * M, (k + 1) * M),
        )
        for k in range(1, c)
    ]
    per, total, se = _penalty_sweep(window_noise(model, 0, M), steps, p, cfg)
    return per, total, se, stages


def expected_estimation_penalty(
    model: LinearSystemModel,
    p: float,
    schedule,
    regime: str,
    config: Optional[dict] = None,
) -> EstimationPenalty:
    """Expected weighted estimation-error cost under partial observation.

    Per-stage terms are the conditional expectations (given the stage's
    request was served) of the weighted squared filter error; the total
    weights each term by its service probability. The initial state is known
    exactly, so the stage-0 term is always zero.

    Args:
        model: validated model with its measurement channel (C, V_noise).
        p: symmetric-chain ON-persistence.
        schedule: gain schedule supplying the weights (control-benefit
            matrices for the no-delay regime; transported collateral weights
            for the delayed regime).
        regime: "partial-perfect" or "partial-delayed".
        config: {method, replications, seed}; method defaults to
            exact-enumeration, which enumerates all ON/OFF histories and is
            guarded at N <= 20.

    Returns:
        EstimationPenalty (standard_error 0 for the exact method).

    Raises:
        ModelValidationError: exact enumeration requested with N > 20
            (use method "monte-carlo"), or an unknown regime/method.
    """
    if regime not in ("partial-perfect", "partial-delayed"):
        raise ModelValidationError(
            [f"estimation penalty applies to partial-observation regimes, got {regime!r}"]
        )
    if not (0.0 <= p <= 1.0):
        raise ModelValidationError([f"p must be in [0, 1], got {p}"])
    cfg = _penalty_config(config)
    if cfg["method"] == "exact-enumeration" and model.N > EXACT_ENUMERATION_MAX_N:
        raise ModelValidationError(
            [
                f"exact enumeration is limited to N <= {EXACT_ENUMERATION_MAX_N} "
                f"(got N = {model.N}); use method 'monte-carlo'"
            ]
        )
    if regime == "partial-perfect":
        per, total, se = _penalty_perfect_terms(model, p, schedule, cfg)
        stages = tuple(range(model.N))
    else:
        if schedule.delay is None:
            raise ModelValidationError(["partial-delayed penalty requires a delayed schedule"])
        per, total, se, stages = _penalty_delayed_terms(model, p, schedule, cfg)
    return EstimationPenalty(
        per_stage=tuple(float(v) for v in per),
        total=float(total),
        method=cfg["method"],
        standard_error=se,
        stages=tuple(stages),
    )
