"""Conditional-mean machinery: Kalman filtering and delay prediction.

Partial observation uses a standard intermittent Kalman filter: the
measurement update runs only at stages where the endpoint served the request.
The helpers here act on batches: covariances per ON/OFF history node
(`gated_posterior`, `predict_covariances`, `advance_histories`) and means
per replication column (`propagate_mean`, the deterministic M-step
propagation of the last transmitted (state, control) pair, the identity for
M = 0). The means are state-major, (n, R): `column_product` multiplies a
matrix into such a block so that every column rounds as it would in any
other block.

`gated_posterior` is the one measurement update, shared by the exact and
Monte Carlo penalties and the simulator. For a well-conditioned noise V it
builds the gain from scalar updates in V's eigenbasis and the posterior from
one Joseph step, with elementwise and stacked-matmul arithmetic only; a
singular or ill-conditioned V takes the pseudo-inverse of the innovation
covariance instead. Either way each batch entry is computed on its own, so
results do not depend on how histories are batched.

The expected estimation penalty quantifies the exact cost of acting on a
conditional mean instead of the true state. For linear-Gaussian models each
per-stage term is an expectation over ON/OFF histories of a weighted trace of
the filter error covariance; the covariances are history-dependent but
state-independent, so the expectation is computable by exact enumeration at
small horizons or by Monte Carlo sampling otherwise. Both walk the history
tree one epoch at a time and run each epoch's nodes through the update in
fixed-size chunks, so beyond two epochs of priors they hold one chunk's
temporaries. Both estimate the memory of their widest epoch first and refuse
a problem that would not fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    LinearSystemModel,
    ModelValidationError,
    _memory_guard,
    _whole,
    arrival_grid,
    symmetrize,
)
from .riccati import _fit, _tag

PENALTY_METHODS = ("exact-enumeration", "monte-carlo")
EXACT_ENUMERATION_MAX_N = 20
# Bytes of one chunk of n x n covariances in the penalty sweep: 2048 nodes
# at n = 4. Smaller chunks pay numpy's per-call overhead, larger ones hold
# more temporaries for no speed.
_CHUNK_BYTES = 2**18
# Largest cond(V) that `gated_posterior` serves by sequential scalar updates.
_SEQUENTIAL_MAX_COND = 1e8


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


def column_product(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ X for a block X of columns, each column rounded on its own.

    A one-row M would send numpy's matmul down its vector-matrix (gemv)
    path, which rounds a column by its position in the block; such an M
    is applied as an elementwise product summed down the columns instead.
    Any other M takes the matrix-matrix product, whose columns round alike
    wherever they sit.
    """
    if len(M) == 1:
        return (M.T * X).sum(axis=0, keepdims=True)
    return M @ X


def propagate_mean(
    model: LinearSystemModel,
    base: np.ndarray,
    u_first: np.ndarray,
    t0: int,
    t1: int,
) -> np.ndarray:
    """Columns of E[x_{t1} | x_{t0} = column, u_{t0} = u-column, no later control].

    Propagates each column of base (n, R) through the model's dynamics and
    known drift from stage t0 to t1 with zero-mean disturbances, u_first
    being (s, R): the delayed regimes' M-step predictor. Returns base
    itself when t1 == t0 (perfect match: the control acts at the stage it
    is computed). Pass a drift-stripped model for the zero-mean variant;
    its `drift_column` is the scalar 0.0, which adds the same bits as a
    zero vector.
    """
    if t1 == t0:
        return base
    mean = (column_product(model.A[t0], base) + column_product(model.B[t0], u_first)
            + drift_column(model, t0))
    for t in range(t0 + 1, t1):
        mean = column_product(model.A[t], mean) + drift_column(model, t)
    return mean


def drift_column(model: LinearSystemModel, t: int):
    """`model.drift_at(t)` shaped to add to a block of columns: (n, 1), or the scalar 0.0."""
    return 0.0 if model.drift is None else model.drift[t][:, None]


# ---------------------------------------------------------------------------
# Window algebra shared by the penalty and the simulator
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


def gated_posterior(Sig: np.ndarray, C: np.ndarray, V: np.ndarray):
    """Gains and Joseph-form posterior covariances for a batch of symmetric priors (P, n, n).

    Which path runs is decided once per call from the eigenvalues d of the
    m x m noise V alone, never from the batch:

    - V positive definite with cond(V) <= ``_SEQUENTIAL_MAX_COND``: the gain
      comes from m scalar updates in V's eigenbasis (V = U diag(d) U^T,
      rows c_i of U^T C; Bierman, *Factorization Methods for Discrete
      Sequential Estimation*, 1977). Update i takes h = Sig_i c_i and
      k = h / (c_i^T h + d_i), turns the gain columns found so far by
      (I - k c_i^T) and appends k; it carries only the products Sig_i c_j
      of the rows still to come, never Sig_i itself. The gain K U^T then
      enters one Joseph step against the given C and V, factored as
      A = Sig - K C Sig, posterior = A - (A C^T - K V) K^T. There is no
      pseudo-inverse and no LAPACK call per batch entry.
    - Any other V (exact observation V = 0, a singular V, or one past the
      cutoff): the Joseph form with a pseudo-inverse of the innovation
      covariance S = C Sig C^T + V, which degrades gracefully to the
      projection update.

    The final Joseph step keeps the sequential path as accurate as the
    pseudo-inverse: the gain carries eigh's rounding of d and U to first
    order, the Joseph posterior only to second. Measured against exact
    rational arithmetic, posteriors taken from the scalar steps themselves
    were up to 20 times less accurate, while this path, with the cutoff
    lifted, stayed within twice the pseudo-inverse's error up to
    cond(V) = 1e14. The cutoff 1e8, about 1/sqrt(eps), is where either
    path's posterior has lost half its digits; the accuracy test covers
    cond(V) up to it.

    Each batch entry is computed on its own (stacked ``np.matmul`` and
    elementwise ops, never one product over the flattened stack), so a gain
    or covariance comes out bit for bit the same whichever batch it is
    computed in.

    Returns:
        (gain, posterior) with shapes (P, n, m) and (P, n, n).
    """
    d, U = np.linalg.eigh(V)
    if not (d[0] > 0.0 and d[-1] <= _SEQUENTIAL_MAX_COND * d[0]):
        n = Sig.shape[-1]
        S = symmetrize(np.matmul(np.matmul(C, Sig), C.T) + V)
        Sinv = np.linalg.pinv(S, hermitian=True)
        gain = np.matmul(np.matmul(Sig, C.T), Sinv)
        IKC = np.eye(n) - np.matmul(gain, C)
        post = np.matmul(np.matmul(IKC, Sig), np.swapaxes(IKC, -1, -2))
        post = post + np.matmul(np.matmul(gain, V), np.swapaxes(gain, -1, -2))
        return gain, symmetrize(post)
    # Row layout throughout: a transposed stack operand makes matmul several
    # times slower than a contiguous one.
    rows = U.T @ C
    H = np.matmul(rows, Sig)  # row j: (Sig_i c_j)^T for the rows j not yet used
    G = np.empty_like(H)  # gain columns in V's eigenbasis, as rows
    for i in range(len(d)):
        c, h = rows[i][:, None], H[..., i:i + 1, :]
        k = h / (np.matmul(h, c) + d[i])
        G[..., :i, :] -= np.matmul(G[..., :i, :], c) * k
        G[..., i:i + 1, :] = k
        H[..., i + 1:, :] -= np.matmul(H[..., i + 1:, :], c) * k
    Kt = np.matmul(U, G)
    del H, G  # freed before the Joseph step's temporaries
    gain = np.ascontiguousarray(np.swapaxes(Kt, -1, -2))
    A = np.matmul(gain, np.matmul(C, Sig))
    np.subtract(Sig, A, out=A)
    post = np.matmul(np.matmul(A, np.ascontiguousarray(C.T)) - np.matmul(gain, V), Kt)
    np.subtract(A, post, out=post)
    del A, Kt
    return gain, symmetrize(post)


def predict_covariances(Sig: np.ndarray, Phi: np.ndarray, Xi: np.ndarray) -> np.ndarray:
    """Batched time update Phi Sig Phi^T + Xi of covariances (P, n, n)."""
    return symmetrize(np.matmul(np.matmul(Phi, Sig), np.ascontiguousarray(Phi.T)) + Xi)


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
    cfg["replications"] = _whole("penalty replications", cfg["replications"], 2)
    cfg["seed"] = _whole("penalty seed", cfg["seed"], 0)
    return cfg


def penalty_config_for(N: int, replications: int, seed: int) -> dict:
    """Penalty config: exact enumeration up to EXACT_ENUMERATION_MAX_N, Monte Carlo above."""
    if N <= EXACT_ENUMERATION_MAX_N:
        return {"method": "exact-enumeration"}
    return {"method": "monte-carlo", "replications": replications, "seed": seed}


def _chunk_nodes(n: int) -> int:
    return max(1, _CHUNK_BYTES // (8 * n * n))


def _sweep_mib(n: int, m: int, epochs: int, p: float, replications: Optional[int] = None):
    """(MiB, nodes): `_penalty_sweep`'s memory at its widest level, and that level's size.

    The last epoch's level is the widest: one prior per history of the
    epochs before it, at most `replications` when sampled. Alive at once are
    the priors of that level and of the one before it, about four scalars
    per node of both (probabilities, traces, history bookkeeping), and one
    chunk's update temporaries: about six n x n, three m x n and eight
    scalars per node. Monte Carlo adds its (R, epochs) draws, its
    (R, epochs - 1) samples and about six id and gather vectors of R.
    """
    nodes = 2 ** max(epochs - 2, 0) if 0.0 < p < 1.0 else 1
    reps = 0
    if replications is not None:
        nodes, reps = min(nodes, replications), replications * (2 * epochs + 5)
    chunk = min(_chunk_nodes(n), nodes)
    doubles = ((nodes + (nodes + 1) // 2) * (n * n + 4)
               + chunk * (6 * n * n + 3 * m * n + 8) + reps)
    return 8 * doubles / 2**20, nodes


def _penalty_sweep(Sig0, steps, p, cfg):
    """Conditional penalty terms over a sequence of update epochs.

    Sig0 is the prior covariance at the first epoch; steps holds, per epoch,
    (C, V, weight, Phi, Xi): the measurement channel, the trace weight, and
    the time update Phi Sig Phi^T + Xi to the next epoch. The history tree
    is walked level by level; each level's priors go through the update,
    the trace and the time update of their children in chunks of
    `_CHUNK_BYTES`, writing into the preallocated next level, so the
    working memory beyond two levels of priors is one chunk's.

    Exact enumeration puts the ON children of parents [lo, hi) at [lo, hi)
    and the OFF children at [P + lo, P + hi), the order of the level's
    probabilities. Monte Carlo computes the covariances once per distinct
    sampled history and gathers each replication's trace by its history id;
    `advance_histories` numbers the children in parent order, so the
    children of a chunk of parents are one contiguous range. Every node is
    computed on its own, and each term is one product over the whole
    level, so the results do not depend on the chunk size.

    Returns:
        (per, total, standard_error) with one conditional term per epoch.
    """
    exact = cfg["method"] == "exact-enumeration"
    n = Sig0.shape[-1]
    chunk = _chunk_nodes(n)
    Sig = Sig0[None].copy()
    if exact:
        probs = np.array([1.0])
    else:
        R = cfg["replications"]
        rng = np.random.default_rng(cfg["seed"])
        draws = rng.random((R, len(steps) + 1))
        ids = np.zeros(R, dtype=np.intp)
        samples = np.zeros((R, len(steps)))
    per = np.zeros(len(steps))
    for i, (C, V, weight, Phi, Xi) in enumerate(steps):
        P, last = len(Sig), i == len(steps) - 1
        traces = np.empty(P)
        if last:
            kids = None  # no later epoch reads the last one's children
        elif exact:
            kids = np.empty((P if p in (0.0, 1.0) else 2 * P, n, n))
        else:
            kid_ids, parents, updated = advance_histories(ids, draws[:, i + 1] < p, P)
            kids = np.empty((len(parents), n, n))
        for lo in range(0, P, chunk):
            prior = Sig[lo:lo + chunk]
            hi = lo + len(prior)
            post = gated_posterior(prior, C, V)[1]
            traces[lo:hi] = _batch_traces(post, weight)
            if last:
                continue
            if exact:  # ON children, then OFF ones: the order of the next probs
                if p > 0.0:
                    kids[lo:hi] = predict_covariances(post, Phi, Xi)
                if p < 1.0:
                    off = P if p > 0.0 else 0
                    kids[off + lo:off + hi] = predict_covariances(prior, Phi, Xi)
            else:
                a, b = np.searchsorted(parents, (lo, hi))
                up, at = updated[a:b, None, None], parents[a:b] - lo
                kids[a:b] = predict_covariances(np.where(up, post[at], prior[at]), Phi, Xi)
        del prior, post  # a view of this level would keep it alive into the next
        if exact:
            per[i] = float(probs @ traces)
            if not last and 0.0 < p < 1.0:
                probs = np.outer((p, 1.0 - p), probs).ravel()
        else:
            samples[:, i] = traces[ids]
            if not last:
                ids = kid_ids
        Sig = kids  # the children replace Sig, so no earlier level outlives this epoch
    if exact:
        return per, p * float(per.sum()), 0.0
    totals = p * samples.sum(axis=1)
    se = float(totals.std(ddof=1) / np.sqrt(len(totals)))
    return samples.mean(axis=0), float(totals.mean()), se


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
        regime: "partial-perfect" or "partial-delayed", the schedule's match type.
        config: {method, replications, seed}; method defaults to
            exact-enumeration, which enumerates all ON/OFF histories and is
            guarded at N <= 20.

    Returns:
        EstimationPenalty (standard_error 0 for the exact method).

    Raises:
        ModelValidationError: a schedule of another match type, horizon or
            plant A, B, Q, R ("configuration inconsistencies"), exact
            enumeration requested with N > 20 (use method "monte-carlo"), a
            sweep whose estimate (`_sweep_mib`) exceeds the memory left or
            that runs out of it, a replication count or seed that is not a
            whole number at its lower limit, or an unknown regime/method.
    """
    if regime not in ("partial-perfect", "partial-delayed"):
        raise ModelValidationError(
            [f"estimation penalty applies to partial-observation regimes, got {regime!r}"]
        )
    if not (0.0 <= p <= 1.0):
        raise ModelValidationError([f"p must be in [0, 1], got {p}"])
    # the weights are the schedule's gains under either observation tag
    tag = schedule.regime if regime == _tag("partial", schedule.delay) else regime
    _fit(schedule, tag, schedule.delay, model.N, model)
    cfg = _penalty_config(config)
    N, n, exact = schedule.N, model.state_dim, cfg["method"] == "exact-enumeration"
    if exact and N > EXACT_ENUMERATION_MAX_N:
        raise ModelValidationError(
            [
                f"exact enumeration is limited to N <= {EXACT_ENUMERATION_MAX_N} "
                f"(got N = {N}); use method 'monte-carlo'"
            ]
        )
    step, _, M, epochs = arrival_grid(schedule.delay, N)
    mib, nodes = _sweep_mib(n, model.obs_dim, epochs, p, None if exact else cfg["replications"])
    steps = []
    for j in range(1, epochs):
        t = j * step
        if M == 0:
            weight = schedule.Lambda[t]
        else:  # the arrival-stage control benefit, transported back to stage t
            weight = symmetrize(model.A[t].T @ schedule.P[t + 1] @ model.A[t])
        steps.append((
            model.C[t], model.V_noise[t], weight,
            transition_product(model, t + step, t), window_noise(model, t, t + step),
        ))
    what = "the exact estimation penalty" if exact else "the estimation penalty"
    with _memory_guard(f"N = {N}, n = {n}", what, mib, f" for {nodes} histories"):
        per, total, se = _penalty_sweep(window_noise(model, 0, step), steps, p, cfg)
    stages = [j * step for j in range(1, epochs)]
    if M == 0:  # perfect match also lists stage 0, where x0 is known exactly
        per, stages = np.concatenate([[0.0], per]), [0] + stages
    return EstimationPenalty(
        per_stage=tuple(float(v) for v in per),
        total=float(total),
        method=cfg["method"],
        standard_error=se,
        stages=tuple(stages),
    )
