"""Closed-loop Monte Carlo engine with the causal event ordering.

Per replication and stage: the measurement is generated at the plant, reaches
the controller after the forward delay, the availability chain is sampled on
the controller clock, and a generated control reaches the plant after the
backward delay. With zero delay this collapses into a single stage.

Replications run in blocks of consecutive replications, each block in lock
step on vectorized arrays. Three independent substreams (disturbance,
measurement noise, chain) spawn from the master seed, and every run draws
the same fixed count of variates regardless of regime, so runs with the same
seed share noise realizations (common random numbers across regime or
parameter comparisons).

A block holds max(2, CHUNK_BYTES // (8 N (n + m + 1))) replications, so its
draws (N (n + m + 1) doubles per replication) take at most CHUNK_BYTES and
the working memory of a run does not grow with R; only the totals, and the
traces when recorded, are kept for all R replications. Each block takes its
draws in order from the three substreams, and a numpy generator yields the
same sequence whether it is drawn in one call or in consecutive pieces, so
the draws are exactly those of `noise_streams` for all R at once. Every row
of a block runs the arithmetic it would run in any other block: a one-row
remainder is folded into the block before it, because a one-row matrix
product takes BLAS's matrix-vector path, which rounds differently. Per
replication, totals and traces are bit for bit independent of the blocking,
and mean and standard error are taken once over all R totals.

Under partial observation the intermittent Kalman filter's error covariance
and gain depend on the replication's ON/OFF history alone (the service-gate
history in the delayed regimes), never on the noise. Each replication
therefore carries a history id, and the covariances are computed once per
distinct sampled history node instead of once per replication; each
replication gathers its node's gain for the mean update. Every node runs the
same per-matrix arithmetic the replication would have run on its own, so the
results are bit for bit those of a per-replication filter.

A stage whose running cost total is not finite (an unstable or badly scaled
plant) raises ModelValidationError naming the earliest such stage over all
replications; no NaN or infinite mean is ever returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimation import (
    advance_histories,
    gated_posterior,
    predict_covariances,
    propagate_mean,
    transition_product,
    window_noise,
)
from .model import (
    DelayProfile,
    LinearSystemModel,
    ModelValidationError,
    ReliabilityChain,
    state_vector,
    symmetrize,
)
from .policy import ControllerRegime, check_fits

CHUNK_BYTES = 16 * 2**20  # draws held per replication block (module docstring)


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, seeding, and recording options."""

    replications: int
    master_seed: int = 0
    record_traces: bool = False

    def __post_init__(self):
        violations = []
        if int(self.replications) < 1:
            violations.append(f"replications must be >= 1, got {self.replications}")
        if int(self.master_seed) < 0:
            violations.append("master_seed must be a nonnegative integer")
        if violations:
            raise ModelValidationError(violations)


@dataclass(frozen=True)
class SimulationBatch:
    """Replication-major arrays recorded by a simulation run.

    x has N+1 stage slots (terminal state included); u, tau and x_hat have N.
    stage_cost's final column is the terminal cost. x_hat rows are NaN at
    stages where the controller held no estimate.
    """

    x: np.ndarray
    u: np.ndarray
    tau: np.ndarray
    stage_cost: np.ndarray
    totals: np.ndarray
    x_hat: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None

    @property
    def replications(self) -> int:
        return self.x.shape[0]

    @property
    def N(self) -> int:
        return self.x.shape[1] - 1

    def to_csv(self, fh) -> None:
        """Write `rep,k,tau,x...,u...,xhat...,cost_stage` rows.

        The estimate columns appear only when an estimator was active. The
        terminal row of each replication leaves tau, u (and xhat) empty.
        """
        n = self.x.shape[2]
        s = self.u.shape[2]
        with_xhat = self.x_hat is not None
        header = ["rep", "k", "tau"]
        header += [f"x{i}" for i in range(n)]
        header += [f"u{i}" for i in range(s)]
        if with_xhat:
            header += [f"xhat{i}" for i in range(n)]
        header.append("cost_stage")
        N = self.N
        x, u, tau, cost = (a.tolist() for a in (self.x, self.u, self.tau, self.stage_cost))
        no_xhat = [""] * n if with_xhat else []
        if with_xhat:
            x_hat = self.x_hat.tolist()
            held = (~np.isnan(self.x_hat).any(axis=2)).tolist()
        lines = [",".join(header)]
        for r in range(self.replications):
            for k in range(N):
                row = [str(r), str(k), str(tau[r][k]), *map(repr, x[r][k]), *map(repr, u[r][k])]
                if with_xhat:
                    row += map(repr, x_hat[r][k]) if held[r][k] else no_xhat
                row.append(repr(cost[r][k]))
                lines.append(",".join(row))
            row = [str(r), str(N), "", *map(repr, x[r][N]), *[""] * s, *no_xhat, repr(cost[r][N])]
            lines.append(",".join(row))
        lines.append("")
        fh.write("\n".join(lines))


# ---------------------------------------------------------------------------
# Noise plumbing
# ---------------------------------------------------------------------------

def psd_sqrt(X: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix (eigenvalues clipped at zero)."""
    vals, vecs = np.linalg.eigh(symmetrize(X))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _substreams(master_seed: int) -> list:
    """Disturbance, measurement-noise and chain generators of a master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(int(master_seed)).spawn(3)]


def _draw(streams, R: int, N: int, n: int, m: int):
    """The next R replications' draws, taken in order from each substream."""
    g_w, g_v, g_tau = streams
    return g_w.standard_normal((R, N, n)), g_v.standard_normal((R, N, m)), g_tau.random((R, N))


def noise_streams(master_seed: int, R: int, N: int, n: int, m: int):
    """Standard-normal and uniform draws from three spawned substreams.

    The draw counts depend only on (R, N, n, m), never on the regime, so two
    runs with the same seed see identical realizations.
    """
    return _draw(_substreams(master_seed), R, N, n, m)


def sample_tau(chain: ReliabilityChain, chain_u: np.ndarray) -> np.ndarray:
    """ON/OFF paths from pre-drawn uniforms, one column per stage."""
    R, N = chain_u.shape
    tau = np.empty((R, N), dtype=np.int8)
    tau[:, 0] = chain_u[:, 0] < chain.tau0_distribution()[1]  # uniforms lie in [0, 1)
    p, q = chain.p, chain.q
    for k in range(1, N):
        tau[:, k] = np.where(tau[:, k - 1] == 1, chain_u[:, k] < p, chain_u[:, k] < 1.0 - q)
    return tau


def _blocks(R: int, rows: int) -> list:
    """(start, stop) of consecutive blocks of `rows` replications.

    A one-row remainder joins the block before it (see the module docstring).
    """
    starts = list(range(0, R, rows))
    if len(starts) > 1 and R - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [R]))


def _quad_rows(x: np.ndarray, Qmat: np.ndarray) -> np.ndarray:
    return np.einsum("ri,ri->r", x @ Qmat, x)


def _filter_update(ids, Sg, xh, gate, z, C, V):
    """Measurement update of the gated rows, covariances per history node.

    ids maps each replication to its covariance node in Sg. Posteriors are
    computed once per node that takes an update; each gated row then
    gathers its node's gain for the mean update. Returns the new (ids, Sg);
    xh is updated in place.
    """
    ids, parents, updated = advance_histories(ids, gate, len(Sg))
    Sg = Sg[parents]
    if updated.any():
        gain, post = gated_posterior(Sg[updated], C, V)
        Sg[updated] = post
        row_gain = gain[np.cumsum(updated)[ids[gate]] - 1]
        innovation = (z - xh @ C.T)[gate]  # whole block: no one-row product
        xh[gate] += np.einsum("pnm,pm->pn", row_gain, innovation)
    return ids, Sg


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def run(
    model: LinearSystemModel,
    chain: ReliabilityChain,
    delay: Optional[DelayProfile],
    regime: ControllerRegime,
    config: SimulationConfig,
    x0: Optional[np.ndarray] = None,
) -> dict:
    """Simulate the closed loop and return empirical cost statistics.

    Args:
        model: the true plant (its drift, if any, acts on the plant; whether
            the controller also sees it is the regime's compensate_drift).
        chain: availability process, sampled on the controller clock.
        delay: transport delay; None or M = 0 for perfect match.
        regime: controller (observation mode, gains, delay, drift handling).
        config: replications, master seed, recording options.
        x0: known initial state (zeros when omitted).

    Returns:
        dict with mean_cost, std_error, and traces (a SimulationBatch when
        config.record_traces, else None).
    """
    N, n, s, m = model.N, model.state_dim, model.control_dim, model.obs_dim
    delay = check_fits(regime, model, delay)
    x0 = state_vector(x0, n)
    R = int(config.replications)

    ctrl_model = model if regime.compensate_drift else model.without_drift()
    partial = regime.observation == "partial"
    body = _run_perfect if delay is None else _run_delayed

    totals = np.zeros(R)
    record = None
    if config.record_traces:
        record = {
            "x": np.empty((R, N + 1, n)),
            "u": np.empty((R, N, s)),
            "tau": np.empty((R, N), dtype=np.int8),
            "stage_cost": np.empty((R, N + 1)),
        }
        if partial:
            record["x_hat"] = np.full((R, N, n), np.nan)
            record["z"] = np.full((R, N, m), np.nan)

    streams = _substreams(config.master_seed)
    rows = max(2, CHUNK_BYTES // (8 * N * (n + m + 1)))
    first_bad = None
    for lo, hi in _blocks(R, rows):
        w_eps, v_eps, chain_u = _draw(streams, hi - lo, N, n, m)
        tau = sample_tau(chain, chain_u)
        block_record = None
        if record is not None:
            block_record = {name: arr[lo:hi] for name, arr in record.items()}
            block_record["tau"][:] = tau
        bad = body(model, ctrl_model, regime, tau, w_eps, v_eps, x0, totals[lo:hi], block_record)
        if bad is not None and (first_bad is None or bad < first_bad):
            first_bad = bad
        del w_eps, v_eps, chain_u  # freed before the next block draws
    if first_bad is not None:
        raise ModelValidationError(
            [f"non-finite simulated cost at stage {first_bad}: the plant is unstable "
             "or badly scaled for this horizon"]
        )

    mean_cost = float(totals.mean())
    std_error = float(totals.std(ddof=1) / np.sqrt(R)) if R > 1 else 0.0
    traces = None if record is None else SimulationBatch(totals=totals, **record)
    return {"mean_cost": mean_cost, "std_error": std_error, "traces": traces}


# Each block body advances one block of replications through all stages. It
# accumulates into `totals` and writes the traces into `record` (views of the
# run's arrays, or None), and returns the first stage whose running total is
# not finite, stopping there, or None.

def _run_perfect(model, ctrl_model, regime, tau, w_eps, v_eps, x0, totals, record):
    N, n = model.N, model.state_dim
    R = tau.shape[0]
    gains = regime.gains
    partial = regime.observation == "partial"
    Lw = [psd_sqrt(model.W[k]) for k in range(N)]
    Lv = [psd_sqrt(model.V_noise[k]) for k in range(N)] if partial else None

    x = np.broadcast_to(x0, (R, n)).copy()
    if partial:
        xh = np.broadcast_to(x0, (R, n)).copy()
        ids = np.zeros(R, dtype=np.intp)  # history node of each replication
        Sg = np.zeros((1, n, n))          # prior covariance per history node

    for k in range(N):
        on = tau[:, k] == 1
        if partial:
            z = x @ model.C[k].T + v_eps[:, k] @ Lv[k].T
            ids, Sg = _filter_update(ids, Sg, xh, on, z, model.C[k], model.V_noise[k])
            u = -(xh @ gains.V[k].T)
        else:
            u = -(x @ gains.V[k].T)
        u[~on] = 0.0
        if partial and record is not None:
            record["x_hat"][:, k] = xh
            record["z"][:, k] = z
        x = _stage(model, k, x, u, w_eps[:, k] @ Lw[k].T, totals, record)
        if x is None:
            return k
        if partial:
            xh = xh @ model.A[k].T + u @ model.B[k].T + ctrl_model.drift_at(k)
            Sg = predict_covariances(Sg, model.A[k], model.W[k])
    return _finish(model, x, totals, record)


def _stage(model, k, x, u, w, totals, record):
    """Charge stage k's cost, record the stage and step the plant with disturbance w.

    Returns the next state, or None when a running total is not finite.
    """
    g = _quad_rows(x, model.Q[k]) + _quad_rows(u, model.R[k])
    totals += g
    if not np.isfinite(totals).all():
        return None
    if record is not None:
        record["x"][:, k] = x
        record["u"][:, k] = u
        record["stage_cost"][:, k] = g
    return x @ model.A[k].T + u @ model.B[k].T + (model.drift_at(k) + w)


def _finish(model, x, totals, record):
    """Add the terminal cost: returns N if a total is then not finite, else None."""
    g_term = _quad_rows(x, model.Q[model.N])
    totals += g_term
    if not np.isfinite(totals).all():
        return model.N
    if record is not None:
        record["x"][:, model.N] = x
        record["stage_cost"][:, model.N] = g_term
    return None


def _run_delayed(model, ctrl_model, regime, tau, w_eps, v_eps, x0, totals, record):
    N, n, s = model.N, model.state_dim, model.control_dim
    R = tau.shape[0]
    gains = regime.gains
    partial = regime.observation == "partial"
    delay = regime.delay.bound_to(N)
    M, M_F, c = delay.M, delay.M_F, delay.c
    Lw = [psd_sqrt(model.W[k]) for k in range(N)]
    Lv = [psd_sqrt(model.V_noise[k]) for k in range(N)] if partial else None
    services = {j * M + M_F: j for j in range(c)}

    x = np.broadcast_to(x0, (R, n)).copy()
    saved = {}     # epoch j -> state (full) or measurement (partial) at stage jM
    arrivals = {}  # arrival stage -> control applied there; other stages apply zero
    zero = np.zeros((R, s))
    if partial:
        xh_b = np.broadcast_to(x0, (R, n)).copy()   # boundary estimate
        ids = np.zeros(R, dtype=np.intp)            # gate-history node per replication
        Sg_b = np.zeros((1, n, n))                  # boundary covariance per node

    for k in range(N):
        j_b = k // M
        if k % M == 0 and j_b < c:
            if partial:
                zb = x @ model.C[k].T + v_eps[:, k] @ Lv[k].T
                saved[j_b] = zb
                if record is not None:
                    record["z"][:, k] = zb
            else:
                saved[j_b] = x.copy()
        if k in services:
            j = services[k]
            t0, t1 = j * M, (j + 1) * M
            gate = tau[:, k] == 1
            u_win = arrivals.get(t0, zero)
            if partial:
                if j >= 1:
                    u_prev = arrivals.get(t0 - M, zero)
                    xh_b = propagate_mean(ctrl_model, xh_b, u_prev, (j - 1) * M, t0)
                    Phi_w = transition_product(model, t0, (j - 1) * M)
                    Xi_w = window_noise(model, (j - 1) * M, t0)
                    Sg_b = predict_covariances(Sg_b, Phi_w, Xi_w)
                    ids, Sg_b = _filter_update(
                        ids, Sg_b, xh_b, gate, saved[j], model.C[t0], model.V_noise[t0]
                    )
                if record is not None:
                    record["x_hat"][:, t0] = xh_b
                mean = propagate_mean(ctrl_model, xh_b, u_win, t0, t1)
            else:
                mean = propagate_mean(ctrl_model, saved[j], u_win, t0, t1)
            u_new = -(mean @ gains.V[t1].T)
            u_new[~gate] = 0.0
            arrivals[t1] = u_new
        x = _stage(model, k, x, arrivals.get(k, zero), w_eps[:, k] @ Lw[k].T, totals, record)
        if x is None:
            return k
    return _finish(model, x, totals, record)


def tracking_metrics(batch: SimulationBatch, alpha: float) -> dict:
    """Tracking-quality summary for the planar error-state layout.

    Returns the RMS (over stages and replications) of the position error
    norm, the mean total control-plus-velocity energy, and the maximum
    position deviation. Also reports the mean squared position error with
    its standard error, which is what statistical comparisons should use.

    Raises:
        ModelValidationError: unless the state is 4-dimensional (position
            error stacked on velocity) with 2-dimensional control.
    """
    if batch.x.shape[2] != 4 or batch.u.shape[2] != 2:
        raise ModelValidationError(
            ["tracking metrics require the planar error-state layout (4-dim state, 2-dim control)"]
        )
    e2 = batch.x[:, :, 0] ** 2 + batch.x[:, :, 1] ** 2
    mse_rep = e2.mean(axis=1)
    R = mse_rep.shape[0]
    mse = float(mse_rep.mean())
    mse_se = float(mse_rep.std(ddof=1) / np.sqrt(R)) if R > 1 else 0.0
    v2 = (batch.x[:, :, 2] ** 2 + batch.x[:, :, 3] ** 2).sum(axis=1)
    u2 = (batch.u[:, :, 0] ** 2 + batch.u[:, :, 1] ** 2).sum(axis=1)
    energy_rep = alpha * (v2 + u2)
    return {
        "rms_position_error": float(np.sqrt(mse)),
        "mean_control_energy": float(energy_rep.mean()),
        "max_deviation": float(np.sqrt(e2.max())),
        "mse_position_error": mse,
        "mse_std_error": mse_se,
    }
