"""Closed-loop Monte Carlo engine on the controller's epoch grid.

Per replication and stage: the measurement is generated at the plant, reaches
the controller after the forward delay, the availability chain is sampled on
the controller clock, and a generated control reaches the plant after the
backward delay. Every regime runs through one block body on the grid of
`model.arrival_grid`: epoch j starts at stage j step, is served at
j step + M_F, and its gated control arrives at j step + M; other stages
apply zero control. Perfect match is the M = 0 grid, each stage an epoch
served and acted on at once.

The body computes each epoch once, at its start stage j step, rather than at
its service. Nothing the epoch reads changes between the two: the state (or,
under partial observation, the measurement) at j step, the control arriving
at j step, which the previous epoch computed at its own start, the estimate
the previous epoch left, and the service gate at j step + M_F, sampled for
the whole block before the block runs. The control is thus the one computed
at service, bit for bit. Each arrival is dropped when it is applied, so the
body's memory does not grow with N. The two
independent checks of this loop, `drone._simulate_raw_kinematics` and the
tests' per-replication reference, stay causal and serve each epoch at
j step + M_F.

Replications run in blocks of consecutive replications, each block in lock
step on vectorized arrays. Every per-replication array of a block is
state-major, one column per replication: x and the estimate are (n, rows),
u (s, rows), a measurement (m, rows), and so are the scaled noise and the
pending arrivals. A stage is thus one wide product per matrix,
A x + B u + w, the control -(V x_hat) with the OFF columns zeroed, and the
stage cost (Q x * x) summed down each column.

Three independent substreams (disturbance, measurement noise, chain) spawn
from the master seed, so runs with the same seed share noise realizations
(common random numbers across regime or parameter comparisons). A run
draws the measurement noise only when a regime observes partially: full
observation never reads it, and leaving its substream undrawn changes no
other draw.

`sweep` runs several points (chain, delay, regime) on one plant, seed and
R; `run` is its one-point case. Each block is drawn once and scaled in
place, the disturbance at every stage (drift added) and, when any point
observes partially, the measurement noise at every stage; every point runs
on that one copy in turn. A sweep thus pays for its noise once, and each
point's results are bit for bit those of its own `run`.

A block holds max(2, CHUNK_BYTES // (8 N (n + m + 1))) replications, so its
draws (at most N (n + m + 1) doubles per replication) take at most
CHUNK_BYTES. Each block's draws are arrays of its own, allocated on the
calling thread and filled on one worker thread: block b + 1's fill runs
while block b runs on the calling thread, and block b's arrays are dropped
before block b + 2's are allocated, so at most two blocks' draws are alive.
The arrays are state-major too, (N, dim, rows), so that each stage's draws
for the block are one contiguous (dim, rows) slab. A generator fills only
contiguous arrays, so the fill draws short runs of replications into a
scratch of FILL_BYTES (one replication, if one is larger) and copies each
run transposed into the slabs. The draws thus take at most 2 CHUNK_BYTES
and that scratch, and the working memory of a run does not grow with R.
When a sweep streams the tracking metrics, the block's x and u traces
count towards the budget too, and are reduced to three per-replication
numbers before the next block; only the totals, those numbers, and the
traces when recorded, are kept for all R replications.

Each block takes its draws in order from the three substreams, and a numpy
generator yields the same sequence whether it is drawn in one call or in
consecutive pieces, into a new array or into a given one, so the draws are
exactly those of `noise_streams` for all R at once, in its (replication,
stage, component) order. Every column of a block runs the arithmetic it
would run in any other block. A matrix-matrix product rounds each column
alike wherever it sits, but numpy sends a product with a one-row left
matrix (the gain V when s = 1, C when m = 1, a noise root when n = 1) or
with a one-column right block down its matrix-vector path, which rounds
unlike the matrix-matrix product, and for a one-row matrix rounds a
column by its position in the block. So `column_product` applies a
one-row matrix as an elementwise product summed down the columns, and a
one-replication remainder is folded into the block before it. The
quadratic costs, too, are sums down each column in a fixed order. Per
replication, totals, traces and tracking reductions are bit for bit
independent of the blocking, and means and standard errors are taken once
over all R values.

Under partial observation the intermittent Kalman filter runs on the epoch
boundaries: the boundary estimate is propagated over one grid step, and the
epoch's measurement updates it through the epoch's service gate (stage 0
needs no update, x0 being known). With a delay, the prediction an epoch
makes over its M = step stages is the next epoch's prior mean, so it is
computed once. The filter's error covariance and gain depend on the
replication's service-gate history alone, never on the noise. Each
replication therefore carries a history id, and the covariances are computed once per
distinct sampled history node instead of once per replication. The gains
form a table (n, m, nodes), zero where a node took no update, and each
column gathers its node's gain along the node axis for the mean update,
so the update runs on the whole block without a mask or a per-replication
gain stack. Every node runs the same per-matrix arithmetic the replication
would have run on its own, so the results are bit for bit those of a
per-replication filter.

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
    column_product,
    drift_column,
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
    _memory_guard,
    _whole,
    arrival_grid,
    state_vector,
    symmetrize,
)
from .policy import ControllerRegime, check_fits

CHUNK_BYTES = 8 * 2**20  # per block; two blocks' draws are held at once (module docstring)
FILL_BYTES = 32 * 2**10  # scratch of one run of replications in a state-major fill (`_draw`)


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, seeding, and recording options."""

    replications: int
    master_seed: int = 0
    record_traces: bool = False

    def __post_init__(self):
        for name, low in (("replications", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), low))
        if not isinstance(self.record_traces, bool):
            raise ModelValidationError(
                [f"record_traces must be True or False, got {self.record_traces!r}"]
            )


@dataclass(frozen=True)
class SimulationBatch:
    """Replication-major arrays recorded by a simulation run.

    x has N+1 stage slots (terminal state included); u, tau and x_hat have N.
    stage_cost's final column is the terminal cost. x_hat, recorded under
    partial observation only, is NaN at stages where the controller held no
    estimate. These are the columns `to_csv` writes.
    """

    x: np.ndarray
    u: np.ndarray
    tau: np.ndarray
    stage_cost: np.ndarray
    totals: np.ndarray
    x_hat: Optional[np.ndarray] = None

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
        Rows are formatted and written one replication at a time.
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
        fh.write(",".join(header) + "\n")
        N = self.N
        no_xhat = [""] * n if with_xhat else []
        for r in range(self.replications):
            x, u, tau, cost = (a[r].tolist() for a in (self.x, self.u, self.tau, self.stage_cost))
            if with_xhat:
                x_hat = self.x_hat[r].tolist()
                held = (~np.isnan(self.x_hat[r]).any(axis=1)).tolist()
            lines = []
            for k in range(N):
                row = [str(r), str(k), str(tau[k]), *map(repr, x[k]), *map(repr, u[k])]
                if with_xhat:
                    row += map(repr, x_hat[k]) if held[k] else no_xhat
                row.append(repr(cost[k]))
                lines.append(",".join(row))
            lines.append(",".join(
                [str(r), str(N), "", *map(repr, x[N]), *[""] * s, *no_xhat, repr(cost[N])]
            ))
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


def _draw(streams, out):
    """Fill out = (w, v, u) in place with the next draws, taken in order from each substream.

    Each array is laid out (replications, ...), as `noise_streams` draws
    it. A fill into `out=` yields the same sequence as a draw of that size.
    A generator fills only a contiguous array, so a strided one (`_fill`'s
    view of a block's state-major draws) is filled in runs of whole
    replications, each drawn into a scratch of FILL_BYTES (one replication,
    if one is larger) and copied into place.
    """
    g_w, g_v, g_tau = streams
    for fill, arr in zip((g_w.standard_normal, g_v.standard_normal, g_tau.random), out):
        if arr.flags.c_contiguous:
            fill(out=arr)
            continue
        run = max(1, FILL_BYTES // arr[0].nbytes)
        scratch = np.empty((min(run, len(arr)),) + arr.shape[1:])
        for lo in range(0, len(arr), run):
            part = scratch[:len(arr) - lo]
            fill(out=part)
            arr[lo:lo + len(part)] = part
    return out


def noise_streams(master_seed: int, R: int, N: int, n: int, m: int):
    """Standard-normal and uniform draws from three spawned substreams.

    The draw counts depend only on (R, N, n, m), never on the regime, so two
    runs with the same seed see identical realizations.
    """
    out = np.empty((R, N, n)), np.empty((R, N, m)), np.empty((R, N))
    return _draw(_substreams(master_seed), out)


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

    A one-replication remainder joins the block before it (see the module docstring).
    """
    starts = list(range(0, R, rows))
    if len(starts) > 1 and R - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [R]))


def _fill(streams, draws):
    """Fill a block's draws in place, in the order of `noise_streams`, and return them.

    draws are state-major, (N, dim, rows) and (N, rows) for the chain's
    uniforms, so that the block's draws at one stage are one contiguous
    (dim, rows) slab. `_draw` fills their (replication, stage, component)
    views through its scratch, in short runs of replications, each copied
    transposed into the slabs. `sweep` runs it on its worker thread: the
    generator fills and those copies release the interpreter lock, and the
    scaling and every matrix product stay on the calling thread.
    """
    _draw(streams, [a.transpose(-1, *range(a.ndim - 1)) for a in draws])
    return draws


def _quad_columns(x: np.ndarray, Qmat: np.ndarray) -> np.ndarray:
    """x_r' Q x_r of each column, summed down the column in a fixed order."""
    return (column_product(Qmat, x) * x).sum(axis=0)


def _filter_update(ids, Sg, xh, gate, z, C, V):
    """Measurement update of the gated columns, covariances per history node.

    ids maps each replication to its covariance node in Sg; xh is (n, R)
    and z (m, R). Posteriors are computed once per node that takes an
    update, into a gain table (n, m, nodes) whose other nodes' entries are
    zero. Every column gathers its node's gain along the node axis, one
    measurement component at a time, and the m products are added in
    component order into one temporary that is added to xh once. (An
    einsum over m is no substitute: for m >= 3 its summation order depends
    on the operands' memory alignment.) The update thus runs on the whole
    block without a mask: an ungated column
    adds +0.0, which leaves every estimate but a -0.0 as it was, and a
    gated column runs the arithmetic of its own update. Returns the new
    (ids, Sg); xh is updated in place.
    """
    ids, parents, updated = advance_histories(ids, gate, len(Sg))
    # np.take gathers these rows two to three times faster than fancy indexing
    Sg = np.take(Sg, parents, axis=0)
    nodes = np.flatnonzero(updated)
    if len(nodes):
        node_gain, Sg[nodes] = gated_posterior(np.take(Sg, nodes, axis=0), C, V)
        # allocated after the posteriors, whose temporaries set the update's peak
        gain = np.zeros(C.T.shape + (len(Sg),))
        gain[:, :, nodes] = node_gain.transpose(1, 2, 0)
        innovation = z - column_product(C, xh)
        step = np.take(gain[:, 0], ids, axis=1) * innovation[0]
        for j in range(1, len(C)):
            step += np.take(gain[:, j], ids, axis=1) * innovation[j]
        xh += step
    return ids, Sg


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@dataclass
class _PointRun:
    """One sweep point's controller and its accumulators over all R replications."""

    chain: ReliabilityChain
    regime: ControllerRegime
    ctrl_model: LinearSystemModel
    totals: np.ndarray
    record: Optional[dict]
    mse: Optional[np.ndarray] = None     # per replication, when tracking metrics are asked
    energy: Optional[np.ndarray] = None  # per replication, likewise
    e2_max: float = -np.inf
    first_bad: Optional[int] = None


def _block_rows(model: LinearSystemModel, streamed: bool) -> int:
    """Replications per block (module docstring).

    A block's draws take 8 N (n + m + 1) bytes per replication, counting the
    measurement noise whether it is drawn or not; streamed tracking metrics
    add the block's x and u traces, 8 ((N + 1) n + N s) bytes.
    """
    N, n, s, m = model.N, model.state_dim, model.control_dim, model.obs_dim
    per_rep = 8 * N * (n + m + 1)
    if streamed:
        per_rep += 8 * ((N + 1) * n + N * s)
    return max(2, CHUNK_BYTES // per_rep)


def _kept_bytes(model: LinearSystemModel, partial: bool, record: bool, tracking: bool) -> int:
    """Bytes a point keeps per replication for the whole run: its total, its
    two tracking reductions when asked, and its traces (`_trace_arrays`) when recorded."""
    N, n, s = model.N, model.state_dim, model.control_dim
    kept = 8 * (1 + 2 * tracking)
    if record:
        kept += 8 * ((N + 1) * (n + 1) + N * s + N * n * partial) + N
    return kept


def _trace_arrays(model: LinearSystemModel, R: int, partial: bool) -> dict:
    """Trace arrays for R replications, laid out as SimulationBatch's fields."""
    N, n, s = model.N, model.state_dim, model.control_dim
    arrays = {
        "x": np.empty((R, N + 1, n)),
        "u": np.empty((R, N, s)),
        "tau": np.empty((R, N), dtype=np.int8),
        "stage_cost": np.empty((R, N + 1)),
    }
    if partial:
        arrays["x_hat"] = np.full((R, N, n), np.nan)
    return arrays


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
    return sweep(model, [(chain, delay, regime)], config, x0)[0]


def sweep(
    model: LinearSystemModel,
    points,
    config: SimulationConfig,
    x0: Optional[np.ndarray] = None,
    alpha: Optional[float] = None,
) -> list:
    """Simulate several (chain, delay, regime) points on one pass of draws.

    The points share the plant, seed, replication count and x0, so each
    block is drawn once and every point runs on those draws in turn: the
    common random numbers of the module docstring, drawn once rather than
    once per point. Each point's results are those `run` returns for it
    alone, bit for bit. The measurement noise is drawn and scaled at every
    stage when any point observes partially, and not drawn otherwise. No
    points, no draws: an empty list returns [].

    Args:
        model, config, x0: as for `run`; record_traces keeps every point's traces.
        points: (chain, delay, regime) triples, as `run` takes them.
        alpha: when given, each result also carries "tracking", the
            `tracking_metrics` of the point at this weight, reduced block by
            block so that no trace outlives its block.

    Returns:
        one `run` result dict per point, in order.
    """
    N, n, s, m = model.N, model.state_dim, model.control_dim, model.obs_dim
    for _, delay, regime in points:
        check_fits(regime, model, delay)
    x0 = state_vector(x0, n)
    R = int(config.replications)
    if alpha is not None:
        _check_tracking_layout(n, s)
    if not points:
        return []
    partial = any(regime.observation == "partial" for _, _, regime in points)

    runs = []
    where, what = f"R = {R}", "keeping the per-replication results"
    # every point's kept arrays, and the one temporary of a standard error
    mib = R * (8 + sum(_kept_bytes(model, regime.observation == "partial",
                                   config.record_traces, alpha is not None)
                       for _, _, regime in points)) / 2**20
    with _memory_guard(where, what, mib):
        for chain, _, regime in points:
            pt = _PointRun(
                chain=chain, regime=regime,
                ctrl_model=model if regime.compensate_drift else model.without_drift(),
                totals=np.zeros(R),
                record=(_trace_arrays(model, R, regime.observation == "partial")
                        if config.record_traces else None),
            )
            if alpha is not None:
                pt.mse, pt.energy = np.empty(R), np.empty(R)
            runs.append(pt)
    streamed = alpha is not None and not config.record_traces
    blocks = _blocks(R, _block_rows(model, streamed))
    streams = _substreams(config.master_seed)
    # full observation reads no measurement noise: its substream stays undrawn
    shapes = ((N, n), (N, m if partial else 0), (N,))
    Lw = [psd_sqrt(model.W[k]) for k in range(N)]
    Lv = [psd_sqrt(model.V_noise[k]) for k in range(N)] if partial else []

    # imported here: concurrent.futures loads logging, which a module-level
    # import would add to every `import fogctl`
    from concurrent.futures import ThreadPoolExecutor

    # One worker fills block b + 1's draws while block b runs here.
    # result() raises a fill's error here, and leaving the `with` joins the
    # worker. A block's arrays are allocated on this thread, not in the
    # fill: arrays the worker allocates come from its own malloc arena,
    # which raised the peak RSS.
    with ThreadPoolExecutor(max_workers=1) as worker:
        def fill_ahead(lo, hi):
            draws = [np.empty(shape + (hi - lo,)) for shape in shapes]
            return worker.submit(_fill, streams, draws)

        ahead = fill_ahead(*blocks[0])
        for b, (lo, hi) in enumerate(blocks):
            w, v, chain_u = ahead.result()
            if b + 1 < len(blocks):
                ahead = fill_ahead(*blocks[b + 1])
            # scaled in place, once for every point
            for k in range(N):
                np.add(column_product(Lw[k], w[k]), drift_column(model, k), out=w[k])
            for k, L in enumerate(Lv):
                v[k] = column_product(L, v[k])
            taus = {}
            # streamed, the block's x and u traces, laid out as the block's
            # arrays so that each stage's write is one slab; recorded, each
            # point's own block of traces
            record = {}
            if streamed:
                record = {"x": np.empty((N + 1, n, hi - lo)), "u": np.empty((N, s, hi - lo))}
            for pt in runs:
                if pt.chain not in taus:
                    taus[pt.chain] = sample_tau(pt.chain, chain_u.T)
                # transposes, not np.moveaxis: a process's first thousand or so
                # moveaxis calls grow free lists by about 100 KB, which a traced
                # peak counts
                if pt.record is not None:
                    pt.record["tau"][lo:hi] = taus[pt.chain]
                    record = {name: arr[lo:hi].transpose(*range(1, arr.ndim), 0)
                              for name, arr in pt.record.items()}
                bad = _run_block(model, pt.ctrl_model, pt.regime, taus[pt.chain], w, v, x0,
                                 pt.totals[lo:hi], record)
                if bad is not None:
                    pt.first_bad = bad if pt.first_bad is None else min(pt.first_bad, bad)
                elif alpha is not None:
                    pt.mse[lo:hi], pt.energy[lo:hi], e2_max = _tracking_rows(
                        record["x"].transpose(2, 0, 1), record["u"].transpose(2, 0, 1), alpha
                    )
                    pt.e2_max = max(pt.e2_max, e2_max)
            # dropped before the next block's arrays are allocated: at most
            # two blocks' draws are alive
            del w, v, chain_u, taus, record
    # the last block's draws, freed before the reductions below, whose
    # temporaries grow with R
    del ahead

    results = []
    for pt in runs:
        if pt.first_bad is not None:
            raise ModelValidationError(
                [f"non-finite simulated cost at stage {pt.first_bad}: the plant is unstable "
                 "or badly scaled for this horizon"]
            )
        with _memory_guard(where, what, 8 * R / 2**20):  # the kept arrays are allocated
            res = {
                "mean_cost": float(pt.totals.mean()),
                "std_error": float(pt.totals.std(ddof=1) / np.sqrt(R)) if R > 1 else 0.0,
                "traces": (None if pt.record is None
                           else SimulationBatch(totals=pt.totals, **pt.record)),
            }
            if alpha is not None:
                res["tracking"] = _tracking_summary(pt.mse, pt.energy, pt.e2_max)
        results.append(res)
    return results


def _run_block(model, ctrl_model, regime, tau, w, v, x0, totals, record):
    """Advance one block of replications through all stages on the arrival grid.

    Each epoch is computed at its start stage k, with its service gate
    tau[:, k + M_F] (module docstring); its control waits in `arrivals`
    until the stage it arrives at applies it. Every per-replication array
    is state-major, one column per replication: x and x_hat are (n, rows),
    u is (s, rows). w[k] is the block's disturbance at stage k (drift
    included) and v[k] its measurement noise, both scaled and laid out the
    same way; tau is (rows, N). Accumulates into `totals` and writes each
    trace that `record` holds (a subset of SimulationBatch's trace fields,
    each laid out stage first and replication last). Returns the first
    stage whose running total is not finite, stopping there, or None.
    """
    N, n, s = model.N, model.state_dim, model.control_dim
    R = tau.shape[0]
    gains = regime.gains
    partial = regime.observation == "partial"
    step, M_F, M, epochs = arrival_grid(regime.delay, N)

    x = np.broadcast_to(x0[:, None], (n, R)).copy()
    arrivals = {}  # arrival stage -> control, until applied; other stages apply zero
    zero = np.zeros((s, R)) if M else None  # perfect match has an arrival at every stage
    if partial:
        xh_b = x.copy()                             # boundary estimate, x0 at stage 0
        ids = np.zeros(R, dtype=np.intp)            # gate-history node per replication
        Sg_b = np.zeros((1, n, n))                  # boundary covariance per node

    for k in range(N):
        j, phase = divmod(k, step)
        if phase == 0 and j < epochs:
            gate = tau[:, k + M_F] == 1
            if partial:
                if j >= 1:  # the estimate at stage 0 is x0 exactly
                    Phi_w = transition_product(model, k, k - step)
                    Xi_w = window_noise(model, k - step, k)
                    Sg_b = predict_covariances(Sg_b, Phi_w, Xi_w)
                    z = column_product(model.C[k], x) + v[k]
                    ids, Sg_b = _filter_update(
                        ids, Sg_b, xh_b, gate, z, model.C[k], model.V_noise[k]
                    )
                _keep(record, k, x_hat=xh_b)
            base = xh_b if partial else x
            base = propagate_mean(ctrl_model, base, arrivals.get(k, zero), k, k + M)
            u_new = -column_product(gains.V[k + M], base)
            u_new[:, ~gate] = 0.0
            arrivals[k + M] = u_new
            if partial:  # the next epoch's prior mean
                xh_b = base if M else propagate_mean(ctrl_model, xh_b, u_new, k, k + 1)
            del base  # under perfect match the posterior: not kept through the next update
        u = arrivals.pop(k, zero)
        g = _quad_columns(x, model.Q[k]) + _quad_columns(u, model.R[k])
        totals += g
        if not np.isfinite(totals).all():
            return k
        _keep(record, k, x=x, u=u, stage_cost=g)
        x = column_product(model.A[k], x) + column_product(model.B[k], u) + w[k]
    g_term = _quad_columns(x, model.Q[N])
    totals += g_term
    if not np.isfinite(totals).all():
        return N
    _keep(record, N, x=x, stage_cost=g_term)
    return None


def _keep(record: dict, k: int, **traces) -> None:
    """Write stage k of each of these traces that the record holds."""
    for name, value in traces.items():
        if name in record:
            record[name][k] = value


# ---------------------------------------------------------------------------
# Tracking metrics
# ---------------------------------------------------------------------------

def _check_tracking_layout(n: int, s: int) -> None:
    if n != 4 or s != 2:
        raise ModelValidationError(
            ["tracking metrics require the planar error-state layout (4-dim state, 2-dim control)"]
        )


def _tracking_rows(x: np.ndarray, u: np.ndarray, alpha: float):
    """Per-replication reductions of trace rows x (R, N+1, 4) and u (R, N, 2).

    Returns the mean squared position error and alpha times the velocity
    plus control energy of each row, and the largest squared position
    error. Each row reduces on its own, so the result for a row is the same
    in any block of rows. The squared sums are laid out row-major whatever
    the layout of x and u, so each row also reduces in the same order.
    """
    e2 = np.add(x[:, :, 0] ** 2, x[:, :, 1] ** 2, order="C")
    v2 = np.add(x[:, :, 2] ** 2, x[:, :, 3] ** 2, order="C").sum(axis=1)
    u2 = np.add(u[:, :, 0] ** 2, u[:, :, 1] ** 2, order="C").sum(axis=1)
    return e2.mean(axis=1), alpha * (v2 + u2), e2.max()


def _tracking_summary(mse_rep: np.ndarray, energy_rep: np.ndarray, e2_max) -> dict:
    R = mse_rep.shape[0]
    mse = float(mse_rep.mean())
    mse_se = float(mse_rep.std(ddof=1) / np.sqrt(R)) if R > 1 else 0.0
    return {
        "rms_position_error": float(np.sqrt(mse)),
        "mean_control_energy": float(energy_rep.mean()),
        "max_deviation": float(np.sqrt(e2_max)),
        "mse_position_error": mse,
        "mse_std_error": mse_se,
    }


def tracking_metrics(batch: SimulationBatch, alpha: float) -> dict:
    """Tracking-quality summary for the planar error-state layout.

    Returns the RMS (over stages and replications) of the position error
    norm, the mean total control-plus-velocity energy, and the maximum
    position deviation. Also reports the mean squared position error with
    its standard error, which is what statistical comparisons should use.
    `sweep` computes the same numbers block by block, without traces.

    Raises:
        ModelValidationError: unless the state is 4-dimensional (position
            error stacked on velocity) with 2-dimensional control.
    """
    _check_tracking_layout(batch.x.shape[2], batch.u.shape[2])
    return _tracking_summary(*_tracking_rows(batch.x, batch.u, alpha))
