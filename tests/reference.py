"""Independent reference implementations and random-instance factories.

The reference recursion here deliberately avoids the production code paths:
plain matrix inversion, the standard one-line discrete Riccati update, no
shared helpers. Tests compare production output against these, so agreement
is evidence rather than self-confirmation.
"""

import csv
import functools
import itertools
from fractions import Fraction

import numpy as np

import fogctl as fc
from fogctl.estimation import advance_histories, column_product, gated_posterior


def textbook_riccati(A, B, Q, R, Q_N, N):
    """Classical finite-horizon LQR recursion (dense inverse form).

    Returns (P, F): cost-to-go matrices P_0..P_N and feedback gains
    F_0..F_{N-1} with u_k = -F_k x_k.
    """
    P = [None] * (N + 1)
    P[N] = np.asarray(Q_N, dtype=float)
    F = [None] * N
    for k in reversed(range(N)):
        Ak, Bk = np.asarray(A[k], float), np.asarray(B[k], float)
        S = np.asarray(R[k], float) + Bk.T @ P[k + 1] @ Bk
        F[k] = np.linalg.inv(S) @ Bk.T @ P[k + 1] @ Ak
        P[k] = np.asarray(Q[k], float) + Ak.T @ P[k + 1] @ (Ak - Bk @ F[k])
        P[k] = (P[k] + P[k].T) / 2.0
    return P, F


def random_psd(rng, d, floor=0.0):
    X = rng.normal(size=(d, d))
    return X @ X.T / d + floor * np.eye(d)


def random_model(rng, n_max=3, s_max=2, m_max=2, N_low=3, N_high=10,
                 partial=False, stable_scale=0.85):
    """Random well-posed desk-scale model plus an initial state."""
    n = int(rng.integers(1, n_max + 1))
    s = int(rng.integers(1, s_max + 1))
    N = int(rng.integers(N_low, N_high + 1))
    A = rng.normal(size=(n, n)) * (stable_scale / np.sqrt(n))
    B = rng.normal(size=(n, s))
    kwargs = {}
    if partial:
        m = int(rng.integers(1, m_max + 1))
        kwargs["C"] = rng.normal(size=(m, n))
        kwargs["V_noise"] = random_psd(rng, m, floor=0.2)
    model = fc.make_system(
        A=A, B=B,
        Q=random_psd(rng, n, floor=0.05),
        R=random_psd(rng, s, floor=0.1),
        W=random_psd(rng, n, floor=0.05),
        N=N, **kwargs,
    )
    x0 = rng.normal(size=n)
    return model, x0


def random_delay(rng, N, require_controls=True):
    """Random delay profile fitting horizon N, forward part always >= 1."""
    hi = N - 1 if require_controls else N
    M = int(rng.integers(1, max(2, min(4, hi) + 1)))
    M = min(M, hi)
    if M < 1:
        return None
    M_F = int(rng.integers(1, M + 1))
    return fc.DelayProfile(M_F=M_F, M_B=M - M_F)


def random_sticky_pair(rng, margin=0.02):
    """(p, q) with p > 1 - q by at least margin."""
    q = float(rng.uniform(0.2, 0.95))
    p = float(rng.uniform(1.0 - q + margin, 0.995))
    return p, q


def closed_form_cost(model, p, delay, observation, x0, tau0=1, penalty_cfg=None):
    """Route to the applicable closed form, attaching the estimation penalty
    for partial observation."""
    if delay is None or delay.M == 0:
        sched = fc.backward_recursion_perfect(model, p)
        if observation == "full":
            return fc.min_cost_full_perfect(sched, model, x0, tau0)
        sched = sched.with_regime("partial-perfect")
        pen = fc.expected_estimation_penalty(
            model, p, sched, "partial-perfect", penalty_cfg
        )
        return fc.min_cost_partial_perfect(sched, model, x0, tau0, pen)
    sched = fc.backward_recursion_delayed(model, p, delay)
    if observation == "full":
        return fc.min_cost_full_delayed(sched, model, x0)
    sched = sched.with_regime("partial-delayed")
    pen = fc.expected_estimation_penalty(
        model, p, sched, "partial-delayed", penalty_cfg
    )
    return fc.min_cost_partial_delayed(sched, model, x0, pen)


def make_regime(model, p, delay, observation="full", compensate_drift=False):
    """ControllerRegime wired for the given delay/observation setting."""
    if delay is None or delay.M == 0:
        sched = fc.backward_recursion_perfect(model, p)
        if observation == "partial":
            sched = sched.with_regime("partial-perfect")
        return fc.ControllerRegime(
            observation=observation, gains=sched, delay=None,
            compensate_drift=compensate_drift,
        )
    sched = fc.backward_recursion_delayed(model, p, delay)
    if observation == "partial":
        sched = sched.with_regime("partial-delayed")
    return fc.ControllerRegime(
        observation=observation, gains=sched, delay=delay,
        compensate_drift=compensate_drift,
    )


def four_closed_forms(schedule, model, x0, tau0, penalty=None):
    """The closed-form cost as four per-regime formulas, a copy of the
    arithmetic the one closed form replaced.

    Perfect match: x0'(L_0 - P[tau0 = 1] Lambda_0)x0 + sum_k tr(K_{k+1} W_k).
    Delayed: x0'L_0 x0 + sum_k tr(K_{k+1} W_k) + p sum_{k<cM} tr(P_{k+1} W_k),
    which ignores tau0 and so is exact only for M_F >= 1 (or a stationary
    start). Partial observation adds the penalty total.
    """
    x0 = np.asarray(x0, dtype=float)
    initial = float(x0 @ schedule.L[0] @ x0)
    disturbance = float(sum(np.trace(schedule.K[k + 1] @ model.W[k]) for k in range(model.N)))
    if schedule.regime.endswith("-perfect"):
        pi1 = float(tau0) if isinstance(tau0, int) else float(tau0[1])
        initial = initial - pi1 * float(x0 @ schedule.Lambda[0] @ x0)
        collateral = 0.0
    else:
        cM = len(schedule.P) - 1
        collateral = schedule.p_used * float(
            sum(np.trace(schedule.P[k + 1] @ model.W[k]) for k in range(cM))
        )
    return fc.CostBreakdown.assemble(
        initial, disturbance, collateral_trace_sum=collateral,
        estimation_penalty=0.0 if penalty is None else float(penalty.total),
    )


def scalar_fixture(N=1):
    """The canonical all-ones scalar plant and its unit initial state."""
    model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=N)
    return model, np.array([1.0])


def _sym_sqrt(X):
    """Symmetric PSD square root via an eigendecomposition."""
    X = (np.asarray(X, float) + np.asarray(X, float).T) / 2.0
    w, U = np.linalg.eigh(X)
    return U @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ U.T


def _tau_row(chain, u):
    """One ON/OFF path from its row of chain uniforms."""
    if isinstance(chain.tau0, tuple):
        tau = [int(u[0] < chain.tau0[1])]
    else:
        tau = [int(chain.tau0)]
    for k in range(1, len(u)):
        tau.append(int(u[k] < (chain.p if tau[-1] == 1 else 1.0 - chain.q)))
    return tau


def _kalman_update(xh, P, z, C, V):
    """Textbook measurement update with a dense inverse."""
    K = P @ C.T @ np.linalg.inv(C @ P @ C.T + V)
    P = (np.eye(len(xh)) - K @ C) @ P
    return xh + K @ (z - C @ xh), (P + P.T) / 2.0


def reference_gated_posterior(Sig, C, V):
    """Batched Joseph-form update through a pseudo-inverse of S = C Sig C^T + V.

    The formula `estimation.gated_posterior` used for every V before it
    gained the sequential path, and still uses for a singular or badly
    conditioned V: the results must match it bit for bit there.
    """
    n = Sig.shape[-1]
    S = fc.symmetrize(np.matmul(np.matmul(C, Sig), C.T) + V)
    Sinv = np.linalg.pinv(S, hermitian=True)
    gain = np.matmul(np.matmul(Sig, C.T), Sinv)
    IKC = np.eye(n) - np.matmul(gain, C)
    post = np.matmul(np.matmul(IKC, Sig), np.swapaxes(IKC, -1, -2))
    post = post + np.matmul(np.matmul(gain, V), np.swapaxes(gain, -1, -2))
    return gain, fc.symmetrize(post)


def reference_filter_update(ids, Sg, xh, gate, z, C, V):
    """The simulator's masked measurement update, frozen as the reference.

    Posteriors once per history node that takes an update; the gated
    columns of xh (n, R) then gather their node's gain through boolean
    masks and contract it with their innovation (m, R), adding the m
    products in component order before adding them to xh. (np.einsum is
    no reference for this: for m >= 3 its summation order depends on the
    operands' memory alignment.) The mask-free `simulator._filter_update`
    must match it bit for bit: same (ids, Sg) returned, same xh after the
    in-place update.
    """
    ids, parents, updated = advance_histories(ids, gate, len(Sg))
    Sg = Sg[parents]
    if updated.any():
        gain, post = gated_posterior(Sg[updated], C, V)
        Sg[updated] = post
        col_gain = gain[np.cumsum(updated)[ids[gate]] - 1]
        innovation = (z - column_product(C, xh))[:, gate]
        terms = [col_gain[:, :, j].T * innovation[j] for j in range(len(C))]
        xh[:, gate] += functools.reduce(np.add, terms)
    return ids, Sg


def exact_gated_posterior(Sig, C, V):
    """Gain and Joseph posterior of one prior in exact rational arithmetic.

    The float inputs are read exactly as fractions, S is inverted by
    Gauss-Jordan elimination, and the results are rounded to float once at
    the end. Meant for n, m <= 3, where the denominators stay small.
    """
    def exact(X):
        return [[Fraction(float(x)) for x in row] for row in np.atleast_2d(X)]

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))]
                for i in range(len(X))]

    def add(X, Y, sign=1):
        return [[x + sign * y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]

    def tr(X):
        return [list(col) for col in zip(*X)]

    Sig, C, V = exact(Sig), exact(C), exact(V)
    m = len(C)
    SCt = mul(Sig, tr(C))
    aug = [row + [Fraction(int(i == j)) for j in range(m)]
           for i, row in enumerate(add(mul(C, SCt), V))]
    for col in range(m):
        pivot = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [a / aug[col][col] for a in aug[col]]
        for r in range(m):
            if r != col:
                aug[r] = [a - aug[r][col] * b for a, b in zip(aug[r], aug[col])]
    K = mul(SCt, [row[m:] for row in aug])
    eye = [[Fraction(int(i == j)) for j in range(len(Sig))] for i in range(len(Sig))]
    IKC = add(eye, mul(K, C), -1)
    post = add(mul(mul(IKC, Sig), tr(IKC)), mul(mul(K, V), tr(K)))
    return np.array(K, dtype=float), np.array(post, dtype=float)


def reference_partial_totals(model, chain, delay, V, x0, replications, seed):
    """Per-replication cost totals of the partial-observation loop.

    One replication at a time, with a plain Kalman filter and the delayed
    service protocol spelled out per stage: the measurement taken at each
    epoch boundary jM is served at stage jM + M_F if the endpoint is ON,
    the estimate is advanced to the boundary and updated, and the control
    predicted for the next boundary arrives there (zero if the gate was
    OFF). With no delay the update and control act at the same stage. V are
    the feedback gains; the draws are those of `fogctl.noise_streams`, so
    the totals match the simulator's replication by replication. Drift-free
    models with noisy measurements only.
    """
    if model.drift is not None:
        raise ValueError("reference loop covers drift-free models only")
    N, n, m, s = model.N, model.state_dim, model.obs_dim, model.control_dim
    A, B, C = model.A, model.B, model.C
    w_eps, v_eps, chain_u = fc.noise_streams(seed, replications, N, n, m)
    Lw = [_sym_sqrt(model.W[k]) for k in range(N)]
    Lv = [_sym_sqrt(model.V_noise[k]) for k in range(N)]
    M = 0 if delay is None else delay.M
    if M:
        bound = delay.bound_to(N)
        services = {j * M + delay.M_F: j for j in range(bound.c)}
        n_epochs = bound.c
    totals = np.zeros(replications)
    for r in range(replications):
        tau = _tau_row(chain, chain_u[r])
        x = np.array(x0, dtype=float)
        xh, P = x.copy(), np.zeros((n, n))
        z_saved, arrivals = {}, {}
        total = 0.0
        for k in range(N):
            z = C[k] @ x + Lv[k] @ v_eps[r, k]
            u = np.zeros(s)
            if not M:
                if tau[k]:
                    xh, P = _kalman_update(xh, P, z, C[k], model.V_noise[k])
                    u = -V[k] @ xh
            else:
                if k % M == 0 and k // M < n_epochs:
                    z_saved[k // M] = z
                if k in services:
                    j = services[k]
                    t0 = j * M
                    if j >= 1:
                        prev = t0 - M
                        xh = A[prev] @ xh + B[prev] @ arrivals.get(prev, np.zeros(s))
                        P = A[prev] @ P @ A[prev].T + model.W[prev]
                        for t in range(prev + 1, t0):
                            xh = A[t] @ xh
                            P = A[t] @ P @ A[t].T + model.W[t]
                        if tau[k]:
                            xh, P = _kalman_update(
                                xh, P, z_saved[j], C[t0], model.V_noise[t0]
                            )
                    mean = A[t0] @ xh + B[t0] @ arrivals.get(t0, np.zeros(s))
                    for t in range(t0 + 1, t0 + M):
                        mean = A[t] @ mean
                    arrivals[t0 + M] = -V[t0 + M] @ mean if tau[k] else np.zeros(s)
                u = arrivals.get(k, np.zeros(s))
            total += x @ model.Q[k] @ x + u @ model.R[k] @ u
            x = A[k] @ x + B[k] @ u + Lw[k] @ w_eps[r, k]
            if not M:
                xh = A[k] @ xh + B[k] @ u
                P = A[k] @ P @ A[k].T + model.W[k]
        totals[r] = total + x @ model.Q[N] @ x
    return totals


def reference_to_csv(batch, fh):
    """`SimulationBatch.to_csv` written row by row through `csv.writer`."""
    n = batch.x.shape[2]
    s = batch.u.shape[2]
    with_xhat = batch.x_hat is not None
    header = ["rep", "k", "tau"]
    header += [f"x{i}" for i in range(n)]
    header += [f"u{i}" for i in range(s)]
    if with_xhat:
        header += [f"xhat{i}" for i in range(n)]
    header.append("cost_stage")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    N = batch.N
    for r in range(batch.replications):
        for k in range(N):
            row = [r, k, int(batch.tau[r, k])]
            row += [repr(float(v)) for v in batch.x[r, k]]
            row += [repr(float(v)) for v in batch.u[r, k]]
            if with_xhat:
                if np.isnan(batch.x_hat[r, k]).any():
                    row += [""] * n
                else:
                    row += [repr(float(v)) for v in batch.x_hat[r, k]]
            row.append(repr(float(batch.stage_cost[r, k])))
            writer.writerow(row)
        row = [r, N, ""]
        row += [repr(float(v)) for v in batch.x[r, N]]
        row += [""] * s
        if with_xhat:
            row += [""] * n
        row.append(repr(float(batch.stage_cost[r, N])))
        writer.writerow(row)


def reference_tau_paths(N, chain):
    """(states, probability) of every positive-probability path, one
    `itertools.product` row at a time, probabilities multiplied left to right."""
    dist = chain.tau0_distribution()
    T = chain.transition_matrix()
    paths = []
    for bits in itertools.product((0, 1), repeat=N):
        prob = dist[bits[0]]
        for a, b in zip(bits, bits[1:]):
            prob *= T[a, b]
        if prob > 0.0:
            paths.append((bits, float(prob)))
    return paths


def reference_enumeration_cost(model, chain, V, x0, tau0):
    """Expected cost of the gated policy u_k = -V_k x_k (ON stages only),
    rolled out path by path: each path's conditional mean and covariance
    are propagated on their own and its cost weighted by its probability.
    tau0 is 0, 1 or a distribution pair; drift-free models only."""
    N, n = model.N, model.state_dim
    chain = fc.ReliabilityChain(p=chain.p, q=chain.q, tau0=tau0)
    total = 0.0
    for states, prob in reference_tau_paths(N, chain):
        mu = np.asarray(x0, dtype=float)
        Sig = np.zeros((n, n))
        cost = 0.0
        for k, t in enumerate(states):
            Qk = model.Q[k]
            cost += float(mu @ Qk @ mu + np.trace(Qk @ Sig))
            if t == 1:
                VRV = V[k].T @ model.R[k] @ V[k]
                cost += float(mu @ VRV @ mu + np.trace(VRV @ Sig))
                Acl = model.A[k] - model.B[k] @ V[k]
            else:
                Acl = model.A[k]
            mu = Acl @ mu
            Sig = Acl @ Sig @ Acl.T + model.W[k]
            Sig = (Sig + Sig.T) / 2.0
        QN = model.Q[N]
        cost += float(mu @ QN @ mu + np.trace(QN @ Sig))
        total += prob * cost
    return total
