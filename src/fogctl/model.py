"""Validated value types for control over unreliable, latency-bound endpoints.

This module holds the domain vocabulary shared by the whole package:

- ``LinearSystemModel``: a finite-horizon, time-varying linear plant with
  quadratic stage weights and Gaussian disturbance/measurement covariances.
- ``ReliabilityChain``: the two-state Markov ON/OFF process describing whether
  the remote controller endpoint can serve a request at a given stage.
- ``DelayProfile``: forward/backward transport delays between plant and
  controller, plus the derived epoch bookkeeping.
- ``CostBreakdown``: the decomposition of an expected cost into its
  initial-state, disturbance, collateral and estimation terms.

All types are immutable after validation; stored arrays are read-only.
The module also provides per-type (de)serialization to the JSON config
format used by the command line front end.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

# Tolerances used across the package.
PSD_EIG_TOL = -1e-9
PD_CHECK_TOL = 1e-10
SYMMETRY_WARN_TOL = 1e-9
SYMMETRIC_CHAIN_TOL = 1e-12


class ModelValidationError(ValueError):
    """A domain object violates its invariants.

    Attributes:
        violations: list of human-readable descriptions, one per violated
            invariant. The exception message joins them.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigError(ValueError):
    """An external configuration document is malformed."""


def symmetrize(X: np.ndarray, warn_label: Optional[str] = None) -> np.ndarray:
    """Return (X + X^T) / 2, warning if the asymmetry is significant.

    Args:
        X: square matrix.
        warn_label: when given, a warning naming this matrix is emitted if
            the asymmetry exceeds ``SYMMETRY_WARN_TOL``.
    """
    X = np.asarray(X, dtype=float)
    asym = float(np.max(np.abs(X - X.T))) if X.size else 0.0
    if warn_label is not None and asym > SYMMETRY_WARN_TOL:
        warnings.warn(
            f"{warn_label}: asymmetry {asym:.3e} exceeds {SYMMETRY_WARN_TOL:.0e}; "
            "symmetrizing",
            stacklevel=2,
        )
    return (X + X.T) / 2.0


def min_eigenvalue(X: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(X))[0])


def is_psd(X: np.ndarray, tol: float = PSD_EIG_TOL) -> bool:
    """Whether a symmetric matrix is positive semidefinite within tolerance."""
    return min_eigenvalue(X) >= tol


def is_pd(X: np.ndarray, tol: float = PD_CHECK_TOL) -> bool:
    """Whether a symmetric matrix is positive definite.

    Uses a Cholesky attempt on X - tol*I so that near-singular matrices are
    rejected consistently with the validation contract.
    """
    X = symmetrize(X)
    n = X.shape[0]
    try:
        np.linalg.cholesky(X - tol * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _as_stage_matrices(
    name: str,
    raw,
    count: int,
    rows: int,
    cols: int,
    symmetrize_with_warning: bool = False,
) -> tuple:
    """Normalize a constant-or-per-stage matrix input into a tuple of arrays.

    A single (rows, cols) array means "constant over all stages". Scalars are
    promoted to 1x1 matrices. Raises ModelValidationError on shape mismatch.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim == 2:
        stack = [arr] * count
    elif arr.ndim == 3:
        if arr.shape[0] != count:
            raise ModelValidationError(
                [f"{name}: expected {count} stage matrices, got {arr.shape[0]}"]
            )
        stack = [arr[i] for i in range(count)]
    else:
        raise ModelValidationError([f"{name}: expected a matrix or a list of matrices"])
    out = []
    for i, X in enumerate(stack):
        if X.shape != (rows, cols):
            raise ModelValidationError(
                [f"{name}: shape {X.shape} at k={i}, expected ({rows}, {cols})"]
            )
        if symmetrize_with_warning:
            X = symmetrize(X, warn_label=f"{name}[{i}]")
        out.append(_freeze(X))
    return tuple(out)


def _as_stage_vectors(name: str, raw, count: int, dim: int) -> tuple:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim == 1:
        stack = [arr] * count
    elif arr.ndim == 2:
        if arr.shape[0] != count:
            raise ModelValidationError(
                [f"{name}: expected {count} stage vectors, got {arr.shape[0]}"]
            )
        stack = [arr[i] for i in range(count)]
    else:
        raise ModelValidationError([f"{name}: expected a vector or a list of vectors"])
    out = []
    for i, v in enumerate(stack):
        if v.shape != (dim,):
            raise ModelValidationError(
                [f"{name}: shape {v.shape} at k={i}, expected ({dim},)"]
            )
        out.append(_freeze(v))
    return tuple(out)


@dataclass(frozen=True)
class LinearSystemModel:
    """Finite-horizon time-varying linear plant with quadratic stage costs.

    Fields:
        N: number of stages (the horizon; stage costs run k = 0..N-1 plus a
            terminal weight at k = N).
        A, B, C: dynamics, input, and observation matrices for k = 0..N-1.
        Q: state weights for k = 0..N (the last entry is the terminal weight).
        R: control weights for k = 0..N-1 (positive definite).
        W: disturbance covariances for k = 0..N-1.
        V_noise: measurement-plus-channel noise covariances for k = 0..N-1.
        drift: optional known deterministic disturbance means for k = 0..N-1
            (used by waypoint-tracking error coordinates).
    """

    N: int
    A: tuple
    B: tuple
    C: tuple
    Q: tuple
    R: tuple
    W: tuple
    V_noise: tuple
    drift: Optional[tuple] = None

    @property
    def state_dim(self) -> int:
        return self.A[0].shape[0]

    @property
    def control_dim(self) -> int:
        return self.B[0].shape[1]

    @property
    def obs_dim(self) -> int:
        return self.C[0].shape[0]

    def drift_at(self, k: int) -> np.ndarray:
        """Known disturbance mean at stage k (zeros when no drift is set)."""
        if self.drift is None:
            return np.zeros(self.state_dim)
        return self.drift[k]

    def without_drift(self) -> "LinearSystemModel":
        """Copy of this model with the drift field cleared."""
        if self.drift is None:
            return self
        return LinearSystemModel(
            N=self.N, A=self.A, B=self.B, C=self.C, Q=self.Q, R=self.R,
            W=self.W, V_noise=self.V_noise, drift=None,
        )


def make_system(
    A, B, Q, R, W,
    C=None,
    V_noise=None,
    drift=None,
    N: Optional[int] = None,
) -> LinearSystemModel:
    """Build and validate a LinearSystemModel from constant or per-stage data.

    Args:
        A, B, Q, R, W: matrices or per-stage lists. Q takes N+1 entries when
            given per stage (terminal weight included); a single matrix is
            replicated across all stages including the terminal one.
        C: observation matrices; defaults to identity (full observation).
        V_noise: measurement noise covariances; defaults to zero.
        drift: optional known disturbance means.
        N: horizon; required when every input is constant, inferred otherwise.

    Returns:
        A validated LinearSystemModel.

    Raises:
        ModelValidationError: on any dimension or definiteness violation.
    """
    A_arr = np.asarray(A, dtype=float)
    if N is None:
        for cand in (A_arr, np.asarray(B, dtype=float)):
            if cand.ndim == 3:
                N = cand.shape[0]
                break
        else:
            q_arr = np.asarray(Q, dtype=float)
            if q_arr.ndim == 3:
                N = q_arr.shape[0] - 1
            else:
                raise ModelValidationError(
                    ["N is required when all matrix inputs are constant"]
                )
    if N < 1:
        raise ModelValidationError([f"N must be >= 1, got {N}"])

    if A_arr.ndim == 0:
        n = 1
    elif A_arr.ndim == 2:
        n = A_arr.shape[0]
    else:
        n = A_arr.shape[1]
    B_arr = np.asarray(B, dtype=float)
    if B_arr.ndim == 0:
        s = 1
    elif B_arr.ndim == 2:
        s = B_arr.shape[1]
    else:
        s = B_arr.shape[2]
    if C is None:
        C = np.eye(n)
    C_arr = np.asarray(C, dtype=float)
    if C_arr.ndim == 0:
        m = 1
    elif C_arr.ndim == 2:
        m = C_arr.shape[0]
    else:
        m = C_arr.shape[1]
    if V_noise is None:
        V_noise = np.zeros((m, m))

    model = LinearSystemModel(
        N=int(N),
        A=_as_stage_matrices("A", A, N, n, n),
        B=_as_stage_matrices("B", B, N, n, s),
        C=_as_stage_matrices("C", C, N, m, n),
        Q=_as_stage_matrices("Q", Q, N + 1, n, n, symmetrize_with_warning=True),
        R=_as_stage_matrices("R", R, N, s, s, symmetrize_with_warning=True),
        W=_as_stage_matrices("W", W, N, n, n, symmetrize_with_warning=True),
        V_noise=_as_stage_matrices(
            "V_noise", V_noise, N, m, m, symmetrize_with_warning=True
        ),
        drift=None if drift is None else _as_stage_vectors("drift", drift, N, n),
    )
    return validate_model(model)


def validate_model(model: LinearSystemModel) -> LinearSystemModel:
    """Check every model invariant, returning the model unchanged if valid.

    Args:
        model: candidate model.

    Returns:
        The same model when all invariants hold.

    Raises:
        ModelValidationError: carrying one entry per violated invariant
            (dimension mismatches, R not positive definite, covariance or
            weight not positive semidefinite, N < 1).
    """
    violations = []
    if model.N < 1:
        violations.append(f"N must be >= 1, got {model.N}")
    n, s, m = model.state_dim, model.control_dim, model.obs_dim
    seqs = [
        ("A", model.A, model.N, (n, n)),
        ("B", model.B, model.N, (n, s)),
        ("C", model.C, model.N, (m, n)),
        ("Q", model.Q, model.N + 1, (n, n)),
        ("R", model.R, model.N, (s, s)),
        ("W", model.W, model.N, (n, n)),
        ("V_noise", model.V_noise, model.N, (m, m)),
    ]
    for name, seq, count, shape in seqs:
        if len(seq) != count:
            violations.append(f"{name}: expected {count} stage entries, got {len(seq)}")
            continue
        for k, X in enumerate(seq):
            if X.shape != shape:
                violations.append(f"{name}: shape {X.shape} at k={k}, expected {shape}")
    if model.drift is not None:
        if len(model.drift) != model.N:
            violations.append(
                f"drift: expected {model.N} stage entries, got {len(model.drift)}"
            )
        else:
            for k, v in enumerate(model.drift):
                if v.shape != (n,):
                    violations.append(f"drift: shape {v.shape} at k={k}, expected ({n},)")
    if not violations:
        for k, X in enumerate(model.Q):
            if not is_psd(X):
                violations.append(f"Q not positive semidefinite at k={k}")
        for k, X in enumerate(model.R):
            if not is_pd(X):
                violations.append(f"R not positive definite at k={k}")
        for k, X in enumerate(model.W):
            if not is_psd(X):
                violations.append(f"W not positive semidefinite at k={k}")
        for k, X in enumerate(model.V_noise):
            if not is_psd(X):
                violations.append(f"V_noise not positive semidefinite at k={k}")
    if violations:
        raise ModelValidationError(violations)
    return model


@dataclass(frozen=True)
class ReliabilityChain:
    """Two-state Markov ON/OFF endpoint availability process.

    Fields:
        p: P[tau_{k+1} = 1 | tau_k = 1], the ON-persistence.
        q: P[tau_{k+1} = 0 | tau_k = 0], the OFF-persistence.
        tau0: initial state, either a point value in {0, 1} or a
            distribution (P[tau0 = 0], P[tau0 = 1]).

    A chain is symmetric when p = 1 - q within 1e-12; the exact closed-form
    costs require symmetric chains.
    """

    p: float
    q: float
    tau0: Union[int, tuple] = 1

    def __post_init__(self):
        violations = []
        if not (0.0 <= self.p <= 1.0):
            violations.append(f"p must be in [0, 1], got {self.p}")
        if not (0.0 <= self.q <= 1.0):
            violations.append(f"q must be in [0, 1], got {self.q}")
        t = self.tau0
        if isinstance(t, (int, np.integer)) and not isinstance(t, bool):
            if t not in (0, 1):
                violations.append(f"tau0 point value must be 0 or 1, got {t}")
        else:
            try:
                d = (float(t[0]), float(t[1]))
            except (TypeError, IndexError, ValueError):
                violations.append(f"tau0 must be 0, 1, or a 2-entry distribution, got {t!r}")
            else:
                if len(tuple(t)) != 2 or min(d) < -1e-12 or abs(d[0] + d[1] - 1.0) > 1e-9:
                    violations.append(f"tau0 distribution must be nonnegative and sum to 1, got {t!r}")
                object.__setattr__(self, "tau0", d)
        if violations:
            raise ModelValidationError(violations)

    @property
    def symmetric(self) -> bool:
        return abs(self.p - (1.0 - self.q)) <= SYMMETRIC_CHAIN_TOL

    def tau0_distribution(self) -> np.ndarray:
        """(P[tau0=0], P[tau0=1]) regardless of how tau0 was given."""
        if isinstance(self.tau0, tuple):
            return np.array(self.tau0, dtype=float)
        return np.array([1.0 - self.tau0, float(self.tau0)])

    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic transition matrix T with T[i, j] = P[tau'=j | tau=i]."""
        return np.array([[self.q, 1.0 - self.q], [1.0 - self.p, self.p]])


def symmetric_chain(p: float, tau0: Union[int, tuple] = 1) -> ReliabilityChain:
    """The symmetric chain with ON-persistence p (so q = 1 - p)."""
    return ReliabilityChain(p=p, q=1.0 - p, tau0=tau0)


def stationary_on_probability(chain: ReliabilityChain) -> float:
    """Long-run fraction of ON stages, (1-q) / ((1-p) + (1-q)).

    Args:
        chain: a non-degenerate reliability chain.

    Returns:
        The stationary probability of the ON state.

    Raises:
        ModelValidationError: when p = q = 1 (both states absorbing, no
            unique stationary distribution).
    """
    denom = (1.0 - chain.p) + (1.0 - chain.q)
    if denom == 0.0:
        raise ModelValidationError(
            ["degenerate chain p=1, q=1: both states absorbing"]
        )
    return (1.0 - chain.q) / denom


@dataclass(frozen=True)
class DelayProfile:
    """Transport delay between plant and controller, measured in stages.

    Fields:
        M_F: forward delay (measurement to controller).
        M_B: backward delay (controller to plant, compute time included).
        N: optional horizon binding; needed for the derived quantities.

    Derived, for M = M_F + M_B >= 1 and a bound horizon N:
        a: N mod M when nonzero, else M.
        c: (N - a) / M, the number of controls that arrive in the horizon.

    M = 0 denotes perfect match; a and c are undefined there.
    """

    M_F: int
    M_B: int
    N: Optional[int] = None

    def __post_init__(self):
        violations = []
        for name, v in (("M_F", self.M_F), ("M_B", self.M_B)):
            if not isinstance(v, (int, np.integer)) or v < 0:
                violations.append(f"{name} must be a nonnegative integer, got {v!r}")
        if self.N is not None and (not isinstance(self.N, (int, np.integer)) or self.N < 1):
            violations.append(f"N must be a positive integer, got {self.N!r}")
        if violations:
            raise ModelValidationError(violations)

    @property
    def M(self) -> int:
        return self.M_F + self.M_B

    def bound_to(self, N: int) -> "DelayProfile":
        """Copy bound to horizon N (validating any existing binding)."""
        if self.N is not None and self.N != N:
            raise ModelValidationError(
                [f"delay profile bound to N={self.N}, used with N={N}"]
            )
        return DelayProfile(M_F=self.M_F, M_B=self.M_B, N=int(N))

    def _require_bound(self):
        if self.M == 0:
            raise ModelValidationError(["a and c are undefined for M = 0 (perfect match)"])
        if self.N is None:
            raise ModelValidationError(["delay profile not bound to a horizon"])

    @property
    def a(self) -> int:
        self._require_bound()
        r = self.N % self.M
        return r if r != 0 else self.M

    @property
    def c(self) -> int:
        self._require_bound()
        return (self.N - self.a) // self.M


@dataclass(frozen=True)
class CostBreakdown:
    """Decomposition of an expected total cost.

    total = initial_state_term + disturbance_trace_sum
          + collateral_trace_sum + estimation_penalty
    within 1e-9 relative tolerance; the two trace sums are nonnegative.
    """

    initial_state_term: float
    disturbance_trace_sum: float
    collateral_trace_sum: float
    estimation_penalty: float
    total: float

    def __post_init__(self):
        violations = []
        s = (
            self.initial_state_term
            + self.disturbance_trace_sum
            + self.collateral_trace_sum
            + self.estimation_penalty
        )
        if abs(s - self.total) > 1e-9 * max(1.0, abs(self.total)):
            violations.append(f"total {self.total} != component sum {s}")
        if self.disturbance_trace_sum < 0:
            violations.append("disturbance_trace_sum must be nonnegative")
        if self.collateral_trace_sum < 0:
            violations.append("collateral_trace_sum must be nonnegative")
        if violations:
            raise ModelValidationError(violations)

    @classmethod
    def assemble(
        cls,
        initial_state_term: float,
        disturbance_trace_sum: float,
        collateral_trace_sum: float = 0.0,
        estimation_penalty: float = 0.0,
    ) -> "CostBreakdown":
        return cls(
            initial_state_term=float(initial_state_term),
            disturbance_trace_sum=float(disturbance_trace_sum),
            collateral_trace_sum=float(collateral_trace_sum),
            estimation_penalty=float(estimation_penalty),
            total=float(
                initial_state_term
                + disturbance_trace_sum
                + collateral_trace_sum
                + estimation_penalty
            ),
        )


# ---------------------------------------------------------------------------
# Config block (de)serialization for the types owned by this module.
# ---------------------------------------------------------------------------

def _matseq_to_lists(seq) -> list:
    return [np.asarray(X).tolist() for X in seq]


def system_to_config(model: LinearSystemModel, x0: Optional[np.ndarray] = None) -> dict:
    """Canonical config block for a system (explicit per-stage arrays)."""
    block = {
        "N": model.N,
        "A": _matseq_to_lists(model.A),
        "B": _matseq_to_lists(model.B),
        "C": _matseq_to_lists(model.C),
        "Q": _matseq_to_lists(model.Q),
        "R": _matseq_to_lists(model.R),
        "W": _matseq_to_lists(model.W),
        "V_noise": _matseq_to_lists(model.V_noise),
    }
    if model.drift is not None:
        block["drift"] = _matseq_to_lists(model.drift)
    if x0 is not None:
        block["x0"] = np.asarray(x0, dtype=float).tolist()
    return block


_SYSTEM_KEYS = {"N", "A", "B", "C", "Q", "R", "W", "V_noise", "drift", "x0"}


def system_from_config(block: dict):
    """Parse a system block into (model, x0).

    Raises:
        ConfigError: on unknown keys or missing required entries.
    """
    unknown = set(block) - _SYSTEM_KEYS
    if unknown:
        raise ConfigError(f"system: unknown keys {sorted(unknown)}")
    missing = {"N", "A", "B", "Q", "R", "W"} - set(block)
    if missing:
        raise ConfigError(f"system: missing required keys {sorted(missing)}")
    try:
        model = make_system(
            A=block["A"], B=block["B"], Q=block["Q"], R=block["R"], W=block["W"],
            C=block.get("C"), V_noise=block.get("V_noise"),
            drift=block.get("drift"), N=int(block["N"]),
        )
    except ModelValidationError as e:
        raise ConfigError(f"system: {e}") from e
    x0 = block.get("x0")
    if x0 is not None:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.shape != (model.state_dim,):
            raise ConfigError(
                f"system: x0 shape {x0.shape} does not match state dimension {model.state_dim}"
            )
    return model, x0


def reliability_to_config(chain: ReliabilityChain) -> dict:
    tau0 = chain.tau0 if not isinstance(chain.tau0, tuple) else list(chain.tau0)
    return {"p": chain.p, "q": chain.q, "tau0": tau0}


def reliability_from_config(block: dict) -> ReliabilityChain:
    unknown = set(block) - {"p", "q", "tau0"}
    if unknown:
        raise ConfigError(f"reliability: unknown keys {sorted(unknown)}")
    if "p" not in block:
        raise ConfigError("reliability.p required")
    if "q" not in block:
        raise ConfigError("reliability.q required")
    tau0 = block.get("tau0", 1)
    if isinstance(tau0, list):
        tau0 = tuple(tau0)
    try:
        return ReliabilityChain(p=float(block["p"]), q=float(block["q"]), tau0=tau0)
    except ModelValidationError as e:
        raise ConfigError(f"reliability: {e}") from e


def delay_to_config(delay: Optional[DelayProfile]) -> Optional[dict]:
    if delay is None:
        return None
    return {"M_F": delay.M_F, "M_B": delay.M_B}


def delay_from_config(block, N: Optional[int] = None) -> Optional[DelayProfile]:
    if block is None:
        return None
    unknown = set(block) - {"M_F", "M_B"}
    if unknown:
        raise ConfigError(f"delay: unknown keys {sorted(unknown)}")
    missing = {"M_F", "M_B"} - set(block)
    if missing:
        raise ConfigError(f"delay: missing required keys {sorted(missing)}")
    try:
        profile = DelayProfile(M_F=int(block["M_F"]), M_B=int(block["M_B"]), N=N)
    except ModelValidationError as e:
        raise ConfigError(f"delay: {e}") from e
    return profile
