"""Validated value types for control over unreliable, latency-bound endpoints.

This module holds the domain vocabulary shared by the whole package:

- ``LinearSystemModel``: a finite-horizon, time-varying linear plant with
  quadratic stage weights and Gaussian disturbance/measurement covariances.
  Each per-stage field is one stacked array, stage index first (A is
  (N, n, n), Q is (N+1, n, n)), built by ``make_system`` from constant or
  per-stage input and checked in one batched pass: shapes, finiteness, and
  one ``eigvalsh`` per weight or covariance field.
- ``ReliabilityChain``: the two-state Markov ON/OFF process describing whether
  the remote controller endpoint can serve a request at a given stage.
- ``DelayProfile``: forward/backward transport delays between plant and
  controller, plus the derived epoch bookkeeping.
- ``CostBreakdown``: the decomposition of an expected cost into its
  initial-state, disturbance, collateral and estimation terms.

All types are immutable after validation; stored arrays are read-only, and
malformed or non-finite input raises ``ModelValidationError`` naming the
field.

The module also holds the one reader of the JSON config used by the command
line front end: ``config_block`` checks one config object against a table of
keys and converts each entry with its reader (``number``, ``count``, ``flag``,
``pair``, ``choice``, ``listed``), so a malformed entry raises ``ConfigError``
naming its path (``"simulation.replications must be a whole number >= 0,
got 2.7"``).
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
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


def symmetrize(X: np.ndarray) -> np.ndarray:
    """(X + X^T) / 2 as a float array, for one matrix or a stack (..., n, n).

    The same arithmetic per matrix whether it is symmetrized alone or in a
    stack, so the results agree bit for bit.
    """
    X = np.asarray(X, dtype=float)
    return (X + np.swapaxes(X, -1, -2)) / 2.0


def _freeze(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built float array read-only and return it."""
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _floats(name: str, raw) -> np.ndarray:
    """raw as a float array; ModelValidationError naming the field otherwise."""
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as e:
        raise ModelValidationError([f"{name}: not a numeric array ({e})"]) from None


def _stage_layout(N: int, n: int, s: int, m: int) -> dict:
    """(stage count, per-stage shape, symmetrized) of each stage field."""
    return {
        "A": (N, (n, n), False), "B": (N, (n, s), False), "C": (N, (m, n), False),
        "Q": (N + 1, (n, n), True), "R": (N, (s, s), True), "W": (N, (n, n), True),
        "V_noise": (N, (m, m), True), "drift": (N, (n,), False),
    }


def _stage_stack(
    name: str, raw, count: int, shape: tuple, symmetric: bool = False
) -> np.ndarray:
    """Stack a constant-or-per-stage input into a read-only (count, *shape) array.

    One entry of ``shape`` (a scalar promotes to all ones) means "constant
    over all stages"; a leading stage axis means one entry per stage. With
    ``symmetric``, each stage is replaced by (X + X^T) / 2, with one warning
    per stage whose asymmetry exceeds ``SYMMETRY_WARN_TOL``.

    Raises:
        ModelValidationError: naming the field, when raw is not numeric, has
            the wrong number of axes or shape, or holds a non-finite entry.
    """
    arr = _floats(name, raw)
    if arr.ndim == 0:
        arr = arr.reshape((1,) * len(shape))
    if arr.ndim == len(shape):
        arr = np.broadcast_to(arr, (count, *arr.shape))
    elif arr.ndim != len(shape) + 1:
        raise ModelValidationError(
            [f"{name}: expected {len(shape)} axes, or {len(shape) + 1} with stages first; "
             f"got {arr.ndim}"]
        )
    if arr.shape != (count, *shape):
        raise ModelValidationError(
            [f"{name}: shape {arr.shape}, expected {(count, *shape)} (stages first)"]
        )
    if not np.isfinite(arr).all():
        raise ModelValidationError([f"{name}: non-finite entries"])
    if symmetric:
        asym = np.abs(arr - arr.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
        for k in np.flatnonzero(asym > SYMMETRY_WARN_TOL):
            warnings.warn(
                f"{name}[{k}]: asymmetry {asym[k]:.3e} exceeds "
                f"{SYMMETRY_WARN_TOL:.0e}; symmetrizing",
                stacklevel=2,
            )
        arr = symmetrize(arr)
    # order="C": a stride-order copy of a broadcast puts the stage axis
    # innermost, and matmul rounds differently on such non-contiguous stages.
    return _freeze(np.array(arr, order="C"))


@dataclass(frozen=True)
class LinearSystemModel:
    """Finite-horizon time-varying linear plant with quadratic stage costs.

    Every stage field is one read-only, C-contiguous float64 array, stage
    index first, so ``model.A[k]`` is the stage-k matrix.

    Fields:
        N: number of stages (the horizon; stage costs run k = 0..N-1 plus a
            terminal weight at k = N).
        A, B, C: dynamics (N, n, n), input (N, n, s) and observation (N, m, n).
        Q: state weights (N+1, n, n); Q[N] is the terminal weight.
        R: control weights (N, s, s), positive definite.
        W: disturbance covariances (N, n, n).
        V_noise: measurement-plus-channel noise covariances (N, m, m).
        drift: optional known deterministic disturbance means (N, n) (used
            by waypoint-tracking error coordinates).
    """

    N: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    W: np.ndarray
    V_noise: np.ndarray
    drift: Optional[np.ndarray] = None

    @property
    def state_dim(self) -> int:
        return self.A.shape[1]

    @property
    def control_dim(self) -> int:
        return self.B.shape[2]

    @property
    def obs_dim(self) -> int:
        return self.C.shape[1]

    def drift_at(self, k: int) -> Union[np.ndarray, float]:
        """Known disturbance mean at stage k, or the scalar 0.0 when no drift is set.

        Adding 0.0 gives the same bits as adding a zero vector, without
        broadcasting a vector over every row.
        """
        if self.drift is None:
            return 0.0
        return self.drift[k]

    def without_drift(self) -> "LinearSystemModel":
        """Copy of this model with the drift field cleared."""
        return replace(self, drift=None)


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
        N: horizon, a whole number >= 1 (see ``count``); required when every
            input is constant, inferred otherwise.

    Returns:
        A validated LinearSystemModel.

    Raises:
        ModelValidationError: on non-numeric or non-finite input, any
            dimension or definiteness violation, or stage arrays larger than
            the machine's physical memory or than the memory left (naming N
            and the MiB needed).
    """
    A, B, Q = _floats("A", A), _floats("B", B), _floats("Q", Q)
    if N is None:
        counts = [x.shape[0] - extra for x, extra in ((A, 0), (B, 0), (Q, 1)) if x.ndim == 3]
        if not counts:
            raise ModelValidationError(["N is required when all matrix inputs are constant"])
        N = counts[0]
    N = _whole("N", N, 1)
    n = A.shape[-2] if A.ndim >= 2 else 1
    s = B.shape[-1] if B.ndim >= 2 else 1
    C = _floats("C", np.eye(n) if C is None else C)
    m = C.shape[-2] if C.ndim >= 2 else 1
    raw = dict(A=A, B=B, C=C, Q=Q, R=R, W=W, drift=drift,
               V_noise=np.zeros((m, m)) if V_noise is None else V_noise)
    layout = _stage_layout(N, n, s, m)
    mib = 8 * sum(
        count * math.prod(shape) for name, (count, shape, _) in layout.items()
        if raw[name] is not None
    ) / 2**20
    with _memory_guard(f"N = {N}", "building the stage arrays", mib):
        stacks = {
            name: None if raw[name] is None else _stage_stack(name, raw[name], *fields)
            for name, fields in layout.items()
        }
        return validate_model(LinearSystemModel(N=N, **stacks))


def _physical_mib() -> float:
    """Physical memory in MiB, or infinity where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
    except (AttributeError, OSError, ValueError):
        return math.inf


@contextmanager
def _memory_guard(where: str, what: str, mib: Optional[float], extent: str = ""):
    """Run a large computation only if its estimated mib fit in physical memory.

    Raises ModelValidationError "<where>: <what> needs <mib> MiB<extent>, more
    than this machine's ... MiB of memory" before the body when the estimate
    exceeds `_physical_mib()`, and "<where>: out of memory in <what> (<mib>
    MiB needed)" when the body raises MemoryError. With mib None (no
    estimate) only the MemoryError is translated.
    """
    physical = _physical_mib()
    if mib is not None and mib > physical:
        raise ModelValidationError(
            [f"{where}: {what} needs {mib:.0f} MiB{extent}, more than this "
             f"machine's {physical:.0f} MiB of memory"]
        )
    try:
        yield
    except MemoryError:
        needed = "" if mib is None else f" ({mib:.0f} MiB needed)"
        raise ModelValidationError([f"{where}: out of memory in {what}{needed}"]) from None


def validate_model(model: LinearSystemModel) -> LinearSystemModel:
    """Check every model invariant, returning the model unchanged if valid.

    Shapes are one comparison per field; definiteness is one batched
    ``eigvalsh`` per field: R's smallest eigenvalue must exceed
    ``PD_CHECK_TOL``, and that of Q, W and V_noise must be at least
    ``PSD_EIG_TOL``. This is the package's only definiteness check.

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
    layout = _stage_layout(model.N, model.state_dim, model.control_dim, model.obs_dim)
    for name, (count, shape, _) in layout.items():
        stack = getattr(model, name)
        if stack is not None and stack.shape != (count, *shape):
            violations.append(f"{name}: shape {stack.shape}, expected {(count, *shape)}")
    if not violations:
        for name in ("Q", "R", "W", "V_noise"):
            low = np.linalg.eigvalsh(getattr(model, name))[:, 0]
            ok = low > PD_CHECK_TOL if name == "R" else low >= PSD_EIG_TOL
            what = "positive definite" if name == "R" else "positive semidefinite"
            violations += [f"{name} not {what} at k={k}" for k in np.flatnonzero(~ok)]
    if violations:
        raise ModelValidationError(violations)
    return model


def tau0_pair(tau0) -> tuple:
    """(P[tau0 = 0], P[tau0 = 1]) of a point value 0 or 1 or a 2-entry distribution.

    Raises ModelValidationError for anything else, NaN entries included.
    """
    if isinstance(tau0, (int, np.integer)) and not isinstance(tau0, bool):
        if tau0 not in (0, 1):
            raise ModelValidationError([f"tau0 point value must be 0 or 1, got {tau0}"])
        return (float(1 - tau0), float(tau0))
    try:
        dist = pair(tau0)
    except ValueError:
        raise ModelValidationError(
            [f"tau0 must be 0, 1, or a 2-entry distribution, got {tau0!r}"]
        ) from None
    if not (min(dist) >= -1e-12 and abs(sum(dist) - 1.0) <= 1e-9):
        raise ModelValidationError(
            [f"tau0 distribution must be nonnegative and sum to 1, got {tau0!r}"]
        )
    return dist


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
        try:
            pair = tau0_pair(self.tau0)
            if not isinstance(self.tau0, (int, np.integer)):  # a distribution
                object.__setattr__(self, "tau0", pair)
        except ModelValidationError as e:
            violations += e.violations
        if violations:
            raise ModelValidationError(violations)

    @property
    def symmetric(self) -> bool:
        return abs(self.p - (1.0 - self.q)) <= SYMMETRIC_CHAIN_TOL

    def tau0_distribution(self) -> np.ndarray:
        """(P[tau0=0], P[tau0=1]) regardless of how tau0 was given."""
        return np.array(tau0_pair(self.tau0))

    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic transition matrix T with T[i, j] = P[tau'=j | tau=i]."""
        return np.array([[self.q, 1.0 - self.q], [1.0 - self.p, self.p]])


def symmetric_chain(p: float, tau0: Union[int, tuple] = 1) -> ReliabilityChain:
    """The symmetric chain with ON-persistence p (so q = 1 - p)."""
    return ReliabilityChain(p=p, q=1.0 - p, tau0=tau0)


@dataclass(frozen=True)
class DelayProfile:
    """Transport delay between plant and controller, measured in stages.

    Fields (whole numbers read by ``count``, so 2.0 reads as 2):
        M_F: forward delay (measurement to controller).
        M_B: backward delay (controller to plant, compute time included).
        N: optional horizon binding (>= 1); needed for the derived quantities.

    Derived, for M = M_F + M_B >= 1 and a bound horizon N:
        a: N mod M when nonzero, else M.
        c: (N - a) / M, the number of controls that arrive in the horizon.

    M = 0 denotes perfect match; a and c are undefined there.
    """

    M_F: int
    M_B: int
    N: Optional[int] = None

    def __post_init__(self):
        bounds = (("M_F", 0), ("M_B", 0)) + ((("N", 1),) if self.N is not None else ())
        for name, low in bounds:
            object.__setattr__(self, name, _whole(name, getattr(self, name), low))

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


def bind_delay(delay: Optional[DelayProfile], N: int) -> Optional[DelayProfile]:
    """None for no delay (None or M = 0), else the profile bound to horizon N.

    Raises ModelValidationError "horizon shorter than round-trip delay" when N < M.
    """
    if delay is None or delay.M == 0:
        return None
    delay = delay.bound_to(N)
    if N < delay.M:
        raise ModelValidationError(["horizon shorter than round-trip delay"])
    return delay


def arrival_grid(delay: Optional[DelayProfile], N: int) -> tuple:
    """(step, M_F, M, epochs): the epochs on which a controller acts.

    Epoch j starts at stage j step, is served at j step + M_F, and its
    control arrives at j step + M. Perfect match (None or M = 0) is
    (1, 0, 0, N): every stage is an epoch, served and acted on at once. A
    delay is (M, M_F, M, c), bound to horizon N as in `bind_delay`.
    """
    delay = bind_delay(delay, N)
    if delay is None:
        return 1, 0, 0, N
    return delay.M, delay.M_F, delay.M, delay.c


def state_vector(x0, n: int) -> np.ndarray:
    """x0 as a finite float (n,) vector, zeros for None; ModelValidationError otherwise."""
    if x0 is None:
        return np.zeros(n)
    x0 = np.atleast_1d(_floats("x0", x0))
    if x0.shape != (n,):
        raise ModelValidationError([f"x0 shape {x0.shape}, expected ({n},)"])
    if not np.isfinite(x0).all():
        raise ModelValidationError(["x0: non-finite entries"])
    return x0


# Config entry readers: each returns the converted entry or raises ValueError
# with the reason, which ``config_block`` turns into a ConfigError naming the
# entry. JSON true/false are not numbers here.

def number(value) -> float:
    """A finite number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("must be a number")
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return float(value)


def count(value) -> int:
    """A whole number >= 0 (2.0 reads as 2)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        value >= 0 and value % 1 == 0
    ):
        raise ValueError("must be a whole number >= 0")
    return int(value)


def _whole(name: str, value, low: int) -> int:
    """value read by ``count``; ModelValidationError naming it unless value >= low."""
    try:
        whole = count(value)
    except ValueError:
        whole = -1
    if whole < low:
        raise ModelValidationError([f"{name} must be a whole number >= {low}, got {value!r}"])
    return whole


def flag(value) -> bool:
    """JSON true or false."""
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def pair(value) -> tuple:
    """Two finite numbers (a list, tuple or array of two), as a tuple."""
    if isinstance(value, (list, tuple, np.ndarray)) and len(value) == 2:
        try:
            return (number(value[0]), number(value[1]))
        except ValueError:
            pass
    raise ValueError("must be two finite numbers")


def choice(*options):
    """Reader accepting exactly one of options."""
    def read(value):
        if value not in options:
            raise ValueError(f"must be one of {list(options)}")
        return value
    return read


def listed(read, what: str):
    """Reader of a list whose entries each pass read."""
    def read_list(value) -> list:
        try:
            if isinstance(value, list):
                return [read(v) for v in value]
        except ValueError:
            pass
        raise ValueError(f"must be a list of {what}")
    return read_list


def config_block(where: str, block, fields: dict, required=()) -> dict:
    """The entries of one config object, each converted by its reader.

    Args:
        where: the block's path in the config (``"placement.catalog[2]"``).
        block: the parsed JSON value.
        fields: key -> reader (see ``number``, ``count``, ...) or None to
            pass the entry through unchanged (arrays, nested blocks).
        required: keys that must be present.

    Returns:
        key -> converted entry, for the keys present in block.

    Raises:
        ConfigError: when block is not an object, has unknown or missing
            keys (``"<where>: unknown keys [...]"``), or an entry fails its
            reader (``"<where>.<key> <reason>, got <value>"``).
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {block!r}")
    unknown = sorted(set(block) - set(fields))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = [key for key in required if key not in block]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    entries = {}
    for key, value in block.items():
        read = fields[key]
        try:
            entries[key] = value if read is None else read(value)
        except ValueError as e:
            raise ConfigError(f"{where}.{key} {e}, got {value!r}") from None
    return entries


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
# Config blocks for the types owned by this module.
# ---------------------------------------------------------------------------

def system_from_config(block) -> tuple:
    """Parse a system block into (model, x0).

    Raises:
        ConfigError: on a malformed block or entry (see ``config_block``),
            or any ModelValidationError of the system or x0.
    """
    arrays = dict.fromkeys(("A", "B", "C", "Q", "R", "W", "V_noise", "drift", "x0"))
    entries = config_block(
        "system", block, {"N": count, **arrays}, required=("N", "A", "B", "Q", "R", "W")
    )
    x0 = entries.pop("x0", None)
    try:
        model = make_system(**entries)
        return model, None if x0 is None else state_vector(x0, model.state_dim)
    except ModelValidationError as e:
        raise ConfigError(f"system: {e}") from e


def reliability_from_config(block) -> ReliabilityChain:
    """Parse a reliability block; q defaults to 1 - p (a symmetric chain)."""
    entries = config_block(
        "reliability", block, {"p": number, "q": number, "tau0": None}, required=("p",)
    )
    p = entries["p"]
    try:
        return ReliabilityChain(p=p, q=entries.get("q", 1.0 - p), tau0=entries.get("tau0", 1))
    except ModelValidationError as e:
        raise ConfigError(f"reliability: {e}") from e


def delay_from_config(block) -> Optional[DelayProfile]:
    """Parse a delay block ({"M_F": ..., "M_B": ...}); None means no delay."""
    if block is None:
        return None
    entries = config_block("delay", block, {"M_F": count, "M_B": count}, required=("M_F", "M_B"))
    return DelayProfile(**entries)
