"""The controller for each regime, its minimum cost, and the sandwich policy.

`solve` maps (model, p, delay, observation) to the optimal controller: the
one backward recursion on the delay's arrival grid, tagged for full or
partial observation. `min_cost` maps a controller to its exact minimum
expected cost through the one closed form, attaching the estimation penalty
under partial observation. Every caller that needs a regime or a
closed-form cost goes through these two.

The control law itself is linear feedback through the schedule's gains,
gated by the endpoint's availability when the control is generated; the
simulator runs it on batches of replications. Delayed regimes act only on
the arrival grid (stages divisible by M) and never emit a control at stage 0;
perfect match is the M = 0 grid, acting at every stage (`arrival_grid`).

The sandwich policy runs the symmetric-chain gains computed at the pessimistic
parameter p' = 1 - q on an asymmetric chain with p > 1 - q; its expected cost
is bracketed by the two symmetric optima, which the oracle module checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .estimation import expected_estimation_penalty
from .model import (
    CostBreakdown,
    DelayProfile,
    LinearSystemModel,
    ModelValidationError,
    bind_delay,
    state_vector,
    tau0_pair,
)
from .riccati import GainSchedule, backward_recursion, closed_form


@dataclass(frozen=True)
class ControllerRegime:
    """A complete controller: observation mode, match type, and gains.

    compensate_drift selects whether the controller's internal propagation
    feeds the model's known drift (affine-compensated mode) or ignores it
    (the default, matching the zero-mean derivations).
    """

    observation: str
    gains: GainSchedule
    delay: Optional[DelayProfile] = None
    compensate_drift: bool = False

    def __post_init__(self):
        if self.observation not in ("full", "partial"):
            raise ModelValidationError(
                [f"observation must be 'full' or 'partial', got {self.observation!r}"]
            )
        match = "delayed" if (self.delay is not None and self.delay.M >= 1) else "perfect"
        expected = f"{self.observation}-{match}"
        if self.gains.regime != expected:
            raise ModelValidationError(
                [f"gain schedule tagged {self.gains.regime}, regime requires {expected}"]
            )


def solve(
    model: LinearSystemModel,
    p: float,
    delay: Optional[DelayProfile] = None,
    observation: str = "full",
    compensate_drift: bool = False,
) -> ControllerRegime:
    """The optimal controller for a symmetric chain with ON-persistence p.

    Runs `backward_recursion` on the delay's arrival grid (every stage for
    None and M = 0 alike) and retags the schedule for partial observation.
    The regime carries the delay bound to the horizon.

    Raises:
        ModelValidationError: observation other than "full" or "partial",
            or any error of the recursion it runs.
    """
    gains = backward_recursion(model, p, delay)
    if observation == "partial":
        gains = gains.with_regime(gains.regime.replace("full-", "partial-"))
    return ControllerRegime(
        observation=observation, gains=gains, delay=gains.delay,
        compensate_drift=compensate_drift,
    )


def _split(delay: Optional[DelayProfile]) -> tuple:
    return (0, 0) if delay is None else (delay.M_F, delay.M_B)


def check_fits(
    regime: ControllerRegime, model: LinearSystemModel, delay: Optional[DelayProfile]
) -> Optional[DelayProfile]:
    """`bind_delay(delay, model.N)`, after checking the regime's gains were built for it.

    Raises ModelValidationError "configuration inconsistencies" when the gains
    were built for another delay split (M_F, M_B) or another horizon.
    """
    delay = bind_delay(delay, model.N)
    (M_F, M_B), (gains_M_F, gains_M_B) = _split(delay), _split(regime.delay)
    if M_F + M_B != gains_M_F + gains_M_B:
        raise ModelValidationError(
            [f"configuration inconsistencies: delay M={M_F + M_B} but policy gains "
             f"built for M={gains_M_F + gains_M_B}"]
        )
    if M_F != gains_M_F:
        raise ModelValidationError(
            [f"configuration inconsistencies: delay split M_F={M_F}, M_B={M_B} but policy "
             f"gains built for M_F={gains_M_F}, M_B={gains_M_B}"]
        )
    if regime.gains.N != model.N:
        raise ModelValidationError(
            [f"configuration inconsistencies: gains horizon {regime.gains.N} "
             f"!= model horizon {model.N}"]
        )
    return delay


def min_cost(
    model: LinearSystemModel,
    regime: ControllerRegime,
    x0,
    tau0=1,
    penalty_config: Optional[dict] = None,
) -> CostBreakdown:
    """Exact minimum expected cost of a regime built by `solve` (`closed_form`).

    Under partial observation the estimation penalty at the schedule's rate
    is attached, computed with penalty_config (see
    `expected_estimation_penalty`; exact enumeration by default). tau0 enters
    through the first service gate: it matters when M_F = 0 (perfect match
    included), and on a symmetric chain a later gate is ON with probability
    p whatever tau0 was. A malformed x0 or tau0 raises before the penalty is
    computed.
    """
    x0 = state_vector(x0, model.state_dim)
    tau0_pair(tau0)
    gains, penalty = regime.gains, None
    if regime.observation == "partial":
        penalty = expected_estimation_penalty(
            model, gains.p_used, gains, gains.regime, penalty_config
        )
    return closed_form(gains, model, x0, tau0, penalty)


def sandwich_policy(
    model: LinearSystemModel,
    p: float,
    q: float,
    delay: Optional[DelayProfile] = None,
    observation: str = "full",
) -> ControllerRegime:
    """Symmetric gains at p' = 1 - q, packaged to run on the (p, q) chain.

    Args:
        model: the plant.
        p: ON-persistence of the target asymmetric chain.
        q: OFF-persistence of the target asymmetric chain.
        delay: optional delay profile (delayed gains when M >= 1).
        observation: "full" or "partial".

    Raises:
        ModelValidationError: "sandwich hypotheses violated" unless p > 1 - q
            strictly (the symmetric case is excluded).
    """
    if p <= 1.0 - q:
        raise ModelValidationError(["sandwich hypotheses violated: requires p > 1 - q"])
    return solve(model, 1.0 - q, delay, observation)
