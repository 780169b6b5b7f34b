"""Controllers: regime wiring, the dispatcher, the batched law's gating and
grid discipline, and the sandwich construction."""

import numpy as np
import pytest

import fogctl as fc
from fogctl import policy
from fogctl.estimation import propagate_mean

from reference import (
    closed_form_cost,
    make_regime,
    random_delay,
    random_model,
    scalar_fixture,
)


def perfect_gains(N=3, p=0.5):
    model, _ = scalar_fixture(N=N)
    return model, fc.backward_recursion_perfect(model, p)


def delayed_gains(N=4, p=0.5, M_F=1, M_B=1):
    model, _ = scalar_fixture(N=N)
    delay = fc.DelayProfile(M_F=M_F, M_B=M_B)
    return model, fc.backward_recursion_delayed(model, p, delay)


class TestControllerRegime:
    def test_tag_must_match_observation_and_delay(self):
        _, gains = perfect_gains()
        reg = fc.ControllerRegime(observation="full", gains=gains)
        assert reg.gains.regime == "full-perfect"
        with pytest.raises(fc.ModelValidationError, match="regime requires"):
            fc.ControllerRegime(observation="partial", gains=gains)
        _, dgains = delayed_gains()
        with pytest.raises(fc.ModelValidationError, match="regime requires"):
            fc.ControllerRegime(observation="full", gains=dgains)
        ok = fc.ControllerRegime(observation="full", gains=dgains, delay=dgains.delay)
        assert ok.gains.regime == "full-delayed"

    def test_observation_values(self):
        _, gains = perfect_gains()
        with pytest.raises(fc.ModelValidationError, match="observation"):
            fc.ControllerRegime(observation="psychic", gains=gains)

    def test_drift_compensation_default_off(self):
        _, gains = perfect_gains()
        assert fc.ControllerRegime(observation="full", gains=gains).compensate_drift is False


class TestDispatcher:
    """solve/min_cost against the independent routing in tests/reference.py."""

    def test_matches_reference_routing(self, rng):
        for _ in range(12):
            model, x0 = random_model(rng, partial=True)
            p = float(rng.uniform(0.05, 0.95))
            tau0 = int(rng.integers(0, 2))
            for delay in (None, random_delay(rng, model.N)):
                for observation in ("full", "partial"):
                    regime = fc.solve(model, p, delay, observation)
                    ref = make_regime(model, p, delay, observation)
                    assert regime.gains.regime == ref.gains.regime
                    assert np.array_equal(regime.gains.V, ref.gains.V)
                    got = fc.min_cost(model, regime, x0, tau0)
                    assert got == closed_form_cost(model, p, delay, observation, x0, tau0)

    def test_zero_delay_is_full_perfect(self):
        model, x0 = scalar_fixture(N=4)
        regime = fc.solve(model, 0.7, fc.DelayProfile(M_F=0, M_B=0))
        assert regime.gains.regime == "full-perfect" and regime.delay is None
        assert np.array_equal(regime.gains.V, fc.backward_recursion_perfect(model, 0.7).V)
        assert fc.min_cost(model, regime, x0) == closed_form_cost(model, 0.7, None, "full", x0)

    @pytest.mark.parametrize("delay", [None, (1, 1)])
    @pytest.mark.parametrize("x0,tau0,match", [
        (np.ones(3), 5, "tau0 point value"),
        (np.ones(3), (0.5, 0.6), "tau0 distribution"),
        (np.ones(2), 1, "x0 shape"),
    ])
    def test_x0_and_tau0_checked_before_the_penalty(self, monkeypatch, delay, x0, tau0, match):
        # the exact penalty can take seconds: a malformed x0 or tau0 must not wait for it
        model = fc.make_system(A=np.eye(3), B=np.ones((3, 1)), C=np.eye(3)[:1], Q=np.eye(3),
                               R=1.0, W=np.eye(3), V_noise=1.0, N=6)
        delay = None if delay is None else fc.DelayProfile(*delay)
        regime = fc.solve(model, 0.7, delay, "partial")

        def no_penalty(*args, **kwargs):
            raise AssertionError("estimation penalty computed before x0 and tau0 were read")

        monkeypatch.setattr(policy, "expected_estimation_penalty", no_penalty)
        with pytest.raises(fc.ModelValidationError, match=match):
            fc.min_cost(model, regime, x0, tau0)

    def test_bad_observation_raises(self):
        model, _ = scalar_fixture(N=4)
        for delay in (None, fc.DelayProfile(M_F=1, M_B=1)):
            with pytest.raises(fc.ModelValidationError, match="observation"):
                fc.solve(model, 0.5, delay, observation="psychic")


ALWAYS_ON = fc.ReliabilityChain(p=1.0, q=0.0, tau0=1)
ALWAYS_OFF = fc.ReliabilityChain(p=0.0, q=1.0, tau0=0)


def traced(model, regime, chain, x0):
    """One replication of the simulator's batched law, traces recorded."""
    cfg = fc.SimulationConfig(replications=1, record_traces=True)
    return fc.run(model, chain, regime.delay, regime, cfg, x0=x0)["traces"]


def noisy_scalar(N):
    return fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, V_noise=1.0, N=N)


class TestPerfectLaws:
    def test_full_feedback_when_on(self):
        model, gains = perfect_gains(N=3)
        tr = traced(model, fc.solve(model, 0.5), ALWAYS_ON, np.array([2.0]))
        for k in range(3):
            assert tr.u[0, k] == pytest.approx(-(gains.V[k] @ tr.x[0, k]))

    def test_full_zero_when_off(self):
        model, _ = perfect_gains(N=3)
        tr = traced(model, fc.solve(model, 0.5), ALWAYS_OFF, np.array([2.0]))
        assert np.all(tr.tau == 0) and np.all(tr.u == 0.0)

    def test_stage_bounds(self):
        _, gains = perfect_gains(N=3)
        model, x0 = scalar_fixture(N=4)
        regime = fc.ControllerRegime(observation="full", gains=gains)
        with pytest.raises(fc.ModelValidationError, match="gains horizon 3 != model horizon 4"):
            traced(model, regime, ALWAYS_ON, x0)

    def test_partial_uses_filter_mean(self):
        model = noisy_scalar(N=3)
        regime = fc.solve(model, 0.5, observation="partial")
        tr = traced(model, regime, ALWAYS_ON, np.array([3.0]))
        assert not np.allclose(tr.x_hat[0, 1:], tr.x[0, 1:3])
        for k in range(3):
            assert tr.u[0, k] == pytest.approx(-(regime.gains.V[k] @ tr.x_hat[0, k]))


class TestDelayedLaws:
    """M = 2 on N = 5: arrivals at stages 2 and 4, generated from stages 0 and 2."""

    delay = fc.DelayProfile(M_F=1, M_B=1)

    def test_on_grid_feedback_through_predictor(self):
        model, x0 = scalar_fixture(N=5)
        regime = fc.solve(model, 0.5, self.delay)
        tr = traced(model, regime, ALWAYS_ON, x0)
        for t0 in (0, 2):
            pred = propagate_mean(model, tr.x[:, t0], tr.u[:, t0], t0, t0 + 2)
            assert tr.u[0, t0 + 2] == pytest.approx(-(regime.gains.V[t0 + 2] @ pred[0]))
            assert tr.u[0, t0 + 2] != pytest.approx(-(regime.gains.V[t0 + 2] @ tr.x[0, t0 + 2]))

    def test_partial_uses_filter_mean_on_grid(self):
        model = noisy_scalar(N=5)
        regime = fc.solve(model, 0.5, self.delay, observation="partial")
        tr = traced(model, regime, ALWAYS_ON, np.array([2.0]))
        for t0 in (0, 2):
            pred = propagate_mean(model, tr.x_hat[:, t0], tr.u[:, t0], t0, t0 + 2)
            assert tr.u[0, t0 + 2] == pytest.approx(-(regime.gains.V[t0 + 2] @ pred[0]))
        off = traced(model, regime, ALWAYS_OFF, np.array([2.0]))
        assert np.all(off.u == 0.0)

    def test_partial_off_grid_silent_without_clock_check(self):
        model = noisy_scalar(N=5)
        regime = fc.solve(model, 0.5, self.delay, observation="partial")
        tr = traced(model, regime, ALWAYS_ON, np.ones(1))
        assert np.all(tr.u[0, [0, 1, 3]] == 0.0)
        assert np.all(tr.u[0, [2, 4]] != 0.0)


class TestSandwichPolicy:
    def test_gains_built_at_pessimistic_parameter(self):
        model, _ = scalar_fixture(N=3)
        reg = fc.sandwich_policy(model, p=0.9, q=0.3)
        assert reg.gains.p_used == pytest.approx(0.7)
        assert reg.gains.regime == "full-perfect"
        ref = fc.backward_recursion_perfect(model, 0.7)
        for k in range(model.N):
            assert np.allclose(reg.gains.V[k], ref.V[k], atol=1e-14)

    def test_hypotheses_enforced(self):
        model, _ = scalar_fixture(N=3)
        with pytest.raises(fc.ModelValidationError, match="sandwich hypotheses violated"):
            fc.sandwich_policy(model, p=0.5, q=0.5)  # symmetric excluded
        with pytest.raises(fc.ModelValidationError, match="sandwich hypotheses violated"):
            fc.sandwich_policy(model, p=0.3, q=0.5)

    def test_delayed_variant(self):
        model, _ = scalar_fixture(N=4)
        reg = fc.sandwich_policy(model, p=0.9, q=0.3, delay=fc.DelayProfile(M_F=1, M_B=1))
        assert reg.gains.regime == "full-delayed"
        assert reg.delay.M == 2 and reg.delay.N == 4

    def test_partial_variant(self):
        model, _ = scalar_fixture(N=3)
        reg = fc.sandwich_policy(model, p=0.9, q=0.3, observation="partial")
        assert reg.gains.regime == "partial-perfect"
