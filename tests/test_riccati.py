"""Backward recursions and exact minimum-cost formulas."""

import numpy as np
import pytest

import fogctl as fc

from reference import random_delay, random_model, scalar_fixture, textbook_riccati


def psd_floor(X):
    return float(np.linalg.eigvalsh(np.asarray(X))[0])


class TestPerfectRecursion:
    def test_scalar_hand_values_p1(self):
        model, _ = scalar_fixture(N=1)
        sched = fc.backward_recursion_perfect(model, p=1.0)
        # V0 = (R + B K1 B)^-1 B K1 A = 1/2; L0 = Q + A K1 A = 2
        # Lambda0 = A K1 B V0 = 1/2; K0 = L0 - p Lambda0 = 3/2
        assert sched.V[0][0, 0] == pytest.approx(0.5, abs=1e-14)
        assert sched.L[0][0, 0] == pytest.approx(2.0, abs=1e-14)
        assert sched.Lambda[0][0, 0] == pytest.approx(0.5, abs=1e-14)
        assert sched.K[0][0, 0] == pytest.approx(1.5, abs=1e-14)
        assert sched.K[1][0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_scalar_hand_values_p0(self):
        model, _ = scalar_fixture(N=1)
        sched = fc.backward_recursion_perfect(model, p=0.0)
        assert sched.K[0][0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_initial_term_linear_in_p(self):
        model, x0 = scalar_fixture(N=4)
        K0 = {
            p: fc.backward_recursion_perfect(model, p).K[0][0, 0]
            for p in (0.0, 0.5, 1.0)
        }
        # only the last backward step is linear in p in general, but for N=1
        # it is exact; for N>1 check the first step of the recursion instead
        sched = fc.backward_recursion_perfect(model, 0.5)
        assert sched.K[0][0, 0] == pytest.approx(
            sched.L[0][0, 0] - 0.5 * sched.Lambda[0][0, 0], abs=1e-14
        )
        assert K0[1.0] <= K0[0.5] <= K0[0.0]

    def test_classical_reduction_at_p1(self, rng):
        # with the endpoint always ON the recursion must match the standard
        # discrete-time finite-horizon Riccati solution
        for _ in range(30):
            model, _ = random_model(rng)
            sched = fc.backward_recursion_perfect(model, p=1.0)
            P, F = textbook_riccati(
                [np.asarray(a) for a in model.A],
                [np.asarray(b) for b in model.B],
                [np.asarray(q) for q in model.Q[:-1]],
                [np.asarray(r) for r in model.R],
                np.asarray(model.Q[model.N]),
                model.N,
            )
            for k in range(model.N + 1):
                assert np.allclose(sched.K[k], P[k], atol=1e-10), f"K[{k}]"
            for k in range(model.N):
                assert np.allclose(sched.V[k], F[k], atol=1e-10), f"V[{k}]"

    def test_all_weights_psd(self, rng):
        for _ in range(15):
            model, _ = random_model(rng)
            p = float(rng.uniform(0, 1))
            sched = fc.backward_recursion_perfect(model, p)
            for fam in (sched.K, sched.L, sched.Lambda):
                for X in fam:
                    assert psd_floor(X) >= -1e-9
            # the no-control value always dominates the controlled one
            for k in range(model.N):
                assert psd_floor(sched.L[k] - sched.Lambda[k]) >= -1e-9

    def test_p_out_of_range_rejected(self):
        model, _ = scalar_fixture(N=2)
        with pytest.raises(fc.ModelValidationError):
            fc.backward_recursion_perfect(model, p=1.5)

    def test_regime_tag(self):
        model, _ = scalar_fixture(N=2)
        sched = fc.backward_recursion_perfect(model, p=0.5)
        assert sched.regime == "full-perfect"
        assert sched.delay is None and sched.P is None
        assert sched.N == 2


class TestDelayedRecursion:
    def test_scalar_hand_values(self):
        model, _ = scalar_fixture(N=3)
        delay = fc.DelayProfile(M_F=1, M_B=1)
        sched = fc.backward_recursion_delayed(model, p=1.0, delay=delay)
        # on-grid stages 0 and 2 absorb the control benefit, stage 1 does not
        assert sched.K[2][0, 0] == pytest.approx(1.5, abs=1e-14)
        assert sched.K[1][0, 0] == pytest.approx(2.5, abs=1e-14)
        assert sched.K[0][0, 0] == pytest.approx(12.0 / 7.0, abs=1e-14)
        # collateral weights: P2 = Lambda2, P1 pushed through A, P0 = Lambda0
        assert sched.P[2][0, 0] == pytest.approx(0.5, abs=1e-14)
        assert sched.P[1][0, 0] == pytest.approx(0.5, abs=1e-14)
        assert sched.P[0][0, 0] == pytest.approx(25.0 / 14.0, abs=1e-14)

    def test_off_grid_K_is_L_same_object(self, rng):
        for _ in range(10):
            model, _ = random_model(rng, N_low=4, N_high=9)
            delay = random_delay(rng, model.N)
            sched = fc.backward_recursion_delayed(model, float(rng.uniform(0, 1)), delay)
            M = delay.M
            for k in range(model.N):
                if k % M != 0:
                    assert sched.K[k] is sched.L[k]
                elif sched.p_used > 0 and float(np.abs(sched.Lambda[k]).max()) > 1e-12:
                    assert sched.K[k] is not sched.L[k]

    def test_collateral_psd_and_length(self, rng):
        for _ in range(10):
            model, _ = random_model(rng, N_low=4, N_high=9)
            delay = random_delay(rng, model.N)
            sched = fc.backward_recursion_delayed(model, 0.6, delay)
            bound = delay.bound_to(model.N)
            assert len(sched.P) == bound.c * bound.M + 1
            for X in sched.P:
                assert psd_floor(X) >= -1e-9

    def test_M1_matches_perfect_gains_but_not_cost(self):
        model, x0 = scalar_fixture(N=4)
        sched_p = fc.backward_recursion_perfect(model, p=0.8)
        sched_d = fc.backward_recursion_delayed(
            model, p=0.8, delay=fc.DelayProfile(M_F=1, M_B=0)
        )
        for k in range(model.N + 1):
            assert np.allclose(sched_d.K[k], sched_p.K[k], atol=1e-14)
        cost_p = fc.min_cost_full_perfect(sched_p, model, x0, tau0=1)
        cost_d = fc.min_cost_full_delayed(sched_d, model, x0)
        assert cost_d.collateral_trace_sum > 0
        assert cost_d.total > cost_p.total

    def test_p0_delayed_equals_p0_perfect_cost(self):
        model, x0 = scalar_fixture(N=5)
        cost_p = fc.min_cost_full_perfect(
            fc.backward_recursion_perfect(model, 0.0), model, x0, tau0=0
        )
        cost_d = fc.min_cost_full_delayed(
            fc.backward_recursion_delayed(model, 0.0, fc.DelayProfile(M_F=1, M_B=1)),
            model, x0,
        )
        assert cost_d.collateral_trace_sum == 0.0
        assert cost_d.total == pytest.approx(cost_p.total, rel=1e-14)

    def test_horizon_shorter_than_delay_rejected(self):
        model, _ = scalar_fixture(N=2)
        with pytest.raises(fc.ModelValidationError, match="horizon shorter"):
            fc.backward_recursion_delayed(model, 0.5, fc.DelayProfile(M_F=2, M_B=1))

    @pytest.mark.parametrize("delay", [None, (1, 1), (2, 1)])
    def test_overflow_names_first_stage_backward(self, delay):
        model = fc.make_system(A=1e200, B=1.0, Q=1.0, R=1.0, W=1.0, N=4)
        delay = None if delay is None else fc.DelayProfile(M_F=delay[0], M_B=delay[1])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            fc.ModelValidationError, match="non-finite value matrix at stage 3"
        ):
            fc.solve(model, 0.8, delay)

    def test_zero_delay_rejected(self):
        model, _ = scalar_fixture(N=2)
        with pytest.raises(fc.ModelValidationError):
            fc.backward_recursion_delayed(model, 0.5, fc.DelayProfile(M_F=0, M_B=0))


class TestMinCostFormulas:
    def test_scalar_perfect_total(self):
        model, x0 = scalar_fixture(N=1)
        sched = fc.backward_recursion_perfect(model, p=1.0)
        cost = fc.min_cost_full_perfect(sched, model, x0, tau0=1)
        assert cost.total == pytest.approx(2.5, abs=1e-14)
        assert cost.initial_state_term == pytest.approx(1.5, abs=1e-14)
        assert cost.disturbance_trace_sum == pytest.approx(1.0, abs=1e-14)
        assert cost.collateral_trace_sum == 0.0
        assert cost.estimation_penalty == 0.0

    def test_scalar_perfect_tau0_off(self):
        model, x0 = scalar_fixture(N=1)
        sched = fc.backward_recursion_perfect(model, p=1.0)
        cost = fc.min_cost_full_perfect(sched, model, x0, tau0=0)
        assert cost.total == pytest.approx(3.0, abs=1e-14)

    def test_tau0_distribution_interpolates(self, rng):
        model, x0 = random_model(rng)
        sched = fc.backward_recursion_perfect(model, 0.7)
        c0 = fc.min_cost_full_perfect(sched, model, x0, tau0=0).total
        c1 = fc.min_cost_full_perfect(sched, model, x0, tau0=1).total
        cmix = fc.min_cost_full_perfect(sched, model, x0, tau0=(0.25, 0.75)).total
        assert cmix == pytest.approx(0.25 * c0 + 0.75 * c1, rel=1e-12)

    @pytest.mark.parametrize("delay,x0,tau0", [
        (None, [3.0], 2),
        (None, [3.0], -1),
        (None, [3.0], (3.0, -2.0)),
        (None, [3.0], (float("nan"), float("nan"))),
        (None, [3.0], True),
        (None, [1.0, 2.0], 1),
        (None, [float("inf")], 1),
        ((1, 1), [1.0, 2.0], 1),
        ((1, 1), [[3.0]], 1),
        (None, [3.0], (True, False)),
    ], ids=["tau0-2", "tau0-negative", "tau0-negative-mass", "tau0-nan", "tau0-bool",
            "x0-shape", "x0-inf", "delayed-x0-shape", "delayed-x0-2d", "tau0-bool-entries"])
    def test_bad_x0_or_tau0_rejected(self, delay, x0, tau0):
        model, _ = scalar_fixture(N=4)
        delay = None if delay is None else fc.DelayProfile(M_F=delay[0], M_B=delay[1])
        regime = fc.solve(model, 0.5, delay)
        with pytest.raises(fc.ModelValidationError):
            fc.min_cost(model, regime, x0, tau0)
        if delay is None:
            with pytest.raises(fc.ModelValidationError):
                fc.min_cost_full_perfect(regime.gains, model, x0, tau0)

    def test_scalar_delayed_total(self):
        model, x0 = scalar_fixture(N=3)
        sched = fc.backward_recursion_delayed(model, 1.0, fc.DelayProfile(M_F=1, M_B=1))
        cost = fc.min_cost_full_delayed(sched, model, x0)
        assert cost.initial_state_term == pytest.approx(3.5, abs=1e-13)
        assert cost.disturbance_trace_sum == pytest.approx(5.0, abs=1e-13)
        assert cost.collateral_trace_sum == pytest.approx(1.0, abs=1e-13)
        assert cost.total == pytest.approx(9.5, abs=1e-13)

    def test_partial_adds_penalty(self):
        model, x0 = scalar_fixture(N=3)
        sched = fc.backward_recursion_perfect(model, 0.5).with_regime("partial-perfect")
        pen = fc.EstimationPenalty(per_stage=(0.0, 0.2, 0.3), total=0.25, method="exact-enumeration", standard_error=0.0)
        base = fc.min_cost_full_perfect(sched.with_regime("full-perfect"), model, x0, tau0=1)
        cost = fc.min_cost_partial_perfect(sched, model, x0, 1, pen)
        assert cost.total == pytest.approx(base.total + 0.25, rel=1e-14)
        assert cost.estimation_penalty == pytest.approx(0.25)

    def test_partial_penalty_length_checked(self):
        model, x0 = scalar_fixture(N=3)
        sched = fc.backward_recursion_perfect(model, 0.5).with_regime("partial-perfect")
        bad = fc.EstimationPenalty(per_stage=(0.1,), total=0.05, method="exact-enumeration", standard_error=0.0)
        with pytest.raises(fc.ModelValidationError, match="penalty horizon mismatch"):
            fc.min_cost_partial_perfect(sched, model, x0, 1, bad)

    def test_partial_delayed_penalty_length(self):
        model, x0 = scalar_fixture(N=7)
        delay = fc.DelayProfile(M_F=1, M_B=1)  # a=1, c=3: two interior epochs
        sched = fc.backward_recursion_delayed(model, 0.5, delay).with_regime("partial-delayed")
        pen = fc.EstimationPenalty(per_stage=(0.1, 0.2), total=0.15, method="exact-enumeration", standard_error=0.0)
        cost = fc.min_cost_partial_delayed(sched, model, x0, pen)
        assert cost.estimation_penalty == pytest.approx(0.15)
        bad = fc.EstimationPenalty(per_stage=(0.1,), total=0.05, method="exact-enumeration", standard_error=0.0)
        with pytest.raises(fc.ModelValidationError, match="penalty horizon mismatch"):
            fc.min_cost_partial_delayed(sched, model, x0, bad)

    def test_regime_mismatch_rejected(self):
        model, x0 = scalar_fixture(N=3)
        sched = fc.backward_recursion_perfect(model, 0.5)
        with pytest.raises(fc.ModelValidationError, match="regime mismatch"):
            fc.min_cost_full_delayed(sched, model, x0)


class TestGainSchedule:
    def test_with_regime_same_match_type_only(self):
        model, _ = scalar_fixture(N=2)
        sched = fc.backward_recursion_perfect(model, 0.5)
        assert sched.with_regime("partial-perfect").regime == "partial-perfect"
        with pytest.raises(fc.ModelValidationError, match="match type"):
            sched.with_regime("full-delayed")

    def test_unknown_regime_rejected(self):
        model, _ = scalar_fixture(N=2)
        sched = fc.backward_recursion_perfect(model, 0.5)
        with pytest.raises(fc.ModelValidationError):
            sched.with_regime("sliced-bread")

    def test_to_jsonable_shape(self):
        model, _ = scalar_fixture(N=3)
        sched = fc.backward_recursion_delayed(model, 0.5, fc.DelayProfile(M_F=1, M_B=1))
        out = sched.to_jsonable()
        assert out["regime"] == "full-delayed"
        assert out["p_used"] == 0.5
        assert len(out["K"]) == 4 and len(out["V"]) == 3
        assert out["delay"] == {"M_F": 1, "M_B": 1}
        assert len(out["P"]) == 3
        import json

        json.dumps(out)  # must be serializable as-is

    def test_regimes_constant(self):
        assert fc.REGIMES == (
            "full-perfect", "partial-perfect", "full-delayed", "partial-delayed"
        )
