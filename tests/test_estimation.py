"""Filtering, delayed prediction, window algebra, estimation penalties."""

import numpy as np
import pytest

import fogctl as fc
from fogctl.estimation import gated_posterior, predict_covariances

from reference import random_model


def noisy_scalar(N, V=1.0):
    model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, V_noise=V, N=N)
    return model, np.array([1.0])


class TestFilterTransitions:
    def test_predict_hand_values(self):
        model = fc.make_system(A=2.0, B=1.0, Q=1.0, R=1.0, W=3.0, N=1)
        state = fc.FilterState(x_hat=np.array([2.0]), Sigma=np.array([[1.0]]), k=0)
        nxt = fc.kalman_predict(state, model, np.array([3.0]))
        assert nxt.x_hat[0] == pytest.approx(7.0)
        assert nxt.Sigma[0, 0] == pytest.approx(7.0)
        assert nxt.k == 1
        assert nxt.last_update_stage is None

    def test_predict_known_drift_override(self):
        model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, drift=np.array([[2.0]]), N=1)
        state = fc.FilterState(x_hat=np.array([1.0]), Sigma=np.array([[0.0]]), k=0)
        with_drift = fc.kalman_predict(state, model, np.array([0.0]))
        assert with_drift.x_hat[0] == pytest.approx(3.0)
        overridden = fc.kalman_predict(state, model, np.array([0.0]), known_drift=np.array([0.0]))
        assert overridden.x_hat[0] == pytest.approx(1.0)

    def test_predict_guards(self):
        model, _ = noisy_scalar(N=1)
        state = fc.FilterState(x_hat=np.zeros(1), Sigma=np.zeros((1, 1)), k=1)
        with pytest.raises(fc.ModelValidationError, match="past the horizon"):
            fc.kalman_predict(state, model, np.zeros(1))
        state0 = fc.FilterState(x_hat=np.zeros(1), Sigma=np.zeros((1, 1)), k=0)
        with pytest.raises(fc.ModelValidationError, match="shape"):
            fc.kalman_predict(state0, model, np.zeros(2))

    def test_update_hand_values(self):
        model, _ = noisy_scalar(N=1, V=1.0)
        state = fc.FilterState(x_hat=np.zeros(1), Sigma=np.array([[1.0]]), k=0)
        post = fc.kalman_update(state, model, np.array([2.0]))
        # gain = Sigma / (Sigma + V) = 1/2; Joseph posterior = 1/2
        assert post.x_hat[0] == pytest.approx(1.0)
        assert post.Sigma[0, 0] == pytest.approx(0.5)
        assert post.k == 0 and post.last_update_stage == 0

    def test_update_singular_innovation_rejected(self):
        model, _ = noisy_scalar(N=1, V=0.0)
        state = fc.FilterState(x_hat=np.zeros(1), Sigma=np.zeros((1, 1)), k=0)
        with pytest.raises(fc.ModelValidationError, match="innovation covariance singular"):
            fc.kalman_update(state, model, np.zeros(1))

    def test_update_reduces_uncertainty(self, rng):
        for _ in range(10):
            model, _ = random_model(rng, partial=True)
            Sig = np.eye(model.state_dim) * float(rng.uniform(0.5, 2.0))
            state = fc.FilterState(x_hat=np.zeros(model.state_dim), Sigma=Sig, k=0)
            post = fc.kalman_update(state, model, rng.normal(size=model.obs_dim))
            d = np.linalg.eigvalsh(state.Sigma - post.Sigma)
            assert d[0] >= -1e-9

    def test_filter_state_rejects_indefinite_covariance(self):
        with pytest.raises(fc.ModelValidationError):
            fc.FilterState(x_hat=np.zeros(1), Sigma=np.array([[-1.0]]), k=0)


class TestDelayedPredictor:
    def test_hand_value_no_drift(self):
        model = fc.make_system(A=2.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=4)
        lam = (np.array([1.0]), np.array([0.5]))
        assert fc.delayed_predictor(lam, model, k=2, M=2)[0] == pytest.approx(5.0)

    def test_hand_value_with_drift(self):
        drift = np.array([[1.0], [-1.0], [2.0], [0.0]])
        model = fc.make_system(A=2.0, B=1.0, Q=1.0, R=1.0, W=1.0, drift=drift, N=4)
        lam = (np.array([1.0]), np.array([0.5]))
        # x1 = 2*1 + 0.5 + 1 = 3.5; x2 = 2*3.5 - 1 = 6
        assert fc.delayed_predictor(lam, model, k=2, M=2)[0] == pytest.approx(6.0)
        stripped = model.without_drift()
        assert fc.delayed_predictor(lam, stripped, k=2, M=2)[0] == pytest.approx(5.0)

    def test_grid_guards(self):
        model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=6)
        lam = (np.zeros(1), np.zeros(1))
        with pytest.raises(fc.ModelValidationError, match="off the arrival grid"):
            fc.delayed_predictor(lam, model, k=3, M=2)
        with pytest.raises(fc.ModelValidationError, match="precedes the first"):
            fc.delayed_predictor(lam, model, k=0, M=2)
        with pytest.raises(fc.ModelValidationError, match="M >= 1"):
            fc.delayed_predictor(lam, model, k=2, M=0)

    def test_matches_propagate_mean(self, rng):
        model, _ = random_model(rng, N_low=6, N_high=8)
        x = rng.normal(size=model.state_dim)
        u = rng.normal(size=model.control_dim)
        got = fc.delayed_predictor((x, u), model, k=4, M=4)
        want = fc.propagate_mean(model, x, u, 0, 4)
        assert np.allclose(got, want, atol=1e-12)


class TestWindowAlgebra:
    def test_transition_product_hand(self):
        model = fc.make_system(A=2.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=3)
        assert fc.transition_product(model, 2, 0)[0, 0] == pytest.approx(4.0)
        assert fc.transition_product(model, 1, 1)[0, 0] == pytest.approx(1.0)

    def test_window_noise_hand(self):
        model = fc.make_system(A=2.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=3)
        # Xi(0,2) = A W A^T + W = 4 + 1
        assert fc.window_noise(model, 0, 2)[0, 0] == pytest.approx(5.0)
        assert fc.window_noise(model, 1, 1)[0, 0] == pytest.approx(0.0)

    def test_window_noise_matches_monte_carlo_shape(self, rng):
        # second-moment identity: Xi(t0,t1) = Cov(x_t1 | x_t0, zero controls)
        model, _ = random_model(rng, N_low=5, N_high=7)
        t0, t1 = 1, model.N - 1
        Xi = fc.window_noise(model, t0, t1)
        n = model.state_dim
        acc = np.zeros((n, n))
        Phi = np.eye(n)
        for t in range(t1 - 1, t0 - 1, -1):
            acc += Phi @ model.W[t] @ Phi.T
            Phi = Phi @ model.A[t]
        assert np.allclose(Xi, acc, atol=1e-12)


class TestPenaltyStructures:
    def test_zero_penalty(self):
        pen = fc.zero_penalty((0, 2, 4))
        assert pen.per_stage == (0.0, 0.0, 0.0)
        assert pen.total == 0.0 and pen.standard_error == 0.0
        assert pen.stages == (0, 2, 4)

    def test_default_stage_labels(self):
        pen = fc.EstimationPenalty(
            per_stage=(0.0, 0.1), total=0.1, method="exact-enumeration", standard_error=0.0
        )
        assert pen.stages == (0, 1)

    def test_negative_term_rejected(self):
        with pytest.raises(fc.ModelValidationError):
            fc.EstimationPenalty(
                per_stage=(-0.5,), total=0.0, method="exact-enumeration", standard_error=0.0
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(fc.ModelValidationError):
            fc.EstimationPenalty(per_stage=(), total=0.0, method="psychic", standard_error=0.0)


class TestPerfectPenalty:
    def test_hand_value_and_cost(self):
        model, x0 = noisy_scalar(N=2)
        sched = fc.backward_recursion_perfect(model, p=1.0)
        pen = fc.expected_estimation_penalty(model, 1.0, sched, "partial-perfect")
        assert pen.per_stage == pytest.approx((0.0, 0.25), abs=1e-14)
        assert pen.total == pytest.approx(0.25, abs=1e-14)
        assert pen.standard_error == 0.0
        cost = fc.min_cost_partial_perfect(
            sched.with_regime("partial-perfect"), model, x0, 1, pen
        )
        assert cost.total == pytest.approx(4.35, abs=1e-13)

    def test_total_scales_with_p(self):
        # with N=2 the lone term is conditionally independent of p, so the
        # availability weighting is exposed directly
        model, _ = noisy_scalar(N=2)
        for p in (0.0, 0.4, 1.0):
            sched = fc.backward_recursion_perfect(model, p)
            pen = fc.expected_estimation_penalty(model, p, sched, "partial-perfect")
            assert pen.total == pytest.approx(0.25 * p, abs=1e-14)

    def test_exact_vs_monte_carlo(self):
        model, _ = noisy_scalar(N=6)
        sched = fc.backward_recursion_perfect(model, 0.6)
        exact = fc.expected_estimation_penalty(model, 0.6, sched, "partial-perfect")
        mc = fc.expected_estimation_penalty(
            model, 0.6, sched, "partial-perfect",
            config={"method": "monte-carlo", "replications": 60_000, "seed": 7},
        )
        assert mc.standard_error > 0
        assert abs(mc.total - exact.total) <= 4 * mc.standard_error + 1e-12

    def test_exact_observation_penalty_is_zero(self):
        model, _ = noisy_scalar(N=5, V=0.0)
        sched = fc.backward_recursion_perfect(model, 0.7)
        pen = fc.expected_estimation_penalty(model, 0.7, sched, "partial-perfect")
        assert pen.total == pytest.approx(0.0, abs=1e-12)

    def test_enumeration_guard(self):
        model, _ = noisy_scalar(N=21)
        sched = fc.backward_recursion_perfect(model, 0.5)
        with pytest.raises(fc.ModelValidationError, match="exact enumeration is limited"):
            fc.expected_estimation_penalty(model, 0.5, sched, "partial-perfect")
        mc = fc.expected_estimation_penalty(
            model, 0.5, sched, "partial-perfect",
            config={"method": "monte-carlo", "replications": 2_000, "seed": 1},
        )
        assert len(mc.per_stage) == 21

    def test_config_guards(self):
        model, _ = noisy_scalar(N=3)
        sched = fc.backward_recursion_perfect(model, 0.5)
        with pytest.raises(fc.ModelValidationError, match="unknown keys"):
            fc.expected_estimation_penalty(
                model, 0.5, sched, "partial-perfect", config={"reps": 10}
            )
        with pytest.raises(fc.ModelValidationError, match="replications"):
            fc.expected_estimation_penalty(
                model, 0.5, sched, "partial-perfect",
                config={"method": "monte-carlo", "replications": 1},
            )
        with pytest.raises(fc.ModelValidationError, match="partial-observation"):
            fc.expected_estimation_penalty(model, 0.5, sched, "full-perfect")


class TestDelayedPenalty:
    def test_hand_value_and_cost(self):
        model, x0 = noisy_scalar(N=3)
        delay = fc.DelayProfile(M_F=1, M_B=0)
        sched = fc.backward_recursion_delayed(model, 1.0, delay)
        pen = fc.expected_estimation_penalty(model, 1.0, sched, "partial-delayed")
        assert pen.per_stage == pytest.approx((0.25,), abs=1e-14)
        assert pen.stages == (1,)
        assert pen.total == pytest.approx(0.25, abs=1e-14)
        cost = fc.min_cost_partial_delayed(
            sched.with_regime("partial-delayed"), model, x0, pen
        )
        assert cost.total == pytest.approx(8.35, abs=1e-13)

    def test_no_interior_epochs_means_zero(self):
        model, _ = noisy_scalar(N=3)
        delay = fc.DelayProfile(M_F=1, M_B=1)  # a=1, c=1: no interior epochs
        sched = fc.backward_recursion_delayed(model, 0.8, delay)
        pen = fc.expected_estimation_penalty(model, 0.8, sched, "partial-delayed")
        assert pen.per_stage == ()
        assert pen.stages == () and pen.total == 0.0

    def test_stage_labels_on_grid(self):
        model, _ = noisy_scalar(N=9)
        delay = fc.DelayProfile(M_F=1, M_B=1)  # M=2, a=1, c=4
        sched = fc.backward_recursion_delayed(model, 0.6, delay)
        pen = fc.expected_estimation_penalty(model, 0.6, sched, "partial-delayed")
        assert pen.stages == (2, 4, 6)

    def test_exact_vs_monte_carlo(self):
        model, _ = noisy_scalar(N=9)
        delay = fc.DelayProfile(M_F=1, M_B=1)
        sched = fc.backward_recursion_delayed(model, 0.6, delay)
        exact = fc.expected_estimation_penalty(model, 0.6, sched, "partial-delayed")
        mc = fc.expected_estimation_penalty(
            model, 0.6, sched, "partial-delayed",
            config={"method": "monte-carlo", "replications": 60_000, "seed": 11},
        )
        assert abs(mc.total - exact.total) <= 4 * mc.standard_error + 1e-12

    def test_requires_delayed_schedule(self):
        model, _ = noisy_scalar(N=3)
        sched = fc.backward_recursion_perfect(model, 0.5)
        with pytest.raises(fc.ModelValidationError, match="requires a delayed schedule"):
            fc.expected_estimation_penalty(model, 0.5, sched, "partial-delayed")

    def test_exact_observation_penalty_is_zero(self):
        model, _ = noisy_scalar(N=9, V=0.0)
        delay = fc.DelayProfile(M_F=1, M_B=1)
        sched = fc.backward_recursion_delayed(model, 0.7, delay)
        pen = fc.expected_estimation_penalty(model, 0.7, sched, "partial-delayed")
        assert pen.total == pytest.approx(0.0, abs=1e-12)


class TestMonteCarloPenaltyRows:
    """Monte Carlo penalties equal a replication-by-replication computation.

    The production path computes covariances once per distinct sampled
    ON/OFF history; here every replication carries its own covariance. The
    per-matrix arithmetic is the same helpers on batches of one, so the
    values must agree exactly.
    """

    @staticmethod
    def per_row(prior, epochs, p, R, seed):
        draws = np.random.default_rng(seed).random((R, len(epochs) + 1))
        samples = np.zeros((R, len(epochs)))
        for r in range(R):
            Sig = prior[None]
            for i, (C, V, weight, Phi, Xi) in enumerate(epochs):
                _, post = gated_posterior(Sig, C, V)
                samples[r, i] = np.einsum("pij,ji->p", post, weight)[0]
                Sig = predict_covariances(post if draws[r, i + 1] < p else Sig, Phi, Xi)
        totals = p * samples.sum(axis=1)
        return samples.mean(axis=0), totals.mean(), totals.std(ddof=1) / np.sqrt(R)

    def test_perfect(self, rng):
        model, _ = random_model(rng, n_max=3, N_low=8, N_high=8, partial=True)
        p, R, seed = 0.7, 300, 5
        sched = fc.backward_recursion_perfect(model, p).with_regime("partial-perfect")
        pen = fc.expected_estimation_penalty(
            model, p, sched, "partial-perfect",
            config={"method": "monte-carlo", "replications": R, "seed": seed},
        )
        epochs = [
            (model.C[k], model.V_noise[k], sched.Lambda[k], model.A[k], model.W[k])
            for k in range(1, model.N)
        ]
        per, total, se = self.per_row(model.W[0], epochs, p, R, seed)
        assert pen.per_stage == (0.0,) + tuple(per)
        assert pen.total == total
        assert pen.standard_error == se

    def test_delayed(self, rng):
        model, _ = random_model(rng, n_max=3, N_low=12, N_high=12, partial=True)
        p, R, seed = 0.6, 300, 9
        delay = fc.DelayProfile(M_F=1, M_B=1)
        sched = fc.backward_recursion_delayed(model, p, delay).with_regime("partial-delayed")
        pen = fc.expected_estimation_penalty(
            model, p, sched, "partial-delayed",
            config={"method": "monte-carlo", "replications": R, "seed": seed},
        )
        M, c = delay.M, delay.bound_to(model.N).c
        epochs = []
        for k in range(1, c):
            A = model.A[k * M]
            weight = A.T @ sched.P[k * M + 1] @ A
            weight = (weight + weight.T) / 2.0
            epochs.append((
                model.C[k * M], model.V_noise[k * M], weight,
                fc.transition_product(model, (k + 1) * M, k * M),
                fc.window_noise(model, k * M, (k + 1) * M),
            ))
        per, total, se = self.per_row(fc.window_noise(model, 0, M), epochs, p, R, seed)
        assert len(pen.per_stage) == c - 1 >= 4
        assert pen.per_stage == tuple(per)
        assert pen.total == total
        assert pen.standard_error == se
