"""Filtering, delayed prediction, window algebra, estimation penalties."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fogctl as fc
from fogctl import estimation
from fogctl.estimation import gated_posterior, predict_covariances

from reference import (
    exact_gated_posterior,
    random_model,
    reference_gated_posterior,
    reference_penalty,
)


def noisy_scalar(N, V=1.0):
    model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, V_noise=V, N=N)
    return model, np.array([1.0])


class TestFilterTransitions:
    def test_predict_hand_values(self):
        model = fc.make_system(A=2.0, B=1.0, Q=1.0, R=1.0, W=3.0, N=1)
        x = estimation.propagate_mean(model, np.array([[2.0]]), np.array([[3.0]]), 0, 1)
        assert x[0, 0] == pytest.approx(7.0)
        Sig = predict_covariances(np.array([[[1.0]]]), model.A[0], model.W[0])
        assert Sig[0, 0, 0] == pytest.approx(7.0)

    def test_predict_known_drift_override(self):
        model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, drift=np.array([[2.0]]), N=1)
        x, u = np.array([[1.0]]), np.array([[0.0]])
        assert estimation.propagate_mean(model, x, u, 0, 1)[0, 0] == pytest.approx(3.0)
        assert estimation.propagate_mean(model.without_drift(), x, u, 0, 1)[0, 0] == pytest.approx(1.0)

    def test_update_hand_values(self):
        model, _ = noisy_scalar(N=1, V=1.0)
        gain, post = gated_posterior(np.array([[[1.0]]]), model.C[0], model.V_noise[0])
        # gain = Sigma / (Sigma + V) = 1/2; Joseph posterior = 1/2
        assert gain[0, 0, 0] == pytest.approx(0.5)
        assert post[0, 0, 0] == pytest.approx(0.5)
        # prior mean 0, measurement 2: x_hat = gain * 2 = 1
        assert (gain[0] @ np.array([2.0]))[0] == pytest.approx(1.0)

    def test_update_reduces_uncertainty(self, rng):
        for _ in range(10):
            model, _ = random_model(rng, partial=True)
            Sig = np.eye(model.state_dim) * float(rng.uniform(0.5, 2.0))
            _, post = gated_posterior(Sig[:, :, None], model.C[0], model.V_noise[0])
            d = np.linalg.eigvalsh(Sig - post[:, :, 0])
            assert d[0] >= -1e-9


def kernel_case(rng, n, m, cond, P=1):
    """Priors (P, n, n), a channel C and a correlated V with condition number cond."""
    X = rng.normal(size=(P, n, n))
    Sig = fc.symmetrize(X @ np.swapaxes(X, -1, -2) / n + 0.1 * np.eye(n))
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    V = Q @ np.diag(np.geomspace(1.0, 1.0 / cond, m)) @ Q.T * rng.uniform(0.05, 2.0)
    return Sig, rng.normal(size=(m, n)), fc.symmetrize(V)


def on_stacks(Sig, C, V):
    """`gated_posterior` of (P, n, n) priors, its results moved node-first like the reference's."""
    return tuple(np.moveaxis(x, -1, 0) for x in gated_posterior(np.moveaxis(Sig, 0, -1), C, V))


def node_kernels(Sig, C, V, weight, Phi, Xi):
    """Gain, posterior, time update and trace of every node of a node-last stack."""
    return gated_posterior(Sig, C, V) + (predict_covariances(Sig, Phi, Xi),
                                         estimation._traces(Sig, weight))


def rel_error(got, ref):
    """Largest entry error over the largest reference entry, per batch entry."""
    return np.abs(got - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))


class TestGatedPosteriorKernel:
    """The sequential path against the pseudo-inverse formula and exact arithmetic."""

    def test_agrees_with_pinv_formula(self, rng):
        for case in range(36):
            n, m = 1 + case % 4, 1 + case % 3
            Sig, C, V = kernel_case(rng, n, m, float(rng.uniform(1.0, 100.0)), P=5)
            for got, ref in zip(on_stacks(Sig, C, V), reference_gated_posterior(Sig, C, V)):
                assert rel_error(got, ref).max() <= 1e-12

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6, 0.9 * estimation._SEQUENTIAL_MAX_COND])
    def test_error_against_exact_within_pinv(self, rng, cond):
        # worst (gain, posterior) error over the cases: this kernel's, then the
        # pinv formula's, floored at a few ulps so a lucky rounding does not count
        worst = np.zeros((2, 2))
        for case in range(27):
            n, m = 1 + case % 3, 1 + case // 9
            Sig, C, V = kernel_case(rng, n, m, cond)
            exact = exact_gated_posterior(Sig[0], C, V)
            for row, kernel in enumerate((on_stacks, reference_gated_posterior)):
                errors = [rel_error(got[0], ref)
                          for got, ref in zip(kernel(Sig, C, V), exact)]
                worst[row] = np.maximum(worst[row], errors)
        assert (worst[0] <= 10.0 * np.maximum(worst[1], 1e-15)).all(), worst

    def test_pinv_path_kept_bit_for_bit(self, rng, monkeypatch):
        cutoff = estimation._SEQUENTIAL_MAX_COND
        u = rng.normal(size=2)
        for V in (np.zeros((2, 2)), np.outer(u, u), kernel_case(rng, 3, 2, 1.5 * cutoff)[2]):
            Sig, C, _ = kernel_case(rng, 3, 2, 1.0, P=20)
            for got, ref in zip(on_stacks(Sig, C, V), reference_gated_posterior(Sig, C, V)):
                assert got.tobytes() == ref.tobytes()

        def no_pinv(*args, **kwargs):
            raise AssertionError("pinv on the sequential path")
        monkeypatch.setattr(np.linalg, "pinv", no_pinv)
        Sig, C, V = kernel_case(rng, 3, 2, 0.5 * cutoff, P=20)
        on_stacks(Sig, C, V)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batch_slices_bit_for_bit(self, rng, m):
        # a node's gain, posterior, time update and trace must not depend on
        # the stack it sits in: lone first, middle and last nodes and a range,
        # against a 20,000-node stack. The penalties and the simulator's
        # filter run n = 4, m = 2, CI's placement n = 8, m = 2. A matrix-vector
        # product at one node, or an axis reduction, rounds otherwise
        for n in range(1, 10):
            Sig, C, V = kernel_case(rng, n, m, 10.0, P=20_000)
            Sig = np.moveaxis(Sig, 0, -1).copy()
            Phi, Xi, weight = rng.normal(size=(3, n, n))
            step = (C, V, weight, Phi, fc.symmetrize(Xi))
            full = node_kernels(Sig, *step)
            for part in (slice(0, 1), slice(7, 8), slice(-1, None), slice(3, 1000)):
                for got, ref in zip(node_kernels(Sig[..., part], *step), full):
                    assert got.tobytes() == ref[..., part].tobytes(), n


class TestDelayedPredictor:
    """propagate_mean as the M-step predictor from (x_{k-M}, u_{k-M}) to stage k."""

    def test_hand_value_no_drift(self):
        model = fc.make_system(A=2.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=4)
        x, u = np.array([[1.0]]), np.array([[0.5]])
        assert estimation.propagate_mean(model, x, u, 0, 2)[0, 0] == pytest.approx(5.0)

    def test_hand_value_with_drift(self):
        drift = np.array([[1.0], [-1.0], [2.0], [0.0]])
        model = fc.make_system(A=2.0, B=1.0, Q=1.0, R=1.0, W=1.0, drift=drift, N=4)
        x, u = np.array([[1.0]]), np.array([[0.5]])
        # x1 = 2*1 + 0.5 + 1 = 3.5; x2 = 2*3.5 - 1 = 6
        assert estimation.propagate_mean(model, x, u, 0, 2)[0, 0] == pytest.approx(6.0)
        stripped = model.without_drift()
        assert estimation.propagate_mean(stripped, x, u, 0, 2)[0, 0] == pytest.approx(5.0)


class TestWindowAlgebra:
    def test_transition_product_hand(self):
        model = fc.make_system(A=2.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=3)
        assert estimation.transition_product(model, 2, 0)[0, 0] == pytest.approx(4.0)
        assert estimation.transition_product(model, 1, 1)[0, 0] == pytest.approx(1.0)

    def test_window_noise_hand(self):
        model = fc.make_system(A=2.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=3)
        # Xi(0,2) = A W A^T + W = 4 + 1
        assert estimation.window_noise(model, 0, 2)[0, 0] == pytest.approx(5.0)
        assert estimation.window_noise(model, 1, 1)[0, 0] == pytest.approx(0.0)

    def test_window_noise_matches_monte_carlo_shape(self, rng):
        # second-moment identity: Xi(t0,t1) = Cov(x_t1 | x_t0, zero controls)
        model, _ = random_model(rng, N_low=5, N_high=7)
        t0, t1 = 1, model.N - 1
        Xi = estimation.window_noise(model, t0, t1)
        n = model.state_dim
        acc = np.zeros((n, n))
        Phi = np.eye(n)
        for t in range(t1 - 1, t0 - 1, -1):
            acc += Phi @ model.W[t] @ Phi.T
            Phi = Phi @ model.A[t]
        assert np.allclose(Xi, acc, atol=1e-12)


class TestPenaltyStructures:
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


def observed_pair(N):
    """2-state plant observed through its first coordinate."""
    return fc.make_system(A=[[1.1, 0.1], [0.0, 0.9]], B=[[0.0], [1.0]], Q=np.eye(2), R=1.0,
                          W=0.1 * np.eye(2), C=[[1.0, 0.0]], V_noise=0.5, N=N)


class TestPenaltyFitsItsSchedule:
    """The penalty refuses a schedule built for another delay or horizon."""

    def test_delayed_schedule_as_perfect_refused(self):
        # read 1.827 against the schedule's own penalty of 0.326
        model = observed_pair(8)
        sched = fc.solve(model, 0.7, fc.DelayProfile(1, 1), "partial").gains
        assert fc.expected_estimation_penalty(
            model, 0.7, sched, "partial-delayed").total == pytest.approx(0.326, abs=1e-3)
        with pytest.raises(fc.ModelValidationError, match="configuration inconsistencies"):
            fc.expected_estimation_penalty(model, 0.7, sched, "partial-perfect")

    @pytest.mark.parametrize("N", [6, 10])
    def test_schedule_of_another_horizon_refused(self, N):
        # on N = 6 it read 1.132 against 0.677; on N = 10 it ended in an IndexError
        sched = fc.solve(observed_pair(8), 0.7, None, "partial").gains
        with pytest.raises(fc.ModelValidationError, match="configuration inconsistencies"):
            fc.expected_estimation_penalty(observed_pair(N), 0.7, sched, "partial-perfect")

    @pytest.mark.parametrize("delay", [None, (1, 1)])
    def test_full_tag_of_the_same_match_type_served(self, delay):
        model = observed_pair(8)
        delay = None if delay is None else fc.DelayProfile(*delay)
        full, partial = (fc.solve(model, 0.7, delay, obs).gains for obs in ("full", "partial"))
        assert (fc.expected_estimation_penalty(model, 0.7, full, partial.regime)
                == fc.expected_estimation_penalty(model, 0.7, partial, partial.regime))


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

    @pytest.mark.parametrize("key", ["replications", "seed"])
    @pytest.mark.parametrize("value", [2.9, "3", True, -1])
    def test_config_counts_must_be_whole(self, key, value):
        model, _ = noisy_scalar(N=3)
        sched = fc.backward_recursion_perfect(model, 0.5)
        config = {"method": "monte-carlo", "replications": 10, "seed": 0, key: value}
        with pytest.raises(fc.ModelValidationError, match=f"penalty {key} must be a whole number"):
            fc.expected_estimation_penalty(model, 0.5, sched, "partial-perfect", config=config)


class TestPenaltyMemoryGuard:
    def test_estimate_above_memory_raises_before_the_sweep(self, monkeypatch):
        model, _ = noisy_scalar(N=6)
        sched = fc.backward_recursion_perfect(model, 0.5)

        def sweep(*args):
            raise AssertionError("the sweep started")
        monkeypatch.setattr("fogctl.model._physical_mib", lambda: 0.001)
        monkeypatch.setattr(estimation, "_penalty_sweep", sweep)
        with pytest.raises(fc.ModelValidationError,
                           match=r"N = 6, n = 1: the exact estimation penalty needs .* MiB"):
            fc.expected_estimation_penalty(model, 0.5, sched, "partial-perfect")

    def test_monte_carlo_estimate_above_memory_raises_before_the_sweep(self, monkeypatch):
        model, _ = noisy_scalar(N=6)
        sched = fc.backward_recursion_perfect(model, 0.5)

        def sweep(*args):
            raise AssertionError("the sweep started")
        monkeypatch.setattr("fogctl.model._physical_mib", lambda: 0.001)
        monkeypatch.setattr(estimation, "_penalty_sweep", sweep)
        with pytest.raises(fc.ModelValidationError,
                           match=r"N = 6, n = 1: the estimation penalty needs .* MiB for 16 histories"):
            fc.expected_estimation_penalty(
                model, 0.5, sched, "partial-perfect",
                config={"method": "monte-carlo", "replications": 10_000, "seed": 0},
            )

    @pytest.mark.parametrize("N, n, delay", [
        pytest.param(18, 4, None, id="18-4"), pytest.param(14, 8, None, id="14-8"),
        pytest.param(16, 6, (1, 1), id="16-6-delayed"),
    ])
    def test_estimate_bounds_the_traced_peak(self, monkeypatch, N, n, delay):
        # the guard's estimate must cover what the exact sweep allocates
        # without overstating it by more than a factor of two; the small
        # delayed sweep's peak is mostly its per-call arrays and objects
        model = fc.make_system(A=0.9 * np.eye(n), B=np.ones((n, 1)), Q=np.eye(n), R=1.0,
                               W=0.1 * np.eye(n), C=np.eye(2, n), V_noise=0.5 * np.eye(2), N=N)
        if delay is None:
            sched, regime = fc.backward_recursion_perfect(model, 0.7), "partial-perfect"
        else:
            sched = fc.backward_recursion_delayed(model, 0.7, fc.DelayProfile(*delay))
            regime = "partial-delayed"
        estimates, guard = [], estimation._memory_guard

        def spy(where, what, mib, extent=""):
            estimates.append(mib)
            return guard(where, what, mib, extent)
        monkeypatch.setattr(estimation, "_memory_guard", spy)
        tracemalloc.start()
        try:
            fc.expected_estimation_penalty(model, 0.7, sched, regime)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [mib] = estimates
        assert peak <= mib * 2**20 <= 2 * peak

    def test_exact_penalty_at_the_cap_fits_a_bounded_address_space(self):
        # N = 20, n = 8 holds two levels of 2^17 and 2^18 priors (192 MiB)
        # and one chunk's temporaries; updating a whole level at once needed
        # about 880 MiB and ran out of memory under this limit
        limit = 512 * 2**20
        code = (
            "import resource\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "import numpy as np\n"
            "import fogctl as fc\n"
            "n = 8\n"
            "model = fc.make_system(A=0.9 * np.eye(n), B=np.ones((n, 1)), Q=np.eye(n), R=1.0,\n"
            "                       W=0.1 * np.eye(n), C=np.eye(2, n), V_noise=0.5 * np.eye(2),\n"
            "                       N=20)\n"
            "sched = fc.backward_recursion_perfect(model, 0.7)\n"
            "print(fc.expected_estimation_penalty(model, 0.7, sched, 'partial-perfect').total)\n"
        )
        src = str(Path(fc.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert float(proc.stdout) > 0.0

    def test_out_of_memory_is_a_clean_error(self):
        # n = 16, N = 20 needs about 780 MiB (`_sweep_mib`); the child's
        # address space is capped at 800 MiB, which the memory guard counts
        limit = 800 * 2**20
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "import numpy as np\n"
            "import fogctl as fc\n"
            "n = 16\n"
            "model = fc.make_system(A=0.9 * np.eye(n), B=np.ones((n, 1)), Q=np.eye(n), R=1.0,\n"
            "                       W=0.1 * np.eye(n), C=np.eye(2, n), V_noise=0.5 * np.eye(2),\n"
            "                       N=20)\n"
            "sched = fc.backward_recursion_perfect(model, 0.7)\n"
            "try:\n"
            "    fc.expected_estimation_penalty(model, 0.7, sched, 'partial-perfect')\n"
            "except fc.ModelValidationError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(2)\n"
        )
        src = str(Path(fc.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.startswith("N = 20, n = 16: ") and "MiB" in proc.stdout


class TestPenaltyChunking:
    """The penalty sweep's chunk of history nodes never changes a bit."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("exact_observation", [False, True])
    def test_values_equal_at_any_chunk_size(self, monkeypatch, m, exact_observation):
        rng = np.random.default_rng(100 + m)
        n, N = 3, 10
        V = np.zeros((m, m)) if exact_observation else 0.3 * np.eye(m)  # V = 0: pseudo-inverse
        model = fc.make_system(A=rng.normal(size=(n, n)) / 2, B=rng.normal(size=(n, 1)),
                               Q=np.eye(n), R=1.0, W=0.2 * np.eye(n),
                               C=rng.normal(size=(m, n)), V_noise=V, N=N)
        delay = fc.DelayProfile(M_F=0, M_B=1)
        runs = []
        for p in (0.0, 0.5, 1.0):
            for regime, sched in (
                ("partial-perfect", fc.backward_recursion_perfect(model, p)),
                ("partial-delayed", fc.backward_recursion_delayed(model, p, delay)),
            ):
                for config in (None, {"method": "monte-carlo", "replications": 400, "seed": 3}):
                    runs.append((p, sched, regime, config))

        def values():
            out = []
            for p, sched, regime, config in runs:
                pen = fc.expected_estimation_penalty(model, p, sched, regime, config)
                out.append((pen.per_stage, pen.total, pen.standard_error))
            return out
        default = values()
        assert estimation._chunk_nodes(n) >= 2 ** (N - 2)  # one chunk per level
        for nodes in (1, 3, 7):
            monkeypatch.setattr(estimation, "_CHUNK_BYTES", nodes * 8 * n * n)
            assert estimation._chunk_nodes(n) == nodes
            assert values() == default


class TestExactPenaltyEnumeration:
    """The exact penalty against a textbook filter over every ON/OFF history."""

    @pytest.mark.parametrize("p", [0.3, 0.8])
    @pytest.mark.parametrize("delay", [None, (1, 0), (1, 1)])
    def test_matches_history_by_history_reference(self, rng, p, delay):
        delay = None if delay is None else fc.DelayProfile(*delay)
        for _ in range(3):
            model, _ = random_model(rng, n_max=3, m_max=2, N_low=7, N_high=8, partial=True)
            sched = fc.solve(model, p, delay, "partial").gains
            pen = fc.expected_estimation_penalty(model, p, sched, sched.regime)
            terms, total = reference_penalty(model, p, sched, delay)
            assert len(terms) >= 2
            np.testing.assert_allclose(pen.per_stage, terms, rtol=1e-12, atol=0.0)
            assert pen.total == pytest.approx(total, rel=1e-12, abs=0.0)


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
            Sig = prior[:, :, None]
            for i, (C, V, weight, Phi, Xi) in enumerate(epochs):
                _, post = gated_posterior(Sig, C, V)
                samples[r, i] = estimation._traces(post, weight)[0]
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
                estimation.transition_product(model, (k + 1) * M, k * M),
                estimation.window_noise(model, k * M, (k + 1) * M),
            ))
        per, total, se = self.per_row(estimation.window_noise(model, 0, M), epochs, p, R, seed)
        assert len(pen.per_stage) == c - 1 >= 4
        assert pen.per_stage == tuple(per)
        assert pen.total == total
        assert pen.standard_error == se
