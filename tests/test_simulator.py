"""Closed-loop Monte Carlo engine: seeding, event order, traces, metrics."""

import io
import tracemalloc

import numpy as np
import pytest

import fogctl as fc
from fogctl import simulator

from reference import (
    closed_form_cost,
    make_regime,
    random_model,
    reference_partial_totals,
    reference_to_csv,
    scalar_fixture,
)

REGIMES = [("full", None), ("partial", None), ("full", (1, 1)), ("partial", (2, 1))]


def run_simple(model, p, delay, x0, reps=2000, seed=0, observation="full", record=False):
    regime = make_regime(model, p, delay, observation=observation)
    chain = fc.symmetric_chain(p)
    cfg = fc.SimulationConfig(replications=reps, master_seed=seed, record_traces=record)
    return fc.run(model, chain, delay, regime, cfg, x0=x0)


def set_block_rows(monkeypatch, model, rows):
    """Patch the draw budget so that `run` takes `rows` replications per block."""
    per_rep = 8 * model.N * (model.state_dim + model.obs_dim + 1)
    monkeypatch.setattr(simulator, "CHUNK_BYTES", rows * per_rep)


class TestConfigAndStreams:
    def test_config_validation(self):
        with pytest.raises(fc.ModelValidationError):
            fc.SimulationConfig(replications=0)
        with pytest.raises(fc.ModelValidationError):
            fc.SimulationConfig(replications=10, master_seed=-1)

    def test_noise_streams_shapes_and_determinism(self):
        a = fc.noise_streams(7, R=5, N=4, n=3, m=2)
        b = fc.noise_streams(7, R=5, N=4, n=3, m=2)
        assert a[0].shape == (5, 4, 3)
        assert a[1].shape == (5, 4, 2)
        assert a[2].shape == (5, 4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = fc.noise_streams(8, R=5, N=4, n=3, m=2)
        assert not np.array_equal(a[0], c[0])

    def test_blockwise_draws_equal_one_call(self):
        R, N, n, m = 11, 5, 3, 2
        whole = fc.noise_streams(5, R, N, n, m)
        streams = simulator._substreams(5)
        blocks = [simulator._draw(streams, hi - lo, N, n, m) for lo, hi in simulator._blocks(R, 3)]
        for i, want in enumerate(whole):
            assert np.array_equal(np.concatenate([b[i] for b in blocks]), want)

    def test_blocks_fold_one_row_remainder(self):
        assert simulator._blocks(64, 3)[-1] == (60, 64)
        assert simulator._blocks(5, 2) == [(0, 2), (2, 5)]
        assert simulator._blocks(6, 2) == [(0, 2), (2, 4), (4, 6)]
        assert simulator._blocks(1, 2) == [(0, 1)]
        assert simulator._blocks(3, 16) == [(0, 3)]

    def test_streams_mutually_distinct(self):
        w, v, u = fc.noise_streams(0, R=3, N=5, n=1, m=1)
        assert not np.allclose(w[:, :, 0], v[:, :, 0])
        assert np.all((0 <= u) & (u < 1))

    def test_sample_tau_start_conventions(self):
        _, _, u = fc.noise_streams(3, R=200, N=6, n=1, m=1)
        fixed = fc.sample_tau(fc.ReliabilityChain(p=0.5, q=0.5, tau0=1), u)
        assert np.all(fixed[:, 0] == 1)
        mixed = fc.sample_tau(fc.ReliabilityChain(p=0.5, q=0.5, tau0=(0.5, 0.5)), u)
        assert 0 < mixed[:, 0].mean() < 1

    def test_sample_tau_monotone_in_p(self):
        # symmetric chains share the acceptance threshold across states, so
        # the same uniforms give pathwise-dominated availability
        _, _, u = fc.noise_streams(11, R=300, N=8, n=1, m=1)
        lo = fc.sample_tau(fc.symmetric_chain(0.3), u)
        hi = fc.sample_tau(fc.symmetric_chain(0.8), u)
        assert np.all(lo[:, 1:] <= hi[:, 1:])

    def test_psd_sqrt(self, rng):
        for _ in range(5):
            X = rng.normal(size=(3, 3))
            X = X @ X.T
            S = fc.psd_sqrt(X)
            assert np.allclose(S @ S, X, atol=1e-10)
            assert np.allclose(S, S.T, atol=1e-12)
        assert np.allclose(fc.psd_sqrt(np.zeros((2, 2))), 0.0)


class TestRunBasics:
    def test_deterministic_given_seed(self):
        model, x0 = scalar_fixture(N=5)
        a = run_simple(model, 0.7, None, x0, reps=500, seed=9)
        b = run_simple(model, 0.7, None, x0, reps=500, seed=9)
        assert a["mean_cost"] == b["mean_cost"]
        c = run_simple(model, 0.7, None, x0, reps=500, seed=10)
        assert a["mean_cost"] != c["mean_cost"]

    def test_single_replication_has_zero_std_error(self):
        model, x0 = scalar_fixture(N=3)
        out = run_simple(model, 0.5, None, x0, reps=1)
        assert out["std_error"] == 0.0

    def test_zero_noise_zero_start_zero_cost(self):
        model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=0.0, N=4)
        out = run_simple(model, 1.0, None, np.zeros(1), reps=3)
        assert out["mean_cost"] == pytest.approx(0.0, abs=1e-15)

    def test_zero_noise_matches_closed_form_exactly(self):
        model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=0.0, N=4)
        x0 = np.array([2.0])
        out = run_simple(model, 1.0, None, x0, reps=2)
        want = closed_form_cost(model, 1.0, None, "full", x0).total
        assert out["mean_cost"] == pytest.approx(want, rel=1e-12)

    def test_open_loop_when_p_zero_and_endpoint_starts_off(self):
        model, x0 = scalar_fixture(N=4)
        chain = fc.symmetric_chain(0.0, tau0=0)
        regime = make_regime(model, 0.0, None)
        cfg = fc.SimulationConfig(replications=400, master_seed=2, record_traces=True)
        out = fc.run(model, chain, None, regime, cfg, x0=x0)
        assert np.all(out["traces"].u == 0.0)
        want = closed_form_cost(model, 0.0, None, "full", x0, tau0=0).total
        se = max(out["std_error"], 1e-12)
        assert abs(out["mean_cost"] - want) <= 4 * se

    def test_p_zero_with_on_start_controls_only_stage_zero(self):
        model, x0 = scalar_fixture(N=4)
        out = run_simple(model, 0.0, None, x0, reps=50, seed=2, record=True)
        u = out["traces"].u
        assert np.any(u[:, 0] != 0.0)
        assert np.all(u[:, 1:] == 0.0)

    def test_mean_matches_closed_form_all_regimes(self, rng):
        model, x0 = random_model(rng, N_low=6, N_high=6, partial=True)
        delay = fc.DelayProfile(M_F=1, M_B=1)
        for observation, d in (
            ("full", None), ("partial", None), ("full", delay), ("partial", delay),
        ):
            p = 0.75
            out = run_simple(
                model, p, d, x0, reps=20_000, seed=31, observation=observation
            )
            want = closed_form_cost(model, p, d, observation, x0).total
            assert abs(out["mean_cost"] - want) <= 4 * out["std_error"] + 1e-9, (
                observation, d, out, want
            )

    def test_configuration_inconsistencies_rejected(self):
        model, x0 = scalar_fixture(N=4)
        chain = fc.symmetric_chain(0.5)
        delay = fc.DelayProfile(M_F=1, M_B=1)
        regime_d = make_regime(model, 0.5, delay)
        cfg = fc.SimulationConfig(replications=2)
        with pytest.raises(fc.ModelValidationError, match="configuration inconsistencies"):
            fc.run(model, chain, None, regime_d, cfg, x0=x0)
        other, _ = scalar_fixture(N=5)
        regime_p = make_regime(other, 0.5, None)
        with pytest.raises(fc.ModelValidationError, match="configuration inconsistencies"):
            fc.run(model, chain, None, regime_p, cfg, x0=x0)
        with pytest.raises(fc.ModelValidationError, match="x0 shape"):
            fc.run(model, chain, None, make_regime(model, 0.5, None), cfg, x0=np.zeros(2))


class TestPartialObservationLoop:
    @pytest.mark.parametrize("p", [0.5, 0.9])
    @pytest.mark.parametrize("delay", [None, (1, 1), (2, 1)])
    def test_matches_per_replication_reference(self, rng, p, delay):
        # p = 0.9 leaves many replications on shared ON/OFF histories,
        # p = 0.5 makes most of them distinct
        model, x0 = random_model(rng, N_low=10, N_high=10, partial=True)
        delay = None if delay is None else fc.DelayProfile(M_F=delay[0], M_B=delay[1])
        regime = make_regime(model, p, delay, observation="partial")
        chain = fc.symmetric_chain(p)
        cfg = fc.SimulationConfig(replications=64, master_seed=17, record_traces=True)
        out = fc.run(model, chain, delay, regime, cfg, x0=x0)
        want = reference_partial_totals(model, chain, delay, regime.gains.V, x0, 64, 17)
        assert np.allclose(out["traces"].totals, want, rtol=1e-10, atol=0.0)

    def test_exact_observation_matches_full_observation(self, rng):
        # random_model's default channel is C = I, V_noise = 0: the
        # pseudo-inverse update projects the estimate onto the measured
        # state (and leaves the known x0 alone at stage 0, where the prior
        # covariance is zero)
        model, x0 = random_model(rng, n_max=3, N_low=8, N_high=8)
        assert np.all(model.V_noise[0] == 0.0)
        full = run_simple(model, 0.7, None, x0, reps=500, seed=4, record=True)
        part = run_simple(
            model, 0.7, None, x0, reps=500, seed=4, observation="partial", record=True
        )
        assert np.allclose(part["traces"].totals, full["traces"].totals, rtol=1e-9, atol=0.0)

    @staticmethod
    def run_explosive(observation, delay, monkeypatch=None):
        # gains designed for a benign plant, run on an explosive one: the
        # state overflows at stage 1
        design = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, V_noise=1.0, N=4)
        plant = fc.make_system(A=1e200, B=1.0, Q=1.0, R=1.0, W=1.0, V_noise=1.0, N=4)
        if monkeypatch is not None:
            set_block_rows(monkeypatch, plant, 2)  # four blocks of two rows
        delay = None if delay is None else fc.DelayProfile(M_F=delay[0], M_B=delay[1])
        regime = make_regime(design, 0.8, delay, observation=observation)
        cfg = fc.SimulationConfig(replications=8, master_seed=1)
        with np.errstate(all="ignore"), pytest.raises(
            fc.ModelValidationError, match="non-finite simulated cost at stage 1"
        ):
            fc.run(plant, fc.symmetric_chain(0.8), delay, regime, cfg, x0=np.ones(1))

    @pytest.mark.parametrize("observation", ["full", "partial"])
    @pytest.mark.parametrize("delay", [None, (1, 1)])
    def test_non_finite_cost_rejected(self, observation, delay):
        self.run_explosive(observation, delay)

    @pytest.mark.parametrize("observation", ["full", "partial"])
    @pytest.mark.parametrize("delay", [None, (1, 1)])
    def test_non_finite_cost_rejected_in_blocks(self, monkeypatch, observation, delay):
        self.run_explosive(observation, delay, monkeypatch)

    @pytest.mark.parametrize("observation", ["full", "partial"])
    def test_non_finite_stage_is_earliest_over_blocks(self, monkeypatch, observation):
        # x0^2 is just below the float64 maximum: a replication whose
        # endpoint starts ON adds its control cost and overflows at stage 0,
        # one starting OFF overflows at stage 1. With seed 7 the first block
        # (two rows) starts OFF and a later block has a row starting ON.
        model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, V_noise=1.0, N=4)
        set_block_rows(monkeypatch, model, 2)
        starts_on = fc.noise_streams(7, 8, 4, 1, 1)[2][:, 0] < 0.5
        assert not starts_on[:2].any() and starts_on[2:].any()
        chain = fc.symmetric_chain(0.8, tau0=(0.5, 0.5))
        regime = make_regime(model, 0.8, None, observation=observation)
        cfg = fc.SimulationConfig(replications=8, master_seed=7)
        with np.errstate(all="ignore"), pytest.raises(
            fc.ModelValidationError, match="non-finite simulated cost at stage 0"
        ):
            fc.run(model, chain, None, regime, cfg, x0=np.array([1.2e154]))


class TestBlocks:
    @pytest.mark.parametrize("rows", [3, 7])
    @pytest.mark.parametrize("observation,delay", REGIMES)
    def test_blocking_is_bit_identical(self, monkeypatch, rng, observation, delay, rows):
        # R = 64 leaves a one-row remainder for both block sizes
        model, x0 = random_model(rng, N_low=10, N_high=10, partial=True)
        delay = None if delay is None else fc.DelayProfile(M_F=delay[0], M_B=delay[1])
        whole = run_simple(model, 0.6, delay, x0, reps=64, seed=23,
                           observation=observation, record=True)["traces"]
        set_block_rows(monkeypatch, model, rows)
        assert len(simulator._blocks(64, rows)) > 1
        blocked = run_simple(model, 0.6, delay, x0, reps=64, seed=23,
                             observation=observation, record=True)["traces"]
        for name in ("totals", "x", "u", "tau", "stage_cost", "x_hat", "z"):
            a, b = getattr(whole, name), getattr(blocked, name)
            if a is None:
                assert b is None and observation == "full"
            else:
                assert np.array_equal(a, b, equal_nan=True), name

    def test_memory_bounded_by_block(self):
        # the draws for all replications would take R N (n + m + 1) 8 bytes
        R, N = 400_000, 8
        model = fc.make_system(
            A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.0], [0.1]], C=[[1.0, 0.0]],
            Q=np.eye(2), R=1.0, W=0.01 * np.eye(2), V_noise=0.1, N=N,
        )
        regime = make_regime(model, 0.8, None, observation="partial")
        cfg = fc.SimulationConfig(replications=R, master_seed=3)
        tracemalloc.start()
        try:
            fc.run(model, fc.symmetric_chain(0.8), None, regime, cfg, x0=np.ones(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < R * N * (2 + 1 + 1) * 8 / 2


class TestDelayedLoopStructure:
    def test_causality_and_grid_discipline(self):
        model, x0 = scalar_fixture(N=7)
        delay = fc.DelayProfile(M_F=1, M_B=1)
        out = run_simple(model, 0.7, delay, x0, reps=300, seed=4, record=True)
        u = out["traces"].u
        # nothing can arrive before the first round trip completes
        assert np.all(u[:, :2] == 0.0)
        # off-grid stages never carry a control
        for k in range(7):
            if k % 2 != 0:
                assert np.all(u[:, k] == 0.0)

    def test_gate_silences_arrivals(self):
        model, x0 = scalar_fixture(N=7)
        delay = fc.DelayProfile(M_F=1, M_B=1)
        out = run_simple(model, 0.5, delay, x0, reps=400, seed=6, record=True)
        tr = out["traces"]
        M, M_F, c = 2, 1, 3
        for j in range(c - 1):
            arrival = (j + 1) * M
            gate_off = tr.tau[:, j * M + M_F] == 0
            assert np.all(tr.u[gate_off, arrival] == 0.0)
            gate_on = ~gate_off
            assert np.any(tr.u[gate_on, arrival] != 0.0)

    def test_zero_noise_delayed_control_sees_true_state(self):
        # with no disturbances the window predictor is exact, so the arrival
        # control must equal direct feedback off the true state
        model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=0.0, N=6)
        x0 = np.array([3.0])
        delay = fc.DelayProfile(M_F=1, M_B=1)
        out = run_simple(model, 1.0, delay, x0, reps=2, record=True)
        tr = out["traces"]
        gains = fc.backward_recursion_delayed(model, 1.0, delay)
        for arrival in (2, 4):
            want = -(tr.x[:, arrival] @ gains.V[arrival].T)
            assert np.allclose(tr.u[:, arrival], want, atol=1e-12)

    def test_drift_compensation_modes_differ(self):
        drift = np.full((6, 1), 0.5)
        model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=0.0, drift=drift, N=6)
        x0 = np.array([1.0])
        delay = fc.DelayProfile(M_F=1, M_B=1)
        chain = fc.symmetric_chain(1.0)
        cfg = fc.SimulationConfig(replications=2)
        faithful = fc.run(
            model, chain, delay,
            make_regime(model, 1.0, delay, compensate_drift=False), cfg, x0=x0,
        )
        compensated = fc.run(
            model, chain, delay,
            make_regime(model, 1.0, delay, compensate_drift=True), cfg, x0=x0,
        )
        assert faithful["mean_cost"] != compensated["mean_cost"]
        # with W = 0 the compensated predictor is exact, so it cannot lose
        assert compensated["mean_cost"] < faithful["mean_cost"]


class TestTracesAndCsv:
    def test_trace_totals_consistent(self):
        model, x0 = scalar_fixture(N=4)
        out = run_simple(model, 0.6, None, x0, reps=5, seed=3, record=True)
        batch = out["traces"]
        assert batch.stage_cost.shape == (5, 5)  # N stages plus the terminal cost
        np.testing.assert_allclose(batch.stage_cost.sum(axis=1), batch.totals, rtol=1e-12)
        assert out["mean_cost"] == pytest.approx(float(batch.totals.mean()), rel=1e-12)

    def test_csv_layout_full(self):
        model, x0 = scalar_fixture(N=2)
        out = run_simple(model, 0.6, None, x0, reps=2, seed=3, record=True)
        buf = io.StringIO()
        out["traces"].to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "rep,k,tau,x0,u0,cost_stage"
        assert len(lines) == 1 + 2 * 3
        terminal = lines[3].split(",")
        assert terminal[1] == "2" and terminal[2] == "" and terminal[4] == ""

    def test_csv_layout_partial_delayed_estimates(self):
        model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, V_noise=1.0, N=4)
        delay = fc.DelayProfile(M_F=1, M_B=1)
        out = run_simple(
            model, 0.8, delay, np.array([1.0]), reps=2, seed=5,
            observation="partial", record=True,
        )
        buf = io.StringIO()
        out["traces"].to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "rep,k,tau,x0,u0,xhat0,cost_stage"
        # boundary stages carry an estimate, off-grid stages leave it empty
        row_k0 = lines[1].split(",")
        row_k1 = lines[2].split(",")
        assert row_k0[5] != ""
        assert row_k1[5] == ""

    @pytest.mark.parametrize("observation,delay,p", [("full", None, 0.6), ("partial", (1, 1), 0.5)])
    def test_csv_matches_reference_writer(self, observation, delay, p):
        # the partial-delayed batch leaves x_hat NaN at off-grid stages
        model = fc.make_system(A=[[1.0, 0.5], [0.0, 1.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                               Q=np.eye(2), R=1.0, W=0.3 * np.eye(2), V_noise=0.2, N=5)
        delay = None if delay is None else fc.DelayProfile(M_F=delay[0], M_B=delay[1])
        batch = run_simple(model, p, delay, np.array([1.0, -2.0]), reps=7, seed=12,
                           observation=observation, record=True)["traces"]
        if observation == "partial":
            assert np.isnan(batch.x_hat).any() and not np.isnan(batch.x_hat).all()
        got, want = io.StringIO(), io.StringIO()
        batch.to_csv(got)
        reference_to_csv(batch, want)
        assert got.getvalue() == want.getvalue()

    def test_stage_records(self):
        model, x0 = scalar_fixture(N=3)
        out = run_simple(model, 0.6, None, x0, reps=1, seed=8, record=True)
        batch = out["traces"]
        assert (batch.replications, batch.N) == (1, 3)
        assert batch.x.shape == (1, 4, 1) and batch.u.shape == (1, 3, 1)
        assert batch.tau.shape == (1, 3) and batch.stage_cost.shape == (1, 4)
        assert batch.x_hat is None and batch.z is None
        assert batch.x[0, 0, 0] == pytest.approx(1.0)
        assert set(batch.tau[0].tolist()) <= {0, 1}


class TestTrackingMetrics:
    def test_layout_guard(self):
        model, x0 = scalar_fixture(N=3)
        out = run_simple(model, 0.6, None, x0, reps=2, seed=1, record=True)
        with pytest.raises(fc.ModelValidationError, match="planar error-state layout"):
            fc.tracking_metrics(out["traces"], alpha=0.1)

    def test_hand_values(self):
        x = np.array([[[1.0, 0.0, 3.0, 4.0], [0.0, 2.0, 0.0, 0.0]]])
        u = np.array([[[2.0, 1.0]]])
        tau = np.ones((1, 1), dtype=np.int8)
        batch = fc.SimulationBatch(
            x=x, u=u, tau=tau,
            stage_cost=np.zeros((1, 2)), totals=np.zeros(1),
        )
        m = fc.tracking_metrics(batch, alpha=0.1)
        assert m["rms_position_error"] == pytest.approx(np.sqrt(2.5))
        assert m["max_deviation"] == pytest.approx(2.0)
        assert m["mean_control_energy"] == pytest.approx(0.1 * (25.0 + 5.0))
        assert m["mse_position_error"] == pytest.approx(2.5)
        assert m["mse_std_error"] == 0.0
