"""Closed-loop Monte Carlo engine: seeding, event order, traces, metrics."""

import io
import threading
import time
import tracemalloc

import numpy as np
import pytest

import fogctl as fc
from fogctl import simulator
from fogctl.estimation import predict_covariances

from reference import (
    closed_form_cost,
    make_regime,
    random_model,
    random_psd,
    reference_filter_update,
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


def set_block_rows(monkeypatch, model, rows, streamed=False):
    """Patch the block budget so that `run` (or a `sweep` whose tracking
    metrics are streamed) takes `rows` replications per block."""
    N, n, s, m = model.N, model.state_dim, model.control_dim, model.obs_dim
    per_rep = 8 * N * (n + m + 1)
    if streamed:
        per_rep += 8 * ((N + 1) * n + N * s)
    monkeypatch.setattr(simulator, "CHUNK_BYTES", rows * per_rep)


class TestConfigAndStreams:
    def test_config_validation(self):
        with pytest.raises(fc.ModelValidationError):
            fc.SimulationConfig(replications=0)
        with pytest.raises(fc.ModelValidationError):
            fc.SimulationConfig(replications=10, master_seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("replications", 2.5), ("replications", "3"), ("replications", True),
        ("master_seed", 1.7), ("master_seed", -0.5), ("master_seed", "3"),
        ("master_seed", True),
    ])
    def test_config_rejects_non_whole_values(self, field, value):
        # 2.5 replications used to run 2, and a seed of 1.7 ran as seed 1
        kwargs = {"replications": 4, field: value}
        with pytest.raises(fc.ModelValidationError, match=f"{field} must be a whole number"):
            fc.SimulationConfig(**kwargs)

    def test_config_reads_whole_floats_as_ints(self):
        cfg = fc.SimulationConfig(replications=3.0, master_seed=np.int64(5))
        assert (cfg.replications, cfg.master_seed) == (3, 5)
        assert type(cfg.replications) is int and type(cfg.master_seed) is int

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
        # blocks of three fold a two-row remainder into the last; blocks of
        # four end on a short one. Fills into the leading rows of two
        # alternating buffer sets, sized for the widest block, give the
        # sequence of one size= draw for all R.
        R, N, n, m = 11, 5, 3, 2
        g_w, g_v, g_tau = simulator._substreams(5)
        whole = g_w.standard_normal((R, N, n)), g_v.standard_normal((R, N, m)), g_tau.random((R, N))
        for got, want in zip(fc.noise_streams(5, R, N, n, m), whole):
            assert got.tobytes() == want.tobytes()
        for rows in (3, 4):
            blocks = simulator._blocks(R, rows)
            widest = max(hi - lo for lo, hi in blocks)
            buffers = [[np.empty((widest, N, n)), np.empty((widest, N, m)), np.empty((widest, N))]
                       for _ in range(2)]
            streams = simulator._substreams(5)
            pieces = []
            for b, (lo, hi) in enumerate(blocks):
                drawn = simulator._draw(streams, [buf[:hi - lo] for buf in buffers[b % 2]])
                pieces.append([a.copy() for a in drawn])
            for i, want in enumerate(whole):
                assert np.concatenate([piece[i] for piece in pieces]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("split", [False, True])
    def test_stage_major_fill_equals_noise_streams(self, monkeypatch, split):
        # blocks of three end on a short block of two, blocks of four on one
        # of three, and blocks of five fold the one-row remainder into a
        # last block of six. Split, the fill draws w two rows at a time (v
        # three, u six), so its runs end inside blocks.
        R, N, n, m = 11, 5, 3, 2
        if split:
            monkeypatch.setattr(simulator, "FILL_BYTES", 2 * 8 * N * n)
        whole = fc.noise_streams(5, R, N, n, m)
        for rows in (3, 4, 5):
            blocks = simulator._blocks(R, rows)
            widest = max(hi - lo for lo, hi in blocks)
            buffers = [[np.empty((N, widest, n)), np.empty((N, widest, m)), np.empty((N, widest))]
                       for _ in range(2)]
            pieces = []
            with simulator._Prefetch(simulator._substreams(5), buffers, blocks) as draws:
                for b, (lo, hi) in enumerate(blocks):
                    drawn = draws.take(b)
                    for arr, buf in zip(drawn, buffers[b % 2]):
                        assert arr.shape == (hi - lo,) + buf.shape[:1] + buf.shape[2:]
                        assert np.shares_memory(arr, buf)
                        assert all(arr[:, k].flags.c_contiguous for k in range(N))
                    pieces.append([a.copy() for a in drawn])
            for i, want in enumerate(whole):
                assert np.concatenate([piece[i] for piece in pieces]).tobytes() == want.tobytes()

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
            S = simulator.psd_sqrt(X)
            assert np.allclose(S @ S, X, atol=1e-10)
            assert np.allclose(S, S.T, atol=1e-12)
        assert np.allclose(simulator.psd_sqrt(np.zeros((2, 2))), 0.0)


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

    @pytest.mark.parametrize("observation", ["full", "partial"])
    @pytest.mark.parametrize("tau0", [0, 1])
    def test_first_gate_at_stage_zero_matches_closed_form(self, observation, tau0):
        # with M_F = 0 the first epoch is served at stage 0, where the
        # endpoint is in state tau0
        model = fc.make_system(A=1.1, B=1.0, Q=1.0, R=1.0, W=1.0, C=1.0, V_noise=0.5, N=8)
        x0, p, delay = np.array([1.0]), 0.6, fc.DelayProfile(M_F=0, M_B=2)
        regime = fc.solve(model, p, delay, observation)
        cfg = fc.SimulationConfig(replications=20_000, master_seed=5)
        out = fc.run(model, fc.symmetric_chain(p, tau0=tau0), delay, regime, cfg, x0=x0)
        want = fc.min_cost(model, regime, x0, tau0).total
        assert abs(out["mean_cost"] - want) <= 4 * out["std_error"], (out, want)

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


    @pytest.mark.parametrize("split", [(2, 1), (0, 3), (3, 0)])
    def test_delay_split_must_match_gains(self, split):
        # gains for (M_F, M_B) = (1, 2) served at another split of M = 3
        model = fc.make_system(A=1.1, B=1.0, Q=1.0, R=1.0, W=1.0, N=9)
        regime = fc.solve(model, 0.7, fc.DelayProfile(M_F=1, M_B=2))
        chain = fc.symmetric_chain(0.7)
        cfg = fc.SimulationConfig(replications=2000, master_seed=1)
        fc.run(model, chain, fc.DelayProfile(M_F=1, M_B=2), regime, cfg, x0=np.ones(1))
        with pytest.raises(fc.ModelValidationError, match="configuration inconsistencies"):
            fc.run(model, chain, fc.DelayProfile(*split), regime, cfg, x0=np.ones(1))


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
        for name in ("totals", "x", "u", "tau", "stage_cost", "x_hat"):
            a, b = getattr(whole, name), getattr(blocked, name)
            if a is None:
                assert b is None and observation == "full"
            else:
                assert np.array_equal(a, b, equal_nan=True), name

    @pytest.mark.parametrize("observation,delay", REGIMES)
    def test_memory_bounded_by_block(self, observation, delay):
        # the draws for all replications would take R N (n + m + 1) 8 bytes
        R, N = 400_000, 8
        model = fc.make_system(
            A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.0], [0.1]], C=[[1.0, 0.0]],
            Q=np.eye(2), R=1.0, W=0.01 * np.eye(2), V_noise=0.1, N=N,
        )
        delay = None if delay is None else fc.DelayProfile(M_F=delay[0], M_B=delay[1])
        regime = make_regime(model, 0.8, delay, observation=observation)
        cfg = fc.SimulationConfig(replications=R, master_seed=3)
        tracemalloc.start()
        try:
            fc.run(model, fc.symmetric_chain(0.8), delay, regime, cfg, x0=np.ones(2))
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
        assert batch.x_hat is None
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


class ByteCounter:
    """A text sink that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


class TestCsvMemory:
    def test_to_csv_peak_is_one_replication(self):
        # the whole file is about 1.1 MiB; held as one list of lines and one
        # joined string it took about 5.8 MiB of Python heap
        rng = np.random.default_rng(0)
        R, N = 100, 60
        x_hat = rng.normal(size=(R, N, 4))
        x_hat[:, 1::2] = np.nan
        batch = fc.SimulationBatch(
            x=rng.normal(size=(R, N + 1, 4)), u=rng.normal(size=(R, N, 2)),
            tau=rng.integers(0, 2, size=(R, N)).astype(np.int8),
            stage_cost=rng.normal(size=(R, N + 1)), totals=rng.normal(size=R), x_hat=x_hat,
        )
        sink = ByteCounter()
        tracemalloc.start()
        try:
            batch.to_csv(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 2**20
        assert peak < 2**18


def drift_plant():
    """A two-state plant with drift and a noisy one-dimensional measurement."""
    return fc.make_system(
        A=[[1.0, 0.2], [0.0, 0.9]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
        Q=np.eye(2), R=0.5, W=0.05 * np.eye(2), V_noise=0.2,
        drift=np.tile([0.1, -0.05], (9, 1)), N=9,
    )


def assert_same_result(got, want):
    for name in ("mean_cost", "std_error"):
        assert np.float64(got[name]).tobytes() == np.float64(want[name]).tobytes(), name
    for name in ("x", "u", "tau", "stage_cost", "totals", "x_hat"):
        a, b = getattr(got["traces"], name), getattr(want["traces"], name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


class TestSweep:
    @pytest.mark.parametrize("rows", [None, 3])
    def test_points_equal_separate_runs(self, monkeypatch, rows):
        # all four regimes, mixed delay splits, drift compensation on and
        # off, and chains with and without a shared tau path; rows = 3 over
        # R = 64 folds a one-row remainder into the last block
        model, x0 = drift_plant(), np.array([1.0, -0.5])
        if rows is not None:
            set_block_rows(monkeypatch, model, rows)
        points = []
        for i, (observation, delay, compensate, chain) in enumerate([
            ("full", None, False, fc.symmetric_chain(0.7)),
            ("partial", None, True, fc.symmetric_chain(0.7)),
            ("full", (1, 1), True, fc.ReliabilityChain(p=0.9, q=0.4)),
            ("partial", (2, 1), False, fc.symmetric_chain(0.5, tau0=(0.4, 0.6))),
            ("full", (0, 2), False, fc.symmetric_chain(0.5, tau0=(0.4, 0.6))),
            ("partial", (1, 2), True, fc.symmetric_chain(0.95, tau0=0)),
        ]):
            delay = None if delay is None else fc.DelayProfile(*delay)
            regime = fc.solve(model, chain.p, delay, observation, compensate)
            points.append((chain, delay, regime))
        cfg = fc.SimulationConfig(replications=64, master_seed=23, record_traces=True)
        swept = simulator.sweep(model, points, cfg, x0=x0)
        assert len(swept) == len(points)
        for (chain, delay, regime), got in zip(points, swept):
            assert_same_result(got, fc.run(model, chain, delay, regime, cfg, x0=x0))

    @pytest.mark.parametrize("observation,m_drawn", [("full", 0), ("partial", 1)])
    def test_full_observation_draws_no_measurement_noise(self, monkeypatch, observation, m_drawn):
        model = drift_plant()
        drawn = []
        draw = simulator._draw

        def spy(streams, out):
            drawn.append(out[1].shape[2])
            return draw(streams, out)

        monkeypatch.setattr(simulator, "_draw", spy)
        regime = fc.solve(model, 0.8, None, observation)
        fc.run(model, fc.symmetric_chain(0.8), None, regime, fc.SimulationConfig(5), x0=None)
        assert drawn == [m_drawn]

    def test_sweep_checks_every_point(self):
        model = drift_plant()
        fits = (fc.symmetric_chain(0.8), None, fc.solve(model, 0.8))
        misfit = (fc.symmetric_chain(0.8), None, fc.solve(model, 0.8, fc.DelayProfile(1, 1)))
        with pytest.raises(fc.ModelValidationError, match="configuration inconsistencies"):
            simulator.sweep(model, [fits, misfit], fc.SimulationConfig(5))


class TestZeroDrift:
    @staticmethod
    def plants():
        """A noisy plant, and one with W = V = 0 and x0 = 0 whose traces are
        all zeros, some of them -0.0: where a matrix product returns -0.0,
        adding 0.0 flips it, so skipping the add would change those bits."""
        noisy = dict(A=[[1.0, 0.2], [0.0, 0.9]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                     Q=np.eye(2), R=0.5, W=0.05 * np.eye(2), V_noise=0.2, N=9)
        still = dict(noisy, W=np.zeros((2, 2)), V_noise=0.0)
        return [(noisy, np.array([1.0, -0.5])), (still, np.zeros(2))]

    @pytest.mark.parametrize("compensate", [False, True])
    @pytest.mark.parametrize("observation,delay", REGIMES)
    def test_explicit_zero_drift_is_byte_equal_to_none(self, observation, delay, compensate):
        delay = None if delay is None else fc.DelayProfile(M_F=delay[0], M_B=delay[1])
        chain = fc.symmetric_chain(0.7)
        cfg = fc.SimulationConfig(replications=40, master_seed=31, record_traces=True)
        for inputs, x0 in self.plants():
            results = []
            for drift in (None, np.zeros((inputs["N"], 2))):
                model = fc.make_system(**inputs, drift=drift)
                regime = fc.solve(model, chain.p, delay, observation, compensate)
                results.append(fc.run(model, chain, delay, regime, cfg, x0=x0))
            assert_same_result(*results)


class TestStreamedTracking:
    @staticmethod
    def scenario():
        plan = fc.WaypointPlan(
            approach_target=(4.0, 1.0), approach_stages=3,
            circle_radius=2.0, circle_stages=8, return_stages=3,
        )
        return fc.DroneScenario(waypoints=fc.make_waypoints(plan, 1.0), alpha=0.2)

    def test_equals_tracking_metrics_of_the_traces(self, monkeypatch):
        scenario = self.scenario()
        model, x0 = fc.build_system(scenario), fc.initial_state(scenario)
        points = []
        for observation, delay, compensate in [
            ("full", None, False), ("full", (2, 1), True), ("partial", (1, 1), False),
        ]:
            delay = None if delay is None else fc.DelayProfile(*delay)
            chain = fc.symmetric_chain(0.75)
            points.append((chain, delay, fc.solve(model, 0.75, delay, observation, compensate)))
        traced = fc.SimulationConfig(replications=64, master_seed=3, record_traces=True)
        want = [
            fc.tracking_metrics(fc.run(model, *point, traced, x0=x0)["traces"], scenario.alpha)
            for point in points
        ]
        # blocks of three rows, the one-row remainder folded into the last
        set_block_rows(monkeypatch, model, 3, streamed=True)
        blocks = simulator._blocks(64, simulator._block_rows(model, True))
        assert len(blocks) > 1 and blocks[-1] == (60, 64)
        untraced = fc.SimulationConfig(replications=64, master_seed=3)
        streamed = simulator.sweep(model, points, untraced, x0=x0, alpha=scenario.alpha)
        assert [res["tracking"] for res in streamed] == want
        assert all(res["traces"] is None for res in streamed)
        recorded = simulator.sweep(model, points, traced, x0=x0, alpha=scenario.alpha)
        assert [res["tracking"] for res in recorded] == want

    def test_layout_checked_before_running(self):
        model, x0 = scalar_fixture(N=3)
        point = (fc.symmetric_chain(0.6), None, fc.solve(model, 0.6))
        with pytest.raises(fc.ModelValidationError, match="planar error-state layout"):
            simulator.sweep(model, [point], fc.SimulationConfig(2), x0=x0, alpha=0.1)


class CountingThread(threading.Thread):
    """threading.Thread that counts the threads started while it is patched in."""

    started = 0

    def start(self):
        type(self).started += 1
        super().start()


class TestPrefetch:
    """Block b + 1's draws are filled on a second thread while block b runs."""

    @staticmethod
    def count_threads(monkeypatch):
        CountingThread.started = 0
        monkeypatch.setattr(simulator.threading, "Thread", CountingThread)

    @pytest.mark.parametrize("observation,delay", REGIMES)
    def test_prefetched_blocks_are_bit_identical(self, monkeypatch, observation, delay):
        # R = 23 in blocks of five: four full blocks and a short last one of three
        model, x0 = drift_plant(), np.array([1.0, -0.5])
        delay = None if delay is None else fc.DelayProfile(*delay)
        regime = fc.solve(model, 0.7, delay, observation)
        chain = fc.symmetric_chain(0.7, tau0=(0.3, 0.7))
        cfg = fc.SimulationConfig(replications=23, master_seed=17, record_traces=True)
        whole = fc.run(model, chain, delay, regime, cfg, x0=x0)
        set_block_rows(monkeypatch, model, 5)
        assert simulator._blocks(23, 5)[-1] == (20, 23)
        self.count_threads(monkeypatch)
        assert_same_result(fc.run(model, chain, delay, regime, cfg, x0=x0), whole)
        assert CountingThread.started == 4  # one fill ahead per block after the first

    def test_prefetched_streamed_sweep_is_bit_identical(self, monkeypatch):
        scenario = TestStreamedTracking.scenario()
        model, x0 = fc.build_system(scenario), fc.initial_state(scenario)
        points = []
        for observation, delay in [("full", None), ("full", (2, 1)), ("partial", (1, 1))]:
            delay = None if delay is None else fc.DelayProfile(*delay)
            points.append((fc.symmetric_chain(0.75), delay,
                           fc.solve(model, 0.75, delay, observation)))
        cfg = fc.SimulationConfig(replications=23, master_seed=3)
        whole = simulator.sweep(model, points, cfg, x0=x0, alpha=scenario.alpha)
        set_block_rows(monkeypatch, model, 5, streamed=True)
        self.count_threads(monkeypatch)
        blocked = simulator.sweep(model, points, cfg, x0=x0, alpha=scenario.alpha)
        assert CountingThread.started == 4
        for got, want in zip(blocked, whole):
            assert got["traces"] is None
            for key in ("mean_cost", "std_error"):
                assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes()
            assert got["tracking"].keys() == want["tracking"].keys()
            for key, value in want["tracking"].items():
                assert np.float64(got["tracking"][key]).tobytes() == np.float64(value).tobytes()

    def test_one_block_starts_no_thread(self, monkeypatch):
        model = drift_plant()
        self.count_threads(monkeypatch)
        run_simple(model, 0.7, None, np.ones(2), reps=50)
        assert CountingThread.started == 0

    def test_no_thread_outlives_a_run(self, monkeypatch):
        model = drift_plant()
        set_block_rows(monkeypatch, model, 5)
        before = threading.active_count()
        run_simple(model, 0.7, fc.DelayProfile(1, 1), np.ones(2), reps=23,
                   observation="partial")
        assert threading.active_count() == before

    @pytest.mark.parametrize("observation", ["full", "partial"])
    def test_no_thread_outlives_a_non_finite_run(self, monkeypatch, observation):
        before = threading.active_count()
        TestPartialObservationLoop.run_explosive(observation, (1, 1), monkeypatch)
        assert threading.active_count() == before

    def test_no_thread_outlives_an_error_in_a_block(self, monkeypatch):
        # block 1 raises while block 2's fill, slowed down, is still running
        model = drift_plant()
        set_block_rows(monkeypatch, model, 5)
        draw = simulator._draw

        def slow_fill(streams, out):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)
            return draw(streams, out)

        def fail(*args, **kwargs):
            raise RuntimeError("block failed")

        monkeypatch.setattr(simulator, "_draw", slow_fill)
        monkeypatch.setattr(simulator, "_run_block", fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            run_simple(model, 0.7, None, np.ones(2), reps=23)
        assert threading.active_count() == before

    def test_fill_error_reaches_the_caller(self, monkeypatch):
        model = drift_plant()
        set_block_rows(monkeypatch, model, 5)
        draw, fills = simulator._draw, []

        def fail_on_block_two(streams, out):
            fills.append(threading.current_thread() is threading.main_thread())
            if len(fills) == 2:
                raise MemoryError("block 2 fill")
            return draw(streams, out)

        monkeypatch.setattr(simulator, "_draw", fail_on_block_two)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="block 2 fill"):
            run_simple(model, 0.7, None, np.ones(2), reps=23)
        assert fills == [True, False]  # block 1 on the calling thread, block 2 ahead
        assert threading.active_count() == before


class TestFilterUpdate:
    """The mask-free measurement update is the masked one, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("gates", ["random", "all-on", "all-off"])
    def test_equals_masked_reference(self, rng, m, gates):
        n, R = 3, 40
        C, V = rng.normal(size=(m, n)), random_psd(rng, m, floor=0.2)
        Phi, Xi = 0.8 * rng.normal(size=(n, n)), random_psd(rng, n, floor=0.1)
        ids, Sg, xh = np.zeros(R, dtype=np.intp), np.zeros((1, n, n)), rng.normal(size=(R, n))
        ref_ids, ref_Sg, ref_xh = ids.copy(), Sg.copy(), xh.copy()
        for _ in range(6):
            gate = {"random": rng.random(R) < 0.6, "all-on": np.ones(R, dtype=bool),
                    "all-off": np.zeros(R, dtype=bool)}[gates]
            z = rng.normal(size=(R, m))
            ids, Sg = simulator._filter_update(
                ids, predict_covariances(Sg, Phi, Xi), xh, gate, z, C, V)
            ref_ids, ref_Sg = reference_filter_update(
                ref_ids, predict_covariances(ref_Sg, Phi, Xi), ref_xh, gate, z, C, V)
            for got, want in ((ids, ref_ids), (Sg, ref_Sg), (xh, ref_xh)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class RowMajorDraws:
    """Drop-in for `simulator._Prefetch` that hands each block the leading
    rows of replication-major arrays drawn at once: the strided stage reads
    of the row-major buffers the stage-major ones replaced."""

    def __init__(self, streams, buffers, blocks):
        R = blocks[-1][1]
        shapes = [(R, buf.shape[0]) + buf.shape[2:] for buf in buffers[0]]
        self.whole = simulator._draw(streams, [np.empty(shape) for shape in shapes])
        self.blocks = blocks

    def take(self, b):
        lo, hi = self.blocks[b]
        return [arr[lo:hi] for arr in self.whole]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class TestBlockLayout:
    """The block loop on stage-major draws with the mask-free update gives
    the results of row-major draws with the masked update, bit for bit."""

    @staticmethod
    def row_major_masked(monkeypatch):
        monkeypatch.setattr(simulator, "_Prefetch", RowMajorDraws)
        monkeypatch.setattr(simulator, "_filter_update", reference_filter_update)

    @pytest.mark.parametrize("rows", [None, 5])
    def test_four_regimes(self, monkeypatch, rows):
        model, x0 = drift_plant(), np.array([1.0, -0.5])
        if rows is not None:
            set_block_rows(monkeypatch, model, rows)
        chain = fc.symmetric_chain(0.7, tau0=(0.3, 0.7))
        cfg = fc.SimulationConfig(replications=64, master_seed=29, record_traces=True)
        points = []
        for observation, delay in REGIMES:
            delay = None if delay is None else fc.DelayProfile(*delay)
            points.append((chain, delay, fc.solve(model, 0.7, delay, observation)))
        got = [fc.run(model, *point, cfg, x0=x0) for point in points]
        self.row_major_masked(monkeypatch)
        for point, res in zip(points, got):
            assert_same_result(res, fc.run(model, *point, cfg, x0=x0))

    @pytest.mark.parametrize("rows", [None, 5])
    def test_streamed_sweep(self, monkeypatch, rows):
        scenario = TestStreamedTracking.scenario()
        model, x0 = fc.build_system(scenario), fc.initial_state(scenario)
        if rows is not None:
            set_block_rows(monkeypatch, model, rows, streamed=True)
        points = []
        for observation, delay in [("partial", None), ("full", (2, 1)), ("partial", (1, 1))]:
            delay = None if delay is None else fc.DelayProfile(*delay)
            points.append((fc.symmetric_chain(0.75), delay,
                           fc.solve(model, 0.75, delay, observation)))
        cfg = fc.SimulationConfig(replications=64, master_seed=31)
        got = simulator.sweep(model, points, cfg, x0=x0, alpha=scenario.alpha)
        self.row_major_masked(monkeypatch)
        want = simulator.sweep(model, points, cfg, x0=x0, alpha=scenario.alpha)
        for res, ref in zip(got, want):
            for key in ("mean_cost", "std_error"):
                assert np.float64(res[key]).tobytes() == np.float64(ref[key]).tobytes()
            assert res["tracking"].keys() == ref["tracking"].keys()
            for key, value in ref["tracking"].items():
                assert np.float64(res["tracking"][key]).tobytes() == np.float64(value).tobytes()
