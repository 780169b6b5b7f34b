"""Domain types: validation, chains, delay bookkeeping, config round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fogctl as fc
from fogctl.model import (
    PD_CHECK_TOL,
    PSD_EIG_TOL,
    arrival_grid,
    delay_from_config,
    reliability_from_config,
)

from reference import random_model


class TestMakeSystemAndValidation:
    def test_scalar_shorthand_expands(self):
        m = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=3)
        assert m.N == 3
        assert m.A[0].shape == (1, 1)
        assert len(m.A) == 3 and len(m.Q) == 4
        assert np.allclose(m.C[0], np.eye(1))
        assert np.allclose(m.V_noise[0], 0.0)

    def test_constant_matrix_replicated_per_stage(self):
        A = np.array([[1.0, 0.1], [0.0, 0.9]])
        m = fc.make_system(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2), W=np.eye(2), N=4)
        assert len(m.A) == 4
        for k in range(4):
            assert np.array_equal(m.A[k], A)

    def test_per_stage_sequences_accepted(self):
        A = [np.eye(1) * (k + 1) for k in range(3)]
        Q = [np.eye(1)] * 4
        m = fc.make_system(A=A, B=1.0, Q=Q, R=1.0, W=1.0, N=3)
        assert m.A[2][0, 0] == 3.0

    def test_arrays_are_read_only(self):
        m = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=2)
        with pytest.raises(ValueError):
            m.A[0][0, 0] = 5.0

    def test_all_violations_reported_together(self):
        with pytest.raises(fc.ModelValidationError) as ei:
            fc.make_system(A=1.0, B=1.0, Q=-1.0, R=0.0, W=-2.0, N=2)
        msg = str(ei.value)
        assert "Q" in msg and "R" in msg and "W" in msg

    def test_indefinite_q_rejected(self):
        with pytest.raises(fc.ModelValidationError):
            fc.make_system(A=1.0, B=1.0, Q=np.array([[-0.5]]), R=1.0, W=1.0, N=1)

    def test_singular_r_rejected(self):
        with pytest.raises(fc.ModelValidationError):
            fc.make_system(
                A=np.eye(2), B=np.eye(2), Q=np.eye(2),
                R=np.array([[1.0, 0.0], [0.0, 0.0]]), W=np.eye(2), N=2,
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(fc.ModelValidationError):
            fc.make_system(A=np.eye(2), B=np.ones((3, 1)), Q=np.eye(2), R=1.0, W=np.eye(2), N=2)

    def test_horizon_must_be_positive(self):
        with pytest.raises(fc.ModelValidationError):
            fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=0)

    def test_horizon_beyond_physical_memory_rejected_before_stacking(self):
        # 7 stage fields of 10^13 stages: far past any machine's memory
        with pytest.raises(fc.ModelValidationError, match=r"N = 10000000000000: .* MiB"):
            fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=10**13)

    def test_drift_stored_and_strippable(self):
        drift = np.array([[0.5], [-0.5]])
        m = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, drift=drift, N=2)
        assert m.drift is not None
        assert np.allclose(m.drift_at(1), [-0.5])
        bare = m.without_drift()
        assert bare.drift is None
        assert np.allclose(bare.drift_at(1), [0.0])

    def test_drift_default_zero(self):
        m = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=2)
        assert m.drift is None
        assert np.allclose(m.drift_at(0), [0.0])

    def test_validate_model_passes_random_instances(self, rng):
        for _ in range(20):
            model, _ = random_model(rng, partial=bool(rng.integers(0, 2)))
            assert fc.validate_model(model) is model


class TestStageStore:
    N = 3

    @staticmethod
    def stacked(N, n, s, m):
        return {
            "A": (N, n, n), "B": (N, n, s), "C": (N, m, n), "Q": (N + 1, n, n),
            "R": (N, s, s), "W": (N, n, n), "V_noise": (N, m, m), "drift": (N, n),
        }

    @staticmethod
    def inputs(form):
        if form == "scalar":
            return {"A": 1.0, "B": 1.0, "C": 1.0, "Q": 1.0, "R": 1.0, "W": 1.0,
                    "V_noise": 0.2, "drift": 0.5}
        const = {
            "A": np.array([[1.0, 0.1], [0.0, 0.9]]), "B": np.array([[0.0], [1.0]]),
            "C": np.array([[1.0, 0.0]]), "Q": np.eye(2), "R": np.eye(1),
            "W": 0.5 * np.eye(2), "V_noise": 0.2 * np.eye(1), "drift": np.array([0.1, -0.1]),
        }
        if form == "per-stage":
            return {name: [X] * (TestStageStore.N + (name == "Q")) for name, X in const.items()}
        return const

    @pytest.mark.parametrize("form", ["scalar", "constant", "per-stage"])
    def test_fields_are_stacked_read_only_c_arrays(self, form):
        m = fc.make_system(N=self.N, **self.inputs(form))
        n = 1 if form == "scalar" else 2
        for name, shape in self.stacked(self.N, n, 1, 1).items():
            X = getattr(m, name)
            assert type(X) is np.ndarray and X.dtype == np.float64, name
            assert X.shape == shape, name
            assert X.flags.c_contiguous and not X.flags.writeable, name
            assert X[1].flags.c_contiguous, name

    def test_input_array_is_copied_not_frozen(self):
        A = np.stack([np.eye(2), np.eye(2)])  # already a C-contiguous stack
        m = fc.make_system(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2), W=np.eye(2), N=2)
        A[0, 0, 0] = 7.0
        assert m.A[0][0, 0] == 1.0

    def test_one_asymmetry_warning_per_offending_stage(self):
        Q = [np.eye(2) for _ in range(5)]
        for k in (1, 3):
            Q[k] = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.warns(UserWarning) as record:
            m = fc.make_system(A=np.eye(2), B=np.eye(2), Q=Q, R=np.eye(2), W=np.eye(2), N=4)
        messages = [str(w.message) for w in record]
        assert len(messages) == 2
        assert messages[0].startswith("Q[1]: asymmetry 2.000e-01")
        assert messages[1].startswith("Q[3]: asymmetry 2.000e-01")
        assert np.array_equal(m.Q[3], [[1.0, 0.1], [0.1, 1.0]])

    def test_violation_names_the_singular_stage(self):
        R = [np.eye(2)] * 4
        R[2] = np.diag([1.0, 0.0])
        with pytest.raises(fc.ModelValidationError) as ei:
            fc.make_system(A=np.eye(2), B=np.eye(2), Q=np.eye(2), R=R, W=np.eye(2), N=4)
        assert ei.value.violations == ["R not positive definite at k=2"]

    @pytest.mark.parametrize("eig", [-1e-12, -1e-8])
    def test_borderline_q_decision_at_psd_tolerance(self, eig):
        # Q passes when its smallest eigenvalue is at least PSD_EIG_TOL = -1e-9
        accepted = eig >= PSD_EIG_TOL
        assert accepted == (eig == -1e-12)
        self.assert_decision(accepted, Q=np.diag([1.0, eig]), R=np.eye(2))

    @pytest.mark.parametrize("eig", [0.0, 5e-11, 2e-10])
    def test_borderline_r_decision_at_pd_tolerance(self, eig):
        # R passes only when its smallest eigenvalue exceeds PD_CHECK_TOL = 1e-10
        accepted = eig > PD_CHECK_TOL
        assert accepted == (eig == 2e-10)
        self.assert_decision(accepted, Q=np.eye(2), R=np.diag([1.0, eig]))

    @staticmethod
    def assert_decision(accepted, **weights):
        try:
            fc.make_system(A=np.eye(2), B=np.eye(2), W=np.eye(2), N=2, **weights)
        except fc.ModelValidationError:
            assert not accepted
        else:
            assert accepted

    @pytest.mark.parametrize("raw,needle", [
        ([1.0, 0.5], "A: expected 2 axes, or 3 with stages first"),
        ([[1.0, "x"]], "A: not a numeric array"),
        ([[1, 2], [1]], "A: not a numeric array"),
        (np.zeros((2, 1, 1, 1)), "A: expected 2 axes, or 3 with stages first"),
        ([[np.nan]], "A: non-finite entries"),
        ([[np.inf]], "A: non-finite entries"),
        (np.ones((3, 1, 1)), "A: shape (3, 1, 1), expected (2, 1, 1)"),
    ])
    def test_malformed_field_rejected(self, raw, needle):
        with pytest.raises(fc.ModelValidationError) as ei:
            fc.make_system(A=raw, B=1.0, Q=1.0, R=1.0, W=1.0, N=2)
        assert needle in str(ei.value)

    @pytest.mark.parametrize("N", [3.5, True, "4", 0, -2])
    def test_non_whole_N_rejected(self, N):
        # N = 3.5 used to build a 3-stage model, N = True a 1-stage one, and
        # N = "4" ended in a TypeError
        with pytest.raises(fc.ModelValidationError, match="N must be a whole number >= 1"):
            fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=N)


class TestPsdHelpers:
    def test_symmetrize_returns_symmetric(self):
        X = np.array([[1.0, 2.0], [0.0, 1.0]])
        S = fc.symmetrize(X)
        assert np.array_equal(S, S.T)

    def test_stack_matches_each_matrix_bit_for_bit(self, rng):
        stack = rng.standard_normal((7, 4, 4)) * 10.0 ** rng.integers(-8, 8, (7, 1, 1))
        # a C-contiguous stack, a strided view of one, and a stack of stacks
        for P in (stack, stack[::2].swapaxes(1, 2), stack[:6].reshape(2, 3, 4, 4)):
            whole = fc.symmetrize(P)
            assert whole.shape == P.shape
            for idx in np.ndindex(P.shape[:-2]):
                assert fc.symmetrize(P[idx]).tobytes() == whole[idx].tobytes()

    def test_integer_input_becomes_float(self):
        S = fc.symmetrize([[1, 2], [3, 4]])
        assert S.dtype == np.float64
        assert np.array_equal(S, [[1.0, 2.5], [2.5, 4.0]])


class TestReliabilityChain:
    def test_transition_matrix_layout(self):
        ch = fc.ReliabilityChain(p=0.9, q=0.3)
        T = ch.transition_matrix()
        # rows are from-state (OFF, ON); columns to-state
        assert np.allclose(T, [[0.3, 0.7], [0.1, 0.9]])
        assert np.allclose(T.sum(axis=1), 1.0)

    def test_symmetric_flag(self):
        assert fc.ReliabilityChain(p=0.7, q=0.3).symmetric
        assert not fc.ReliabilityChain(p=0.7, q=0.4).symmetric
        assert fc.symmetric_chain(0.25).symmetric

    def test_tau0_point_and_distribution(self):
        assert np.allclose(fc.ReliabilityChain(p=0.5, q=0.5, tau0=0).tau0_distribution(), [1, 0])
        assert np.allclose(fc.ReliabilityChain(p=0.5, q=0.5, tau0=1).tau0_distribution(), [0, 1])
        ch = fc.ReliabilityChain(p=0.5, q=0.5, tau0=(0.25, 0.75))
        assert np.allclose(ch.tau0_distribution(), [0.25, 0.75])

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(fc.ModelValidationError):
            fc.ReliabilityChain(p=1.2, q=0.5)
        with pytest.raises(fc.ModelValidationError):
            fc.ReliabilityChain(p=0.5, q=-0.1)
        with pytest.raises(fc.ModelValidationError):
            fc.ReliabilityChain(p=0.5, q=0.5, tau0=(0.5, 0.6))


class TestDelayProfile:
    def test_round_trip_sum(self):
        d = fc.DelayProfile(M_F=2, M_B=1)
        assert d.M == 3

    def test_boundary_and_cycle_counts(self):
        d = fc.DelayProfile(M_F=1, M_B=1, N=3)
        assert d.a == 1 and d.c == 1
        d2 = fc.DelayProfile(M_F=1, M_B=1, N=2)
        assert d2.a == 2 and d2.c == 0

    @given(
        M_F=st.integers(min_value=0, max_value=5),
        M_B=st.integers(min_value=0, max_value=5),
        N=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_identity(self, M_F, M_B, N):
        # a + c*M must tile the horizon exactly, with 1 <= a <= M
        if M_F + M_B == 0:
            return
        d = fc.DelayProfile(M_F=M_F, M_B=M_B, N=N)
        assert d.a + d.c * d.M == N
        assert 1 <= d.a <= d.M
        assert d.c >= 0

    @pytest.mark.parametrize("delay,grid", [
        (None, (1, 0, 0, 7)), ((0, 0), (1, 0, 0, 7)), ((1, 1), (2, 1, 2, 3)),
        ((2, 1), (3, 2, 3, 2)), ((0, 3), (3, 0, 3, 2)),
    ])
    def test_arrival_grid(self, delay, grid):
        # perfect match is the M = 0 grid: every stage an epoch, served and acted on at once
        delay = None if delay is None else fc.DelayProfile(M_F=delay[0], M_B=delay[1])
        assert arrival_grid(delay, 7) == grid

    def test_requires_bound_for_derived(self):
        with pytest.raises(fc.ModelValidationError):
            _ = fc.DelayProfile(M_F=1, M_B=0).a

    def test_zero_delay_has_no_cycles(self):
        with pytest.raises(fc.ModelValidationError):
            _ = fc.DelayProfile(M_F=0, M_B=0, N=5).a

    def test_negative_rejected(self):
        with pytest.raises(fc.ModelValidationError):
            fc.DelayProfile(M_F=-1, M_B=0)

    @pytest.mark.parametrize("field,value", [
        ("M_F", True), ("M_B", False), ("N", True), ("M_F", 1.5), ("N", 0), ("M_B", "1"),
    ])
    def test_non_whole_fields_rejected(self, field, value):
        # a bool used to pass for a stage count: M_F=True ran a one-stage delay
        kwargs = {"M_F": 1, "M_B": 0, field: value}
        with pytest.raises(fc.ModelValidationError, match=f"{field} must be a whole number"):
            fc.DelayProfile(**kwargs)

    def test_whole_floats_read_as_ints(self):
        d = fc.DelayProfile(M_F=2.0, M_B=np.int64(1), N=7.0)
        assert (d.M_F, d.M_B, d.N) == (2, 1, 7)
        assert all(type(v) is int for v in (d.M_F, d.M_B, d.N))

    def test_rebinding_conflict_rejected(self):
        d = fc.DelayProfile(M_F=1, M_B=0, N=4)
        with pytest.raises(fc.ModelValidationError):
            d.bound_to(5)


class TestCostBreakdown:
    def test_assemble_sums(self):
        cb = fc.CostBreakdown.assemble(1.0, 2.0, 0.5, 0.25)
        assert cb.total == pytest.approx(3.75)

    def test_inconsistent_total_rejected(self):
        with pytest.raises(fc.ModelValidationError):
            fc.CostBreakdown(
                initial_state_term=1.0, disturbance_trace_sum=1.0,
                collateral_trace_sum=0.0, estimation_penalty=0.0, total=3.0,
            )

    def test_negative_trace_sum_rejected(self):
        with pytest.raises(fc.ModelValidationError):
            fc.CostBreakdown.assemble(1.0, -0.5)


class TestConfigBlocks:
    def test_system_round_trip(self):
        block = {
            "N": 2,
            "A": [[[1.0, 0.5], [0.0, 1.0]], [[0.9, 0.0], [0.1, 1.0]]],  # per stage
            "B": [[0.0], [1.0]],
            "C": [[1.0, 0.0]],
            "Q": [[1.0, 0.0], [0.0, 2.0]],
            "R": 0.5,
            "W": [[0.1, 0.0], [0.0, 0.1]],
            "V_noise": [[0.2]],
            "drift": [[0.0, 1.0], [1.0, 0.0]],
            "x0": [1.0, -1.0],
        }
        model, x0 = fc.system_from_config(block)
        assert model.N == 2
        assert np.array_equal(model.A, block["A"])
        assert np.array_equal(model.B, [block["B"]] * 2)
        assert np.array_equal(model.C, [block["C"]] * 2)
        assert np.array_equal(model.Q, [block["Q"]] * 3)
        assert np.array_equal(model.R, [[[0.5]]] * 2)
        assert np.array_equal(model.W, [block["W"]] * 2)
        assert np.array_equal(model.V_noise, [block["V_noise"]] * 2)
        assert np.array_equal(model.drift, block["drift"])
        assert np.array_equal(x0, block["x0"])
        _, no_x0 = fc.system_from_config({k: block[k] for k in ("N", "A", "B", "Q", "R", "W")})
        assert no_x0 is None

    def test_system_unknown_key_rejected(self):
        with pytest.raises(fc.ConfigError, match="unknown"):
            fc.system_from_config({"N": 1, "A": 1, "B": 1, "Q": 1, "R": 1, "W": 1, "bogus": 2})

    def test_system_missing_key_rejected(self):
        with pytest.raises(fc.ConfigError, match="missing"):
            fc.system_from_config({"N": 1, "A": 1})

    def test_reliability_round_trip(self):
        ch = reliability_from_config({"p": 0.8, "q": 0.3, "tau0": [0.5, 0.5]})
        assert (ch.p, ch.q, ch.tau0) == (0.8, 0.3, (0.5, 0.5))
        sym = reliability_from_config({"p": 0.8})  # q defaults to 1 - p
        assert (sym.p, sym.q, sym.tau0) == (0.8, 1.0 - 0.8, 1) and sym.symmetric

    def test_reliability_p_required(self):
        with pytest.raises(fc.ConfigError, match=r"reliability: missing keys \['p'\]"):
            reliability_from_config({"q": 0.5})

    def test_delay_round_trip(self):
        d = delay_from_config({"M_F": 2, "M_B": 1})
        assert (d.M_F, d.M_B, d.N) == (2, 1, None)
        assert delay_from_config(None) is None
