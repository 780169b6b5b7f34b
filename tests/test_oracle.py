"""Independent verification oracles: DP minima, policy evaluation, brackets."""

import numpy as np
import pytest

import fogctl as fc

from fogctl import oracle

from reference import (
    closed_form_cost,
    make_regime,
    random_delay,
    random_model,
    random_sticky_pair,
    reference_enumeration_cost,
    reference_tau_paths,
    scalar_fixture,
)


def random_chain(rng, i):
    """A chain and tau0 for case i: absorbing, p = 0, or random, with
    tau0 a point value or a distribution."""
    p, q = (float(v) for v in rng.uniform(0.05, 0.95, size=2))
    p, q = [(p, q), (1.0, 1.0), (0.0, q), (1.0, q), (p, 1.0)][i % 5]
    tau0 = [1, 0, (0.3, 0.7), (1.0, 0.0)][i % 4]
    return fc.ReliabilityChain(p=p, q=q, tau0=tau0), tau0


def tree_paths(N, chain):
    """(states, probability) of each leaf of `oracle._prefix_tree`, in its
    order, the state rows built stage by stage from the parent indices."""
    states = np.zeros((1, 0), dtype=np.int8)
    tree = oracle._prefix_tree(N, chain.tau0_distribution(), chain.transition_matrix())
    for parent, state, prob in tree:
        states = np.column_stack([states[parent], state])
    return [(tuple(row), pr) for row, pr in zip(states.tolist(), prob.tolist())]


class TestPathEnumeration:
    def test_probabilities_sum_to_one(self, rng):
        for _ in range(10):
            p, q = rng.uniform(0.05, 0.95, size=2)
            chain = fc.ReliabilityChain(p=float(p), q=float(q), tau0=1)
            N = int(rng.integers(1, 7))
            paths = tree_paths(N, chain)
            assert sum(pr for _, pr in paths) == pytest.approx(1.0, abs=1e-12)
            assert len(paths) <= 2 ** N

    def test_deterministic_chain_single_path(self):
        chain = fc.ReliabilityChain(p=1.0, q=1.0, tau0=1)
        paths = tree_paths(5, chain)
        assert len(paths) == 1
        assert paths[0][0] == (1, 1, 1, 1, 1)
        assert paths[0][1] == pytest.approx(1.0)

    def test_zero_probability_paths_skipped(self):
        chain = fc.ReliabilityChain(p=1.0, q=0.5, tau0=1)  # ON is absorbing
        paths = tree_paths(4, chain)
        assert all(states == (1, 1, 1, 1) for states, _ in paths)

    def test_horizon_guard(self):
        model = fc.make_system(A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, N=17)
        chain = fc.symmetric_chain(0.5)
        policy = fc.solve(model, 0.5)
        with pytest.raises(fc.ModelValidationError, match="limited to N <= 16"):
            fc.evaluate_policy_cost(model, chain, None, policy, np.ones(1), method="enumeration")

    def test_tree_equals_product_reference(self, rng):
        for i in range(25):
            chain, _ = random_chain(rng, i)
            N = int(rng.integers(1, 9))
            got = tree_paths(N, chain)
            assert got == reference_tau_paths(N, chain)
            assert all(type(t) is int for states, _ in got for t in states)
            widest = oracle._widest_stage(N, chain.tau0_distribution(), chain.transition_matrix())
            assert widest == len(got)


class TestBruteForceMinimum:
    def test_scalar_hand_value_perfect(self):
        model, x0 = scalar_fixture(N=1)
        got = fc.brute_force_min_cost(model, fc.symmetric_chain(1.0), None, x0)
        assert got == pytest.approx(2.5, abs=1e-12)

    def test_scalar_hand_value_delayed(self):
        model, x0 = scalar_fixture(N=3)
        got = fc.brute_force_min_cost(
            model, fc.symmetric_chain(1.0), fc.DelayProfile(M_F=1, M_B=1), x0
        )
        assert got == pytest.approx(9.5, abs=1e-12)

    def test_matches_closed_form_perfect(self, rng):
        for _ in range(15):
            model, x0 = random_model(rng, N_low=3, N_high=7)
            p = float(rng.uniform(0.05, 1.0))
            tau0 = int(rng.integers(0, 2))
            want = closed_form_cost(model, p, None, "full", x0, tau0=tau0).total
            got = fc.brute_force_min_cost(
                model, fc.symmetric_chain(p, tau0=tau0), None, x0
            )
            assert got == pytest.approx(want, rel=1e-10)

    def test_matches_closed_form_delayed(self, rng):
        for _ in range(15):
            model, x0 = random_model(rng, N_low=4, N_high=8)
            delay = random_delay(rng, model.N)
            p = float(rng.uniform(0.05, 1.0))
            want = closed_form_cost(model, p, delay, "full", x0).total
            got = fc.brute_force_min_cost(model, fc.symmetric_chain(p), delay, x0)
            assert got == pytest.approx(want, rel=1e-10)

    def test_delayed_closed_form_exact_at_backward_only_delay_when_stationary(self, rng):
        # M_F = 0 leaves the first gate correlated with tau0; starting the
        # chain at its stationary law restores the closed form exactly
        model, x0 = random_model(rng, N_low=5, N_high=8)
        delay = fc.DelayProfile(M_F=0, M_B=2)
        p = 0.6
        chain = fc.ReliabilityChain(p=p, q=1 - p, tau0=(1 - p, p))
        want = closed_form_cost(model, p, delay, "full", x0).total
        got = fc.brute_force_min_cost(model, chain, delay, x0)
        assert got == pytest.approx(want, rel=1e-10)

    def test_asymmetric_chain_bracketed_by_symmetric_twins(self, rng):
        for _ in range(10):
            model, x0 = random_model(rng, N_low=3, N_high=6)
            p, q = random_sticky_pair(rng)
            chain = fc.ReliabilityChain(p=p, q=q, tau0=1)
            mid = fc.brute_force_min_cost(model, chain, None, x0)
            lo = fc.brute_force_min_cost(model, fc.symmetric_chain(p), None, x0)
            hi = fc.brute_force_min_cost(model, fc.symmetric_chain(1 - q), None, x0)
            assert lo - 1e-9 <= mid <= hi + 1e-9

    def test_scope_guards(self, rng):
        model, x0 = scalar_fixture(N=3)
        chain = fc.symmetric_chain(0.5)
        drifty = fc.make_system(
            A=1.0, B=1.0, Q=1.0, R=1.0, W=1.0, drift=np.array([[1.0]]), N=1
        )
        with pytest.raises(fc.ModelValidationError, match="drift"):
            fc.brute_force_min_cost(drifty, chain, None, np.zeros(1))
        # the DP is O(N): only path enumeration keeps the N <= 16 guard
        long_model, _ = scalar_fixture(N=17)
        dp = fc.brute_force_min_cost(long_model, chain, None, x0)
        want = fc.min_cost(long_model, fc.solve(long_model, 0.5), x0, 1).total
        assert dp == pytest.approx(want, rel=1e-9)
        with pytest.raises(fc.ModelValidationError, match="horizon shorter"):
            fc.brute_force_min_cost(
                model, chain, fc.DelayProfile(M_F=2, M_B=2), x0
            )

    @pytest.mark.parametrize("tau0,valid", [
        (2, False), ((3.0, -2.0), False), (True, False),
        ((float("nan"), float("nan")), False), ([0.3, 0.7], True),
    ], ids=["point-2", "negative-mass", "bool", "nan", "list-distribution"])
    def test_tau0_read_as_production_reads_it(self, tau0, valid):
        # tau0 = 2 used to read as 1, (3, -2) as a distribution, True as 1,
        # and a list ended in a TypeError
        model = fc.make_system(A=1.1, B=1.0, Q=1.0, R=1.0, W=1.0, N=6)
        x0 = np.array([1.0])
        chain = fc.symmetric_chain(0.7)
        policy = make_regime(model, 0.7, None)
        oracles = (
            lambda: fc.brute_force_min_cost(model, chain, None, x0, tau0=tau0),
            lambda: fc.evaluate_policy_cost(model, chain, None, policy, x0, tau0=tau0),
        )
        for oracle in oracles:
            if valid:
                want = fc.min_cost(model, fc.solve(model, 0.7), x0, tuple(tau0)).total
                assert oracle() == pytest.approx(want, rel=1e-10)
            else:
                with pytest.raises(fc.ModelValidationError, match="tau0"):
                    oracle()


class TestPolicyEvaluation:
    def test_optimal_policy_attains_dp_minimum_perfect(self, rng):
        for _ in range(10):
            model, x0 = random_model(rng, N_low=3, N_high=6)
            p = float(rng.uniform(0.1, 1.0))
            chain = fc.symmetric_chain(p)
            policy = make_regime(model, p, None)
            val = fc.evaluate_policy_cost(model, chain, None, policy, x0)
            opt = fc.brute_force_min_cost(model, chain, None, x0)
            assert val == pytest.approx(opt, rel=1e-9)

    def test_optimal_policy_attains_dp_minimum_delayed(self, rng):
        for _ in range(10):
            model, x0 = random_model(rng, N_low=4, N_high=8)
            delay = random_delay(rng, model.N)
            p = float(rng.uniform(0.1, 1.0))
            chain = fc.symmetric_chain(p)
            policy = make_regime(model, p, delay)
            val = fc.evaluate_policy_cost(model, chain, delay, policy, x0)
            opt = fc.brute_force_min_cost(model, chain, delay, x0)
            assert val == pytest.approx(opt, rel=1e-9)

    def test_moments_equal_enumeration(self, rng):
        for _ in range(8):
            model, x0 = random_model(rng, N_low=3, N_high=6)
            p, q = rng.uniform(0.1, 0.95, size=2)
            chain = fc.ReliabilityChain(p=float(p), q=float(q), tau0=1)
            policy = make_regime(model, 0.5, None)
            a = fc.evaluate_policy_cost(model, chain, None, policy, x0, method="moments")
            b = fc.evaluate_policy_cost(model, chain, None, policy, x0, method="enumeration")
            assert a == pytest.approx(b, rel=1e-10)

    def test_tree_matches_path_loop(self, rng):
        # absorbing chains, p = 0 and tau0 distributions among the cases
        for i in range(25):
            model, x0 = random_model(rng, N_low=1, N_high=8)
            chain, tau0 = random_chain(rng, i)
            policy = make_regime(model, float(rng.uniform(0.1, 1.0)), None)
            got = fc.evaluate_policy_cost(
                model, chain, None, policy, x0, tau0=tau0, method="enumeration"
            )
            want = reference_enumeration_cost(model, chain, policy.gains.V, x0, tau0)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_moments_equal_enumeration_at_horizon_guard(self):
        # 2^16 histories: about a million stage steps for a path-by-path loop
        model = fc.make_system(
            A=[[1.0, 0.2, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.8]], B=[[0.0], [0.1], [0.2]],
            Q=np.eye(3), R=0.5, W=0.02 * np.eye(3), N=oracle.ORACLE_MAX_N,
        )
        x0 = np.array([1.0, -0.5, 0.3])
        chain = fc.ReliabilityChain(p=0.9, q=0.6, tau0=(0.3, 0.7))
        policy = fc.sandwich_policy(model, 0.9, 0.6)
        a = fc.evaluate_policy_cost(model, chain, None, policy, x0, method="moments")
        b = fc.evaluate_policy_cost(model, chain, None, policy, x0, method="enumeration")
        assert a == pytest.approx(b, rel=1e-10)

    def test_enumeration_memory_guard(self, monkeypatch):
        model = fc.make_system(A=np.eye(2), B=np.ones((2, 1)), Q=np.eye(2), R=1.0,
                               W=np.eye(2), N=6)
        policy = make_regime(model, 0.5, None)
        chain = fc.symmetric_chain(0.5)

        def evaluate():
            return fc.evaluate_policy_cost(
                model, chain, None, policy, np.ones(2), method="enumeration"
            )
        monkeypatch.setattr("fogctl.model._physical_mib", lambda: 0.001)
        with pytest.raises(fc.ModelValidationError, match=r"N = 6, n = 2: .* MiB"):
            evaluate()
        monkeypatch.undo()

        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr(oracle, "_node_cost", exhausted)
        with pytest.raises(fc.ModelValidationError, match="N = 6, n = 2: out of memory"):
            evaluate()

    def test_mistuned_policy_never_beats_dp(self, rng):
        for _ in range(10):
            model, x0 = random_model(rng, N_low=3, N_high=6)
            p = float(rng.uniform(0.1, 0.9))
            wrong = float(rng.uniform(0.1, 1.0))
            chain = fc.symmetric_chain(p)
            policy = make_regime(model, wrong, None)
            val = fc.evaluate_policy_cost(model, chain, None, policy, x0)
            opt = fc.brute_force_min_cost(model, chain, None, x0)
            assert val >= opt - 1e-9

    def test_delay_mismatch_rejected(self):
        model, x0 = scalar_fixture(N=4)
        chain = fc.symmetric_chain(0.5)
        policy = make_regime(model, 0.5, fc.DelayProfile(M_F=1, M_B=1))
        with pytest.raises(fc.ModelValidationError, match="delay M=0 but policy gains"):
            fc.evaluate_policy_cost(model, chain, None, policy, x0)

    def test_enumeration_rejected_for_delayed(self):
        model, x0 = scalar_fixture(N=4)
        delay = fc.DelayProfile(M_F=1, M_B=1)
        policy = make_regime(model, 0.5, delay)
        with pytest.raises(fc.ModelValidationError, match="zero-delay loop only"):
            fc.evaluate_policy_cost(
                model, fc.symmetric_chain(0.5), delay, policy, x0, method="enumeration"
            )

    def test_unknown_method_rejected(self):
        model, x0 = scalar_fixture(N=3)
        policy = make_regime(model, 0.5, None)
        with pytest.raises(fc.ModelValidationError, match="unknown evaluation method"):
            fc.evaluate_policy_cost(
                model, fc.symmetric_chain(0.5), None, policy, x0, method="psychic"
            )


class TestBoundCheck:
    def test_holds_on_random_sticky_instances(self, rng):
        for _ in range(15):
            model, x0 = random_model(rng, N_low=3, N_high=7)
            p, q = random_sticky_pair(rng)
            out = fc.bound_check(model, p, q, None, "full-perfect", x0=x0)
            assert out["holds"], out
            assert out["method"] == "exact"
            assert out["lower"] <= out["upper"] + 1e-12

    def test_holds_delayed(self, rng):
        for _ in range(8):
            model, x0 = random_model(rng, N_low=4, N_high=8)
            delay = random_delay(rng, model.N)
            p, q = random_sticky_pair(rng)
            out = fc.bound_check(model, p, q, delay, "full-delayed", x0=x0)
            assert out["holds"], out
            # the same round trip served at stage 0, where tau0 gates it
            served_at_once = fc.DelayProfile(M_F=0, M_B=delay.M)
            for tau0 in (0, 1):
                out = fc.bound_check(model, p, q, served_at_once, "full-delayed",
                                     x0=x0, tau0=tau0)
                assert out["holds"], (tau0, out)

    def test_monte_carlo_fallback_above_oracle_scope(self):
        # partial observation lies outside the exact oracles' scope
        model, x0 = scalar_fixture(N=18)
        out = fc.bound_check(
            model, 0.9, 0.4, None, "partial-perfect", x0=x0,
            config={"replications": 4000, "seed": 5},
        )
        assert out["method"] == "monte-carlo"
        assert out["holds"], out
        assert out["tolerance"] > 1e-9

    def test_exact_past_enumeration_limit(self):
        # the moment recursion is O(N), so full observation stays exact at N = 24
        model = fc.make_system(
            A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.0], [0.1]], Q=np.eye(2), R=1.0,
            W=0.01 * np.eye(2), N=24,
        )
        out = fc.bound_check(
            model, 0.9, 0.3, None, "full-perfect", x0=[1.0, 0.0],
            config={"replications": 20000},
        )
        assert out["method"] == "exact"
        assert out["tolerance"] == 1e-9
        assert out["holds"], out

    def test_symmetric_chain_rejected(self):
        model, _ = scalar_fixture(N=3)
        with pytest.raises(fc.ModelValidationError, match="sandwich hypotheses violated"):
            fc.bound_check(model, 0.5, 0.5, None, "full-perfect")

    def test_regime_and_delay_consistency(self):
        model, _ = scalar_fixture(N=4)
        delay = fc.DelayProfile(M_F=1, M_B=1)
        with pytest.raises(fc.ModelValidationError, match="unknown regime"):
            fc.bound_check(model, 0.9, 0.3, None, "half-baked")
        with pytest.raises(fc.ModelValidationError, match="requires a delay profile"):
            fc.bound_check(model, 0.9, 0.3, None, "full-delayed")
        with pytest.raises(fc.ModelValidationError, match="matched regime given"):
            fc.bound_check(model, 0.9, 0.3, delay, "full-perfect")

    def test_unknown_config_key_rejected(self):
        model, _ = scalar_fixture(N=3)
        with pytest.raises(fc.ModelValidationError, match="unknown bound_check config"):
            fc.bound_check(model, 0.9, 0.3, None, "full-perfect", config={"reps": 3})

    @pytest.mark.parametrize("key", ["replications", "seed"])
    @pytest.mark.parametrize("value", [2.9, "3", True, -1])
    def test_config_counts_must_be_whole(self, key, value):
        model, _ = scalar_fixture(N=3)
        with pytest.raises(fc.ModelValidationError,
                           match=f"bound_check {key} must be a whole number"):
            fc.bound_check(model, 0.9, 0.3, None, "partial-perfect", config={key: value})
