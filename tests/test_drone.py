"""Trajectory-tracking study: plans, error-coordinate model, consistency."""

import numpy as np
import pytest

import fogctl as fc
from fogctl.drone import plan_from_config

NAN = float("nan")


def square_plan(side=4.0, stages_per_leg=3):
    return fc.WaypointPlan(
        approach_target=(side, 0.0),
        approach_stages=stages_per_leg,
        circle_radius=side / 2,
        circle_stages=2 * stages_per_leg,
        return_stages=stages_per_leg,
    )


def demo_scenario(N_circle=12, radius=5.0):
    plan = fc.WaypointPlan(
        approach_target=(radius, 0.0), approach_stages=4,
        circle_radius=radius, circle_stages=N_circle, return_stages=4,
        circle_center=(0.0, 0.0),
    )
    return fc.DroneScenario(waypoints=fc.make_waypoints(plan, 1.0))


class TestWaypointPlan:
    def test_validation(self):
        with pytest.raises(fc.ModelValidationError, match="zero radius"):
            fc.WaypointPlan(
                approach_target=(1, 0), approach_stages=1,
                circle_radius=0.0, circle_stages=4, return_stages=0,
            )
        with pytest.raises(fc.ModelValidationError, match="at least one stage"):
            fc.WaypointPlan(
                approach_target=(1, 0), approach_stages=0,
                circle_radius=1.0, circle_stages=0, return_stages=0,
            )
        with pytest.raises(fc.ModelValidationError, match="speed_bound"):
            fc.WaypointPlan(
                approach_target=(1, 0), approach_stages=1,
                circle_radius=0.0, circle_stages=0, return_stages=0,
                speed_bound=0.0,
            )
        with pytest.raises(fc.ModelValidationError,
                           match="approach_stages must be a whole number >= 0"):
            fc.WaypointPlan(
                approach_target=(1, 0), approach_stages=-1,
                circle_radius=0.0, circle_stages=0, return_stages=1,
            )

    @pytest.mark.parametrize("field", ["approach_stages", "circle_stages", "return_stages"])
    @pytest.mark.parametrize("value", [True, 2.5])
    def test_stage_counts_must_be_whole(self, field, value):
        # True used to count as one stage, like the whole-number rule elsewhere
        kwargs = dict(approach_target=(2.0, 0.0), approach_stages=1, circle_radius=1.0,
                      circle_stages=1, return_stages=1)
        kwargs[field] = value
        with pytest.raises(fc.ModelValidationError, match=f"{field} must be a whole number >= 0"):
            fc.WaypointPlan(**kwargs)

    def test_stage_counts_read_whole_floats_as_ints(self):
        # 2.0 used to be rejected, where make_system and DelayProfile read it as 2
        def plan(*stages):
            return fc.WaypointPlan(approach_target=(2.0, 0.0), approach_stages=stages[0],
                                   circle_radius=1.0, circle_stages=stages[1],
                                   return_stages=stages[2])
        floats = plan(2.0, np.int64(3), 1.0)
        counts = (floats.approach_stages, floats.circle_stages, floats.return_stages)
        assert counts == (2, 3, 1)
        assert all(type(c) is int for c in counts)
        np.testing.assert_array_equal(fc.make_waypoints(floats, 1.0),
                                      fc.make_waypoints(plan(2, 3, 1), 1.0))

    @pytest.mark.parametrize("field,value", [
        ("circle_radius", NAN), ("speed_bound", NAN), ("approach_target", (NAN, 0.0)),
        ("start", (0.0, NAN)), ("circle_center", (NAN, NAN)),
    ])
    def test_nan_field_rejected(self, field, value):
        kwargs = dict(approach_target=(2.0, 0.0), approach_stages=1, circle_radius=1.0,
                      circle_stages=4, return_stages=0)
        kwargs[field] = value
        with pytest.raises(fc.ModelValidationError, match=f"^{field} must"):
            fc.WaypointPlan(**kwargs)

    def test_entry_point_nearest(self):
        plan = fc.WaypointPlan(
            approach_target=(2.0, 0.0), approach_stages=1,
            circle_radius=1.0, circle_stages=4, return_stages=0,
        )
        assert np.allclose(plan.entry_point(), [1.0, 0.0])

    def test_entry_point_from_center(self):
        plan = fc.WaypointPlan(
            approach_target=(0.0, 0.0), approach_stages=1,
            circle_radius=2.0, circle_stages=4, return_stages=0,
        )
        assert np.allclose(plan.entry_point(), [2.0, 0.0])

    def test_center_defaults_to_target(self):
        plan = square_plan()
        assert np.allclose(plan.center, [4.0, 0.0])


class TestMakeWaypoints:
    def test_quarter_steps_hand_values(self):
        plan = fc.WaypointPlan(
            approach_target=(2.0, 0.0), approach_stages=1,
            circle_radius=1.0, circle_stages=4, return_stages=2,
        )
        pts = fc.make_waypoints(plan, 1.0)
        want = np.array([
            [0.0, 0.0],   # start
            [1.0, 0.0],   # circle entry (nearest point)
            [2.0, -1.0],  # counterclockwise quarter turns
            [3.0, 0.0],
            [2.0, 1.0],
            [1.0, 0.0],   # circle closes at the entry
            [0.5, 0.0],   # linear return, two hops
            [0.0, 0.0],
        ])
        assert pts.shape == (8, 2)
        assert np.allclose(pts, want, atol=1e-12)

    def test_direct_hop(self):
        plan = fc.WaypointPlan(
            approach_target=(3.0, 4.0), approach_stages=1,
            circle_radius=0.0, circle_stages=0, return_stages=0,
        )
        pts = fc.make_waypoints(plan, 1.0)
        assert pts.shape == (2, 2)
        assert np.allclose(pts[1], [3.0, 4.0])

    def test_dense_circle_stays_on_circle(self):
        plan = fc.WaypointPlan(
            approach_target=(10.0, 0.0), approach_stages=5,
            circle_radius=3.0, circle_stages=200, return_stages=0,
        )
        pts = fc.make_waypoints(plan, 1.0)
        circle = pts[6:]
        dist = np.linalg.norm(circle - np.array([10.0, 0.0]), axis=1)
        assert np.all(np.abs(dist - 3.0) < 1e-9)

    def test_speed_bound_enforced(self):
        plan = fc.WaypointPlan(
            approach_target=(10.0, 0.0), approach_stages=2,
            circle_radius=0.0, circle_stages=0, return_stages=0,
            speed_bound=4.0,
        )
        with pytest.raises(fc.ModelValidationError, match="speed bound"):
            fc.make_waypoints(plan, 1.0)
        # a longer sampling interval legalizes the same spacing
        pts = fc.make_waypoints(plan, 2.0)
        assert pts.shape == (3, 2)

    def test_delta_t_positive(self):
        with pytest.raises(fc.ModelValidationError, match="delta_t"):
            fc.make_waypoints(square_plan(), 0.0)

    def test_delta_t_nan_rejected(self):
        with pytest.raises(fc.ModelValidationError, match="delta_t must be finite"):
            fc.make_waypoints(square_plan(), NAN)


class TestDroneScenario:
    def test_rho_default_and_bound(self):
        sc = demo_scenario()
        assert sc.rho_value == pytest.approx(0.1 * 0.1 / 2)
        with pytest.raises(fc.ModelValidationError, match="rho"):
            fc.DroneScenario(waypoints=sc.waypoints, rho=0.5)

    def test_shape_validation(self):
        with pytest.raises(fc.ModelValidationError, match="waypoints"):
            fc.DroneScenario(waypoints=np.zeros((1, 2)))
        with pytest.raises(fc.ModelValidationError, match="delta_t"):
            fc.DroneScenario(waypoints=np.zeros((3, 2)), delta_t=0.0)

    @pytest.mark.parametrize("field,value", [
        ("delta_t", NAN), ("alpha", NAN), ("sigma_x", NAN), ("sigma_v", NAN), ("rho", NAN),
        ("waypoints", [[0.0, 0.0], [NAN, 1.0]]), ("start_position", (NAN, 0.0)),
        ("start_velocity", (0.0, NAN)),
    ])
    def test_nan_field_rejected(self, field, value):
        kwargs = {"waypoints": [[0.0, 0.0], [1.0, 0.0]], field: value}
        with pytest.raises(fc.ModelValidationError, match=f"^{field} must"):
            fc.DroneScenario(**kwargs)

    def test_N_property(self):
        sc = demo_scenario(N_circle=12)
        assert sc.N == 4 + 12 + 4

    def test_waypoints_frozen(self):
        sc = demo_scenario()
        with pytest.raises(ValueError):
            sc.waypoints[0, 0] = 99.0


class TestBuildSystem:
    def test_matrices_hand_form(self):
        sc = demo_scenario()
        model = fc.build_system(sc)
        assert model.state_dim == 4 and model.control_dim == 2
        A_want = np.block([
            [np.eye(2), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]
        ])
        assert np.allclose(model.A[0], A_want)
        assert np.allclose(model.B[0], np.vstack([np.eye(2), np.eye(2)]))
        assert np.allclose(model.Q[0], np.diag([1.0, 1.0, 0.1, 0.1]))
        assert np.allclose(model.R[0], 0.1 * np.eye(2))
        # terminal weight equals the running weight
        assert np.allclose(model.Q[model.N], model.Q[0])
        W_want = np.block([
            [0.01 * np.eye(2), 0.005 * np.eye(2)],
            [0.005 * np.eye(2), 0.01 * np.eye(2)],
        ])
        assert np.allclose(model.W[0], W_want)

    def test_delta_t_scales_blocks(self):
        sc = fc.DroneScenario(waypoints=demo_scenario().waypoints, delta_t=0.5)
        model = fc.build_system(sc)
        assert np.allclose(model.A[0][:2, 2:], 0.5 * np.eye(2))
        assert np.allclose(model.B[0][:2], 0.5 * np.eye(2))
        assert np.allclose(model.B[0][2:], np.eye(2))

    def test_drift_is_waypoint_difference(self):
        sc = demo_scenario()
        model = fc.build_system(sc)
        pts = np.asarray(sc.waypoints)
        for k in range(model.N):
            want = np.concatenate([pts[k] - pts[k + 1], [0.0, 0.0]])
            assert np.allclose(model.drift_at(k), want, atol=1e-12)

    def test_hover_has_zero_drift(self):
        sc = fc.DroneScenario(waypoints=np.tile([2.0, 3.0], (6, 1)))
        model = fc.build_system(sc)
        for k in range(model.N):
            assert np.allclose(model.drift_at(k), 0.0)

    def test_zero_alpha_rejected_at_build(self):
        sc = fc.DroneScenario(waypoints=demo_scenario().waypoints, alpha=0.0)
        with pytest.raises(fc.ModelValidationError):
            fc.build_system(sc)

    def test_random_scenarios_validate(self, rng):
        for _ in range(10):
            n_pts = int(rng.integers(2, 15))
            sc = fc.DroneScenario(
                waypoints=rng.normal(size=(n_pts, 2)) * 5,
                delta_t=float(rng.uniform(0.2, 2.0)),
                alpha=float(rng.uniform(0.01, 1.0)),
                sigma_x=float(rng.uniform(0.01, 0.5)),
                sigma_v=float(rng.uniform(0.01, 0.5)),
            )
            model = fc.build_system(sc)
            assert fc.validate_model(model) is model

    def test_initial_state(self):
        sc = demo_scenario()
        assert np.allclose(fc.initial_state(sc), 0.0)
        off = fc.DroneScenario(
            waypoints=sc.waypoints, start_position=(1.0, -1.0), start_velocity=(0.5, 0.0)
        )
        x0 = fc.initial_state(off)
        assert np.allclose(x0[:2], np.array([1.0, -1.0]) - np.asarray(sc.waypoints)[0])
        assert np.allclose(x0[2:], [0.5, 0.0])


class TestControllerModes:
    def test_mode_wiring(self):
        sc = demo_scenario()
        with pytest.raises(fc.ModelValidationError, match="unknown controller mode"):
            fc.tracking_study(sc, p_values=(0.5,), delays=(None,), replications=2, mode="vibes")
        with pytest.raises(fc.ModelValidationError, match="unknown controller mode"):
            fc.error_consistency_check(sc, fc.symmetric_chain(0.5), mode="vibes")

    def test_build_regime_variants(self):
        model = fc.build_system(demo_scenario())
        perfect = fc.solve(model, 0.8)
        assert perfect.gains.regime == "full-perfect"
        delayed = fc.solve(model, 0.8, fc.DelayProfile(M_F=2, M_B=1))
        assert delayed.gains.regime == "full-delayed"
        assert delayed.compensate_drift is False
        affine = fc.solve(model, 0.8, compensate_drift=True)
        assert affine.compensate_drift is True


class TestTrackingStudy:
    def test_rows_and_availability_direction(self):
        sc = demo_scenario()
        rows = fc.tracking_study(
            sc, p_values=(0.3, 0.95), delays=(None, fc.DelayProfile(M_F=2, M_B=1)),
            replications=400, master_seed=12,
        )
        assert len(rows) == 4
        for row in rows:
            assert {"p", "M", "mode", "mean_cost", "std_error",
                    "rms_position_error", "mse_std_error"} <= set(row)
        by = {(r["M"], r["p"]): r for r in rows}
        # better availability tracks tighter on the direct loop
        assert by[(0, 0.95)]["rms_position_error"] < by[(0, 0.3)]["rms_position_error"]
        # delay hurts at equal availability
        assert by[(0, 0.95)]["rms_position_error"] < by[(3, 0.95)]["rms_position_error"]

    def test_availability_direction_under_delay_without_drift(self):
        # on a moving reference the default mode predicts without the drift,
        # so served controls under delay can be counterproductive and the
        # p-direction is not guaranteed; a hover scenario removes the drift
        # and restores it
        hover = fc.DroneScenario(
            waypoints=np.tile([3.0, 2.0], (21, 1)), start_position=(8.0, 7.0)
        )
        rows = fc.tracking_study(
            hover, p_values=(0.3, 0.95), delays=(fc.DelayProfile(M_F=2, M_B=1),),
            replications=600, master_seed=12,
        )
        by = {r["p"]: r for r in rows}
        assert by[0.95]["rms_position_error"] < by[0.3]["rms_position_error"]

    def test_affine_mode_tracks_at_least_as_well(self):
        sc = demo_scenario()
        delays = (fc.DelayProfile(M_F=2, M_B=1),)
        faithful = fc.tracking_study(sc, (0.9,), delays, 600, master_seed=3)
        affine = fc.tracking_study(sc, (0.9,), delays, 600, master_seed=3,
                                   mode="affine-compensated")
        # shared draws make the comparison paired; compensation cannot lose
        # by more than noise, and on a moving reference it clearly wins
        assert affine[0]["rms_position_error"] < faithful[0]["rms_position_error"]


class TestErrorConsistency:
    def test_error_form_matches_raw_kinematics(self):
        sc = demo_scenario()
        chain = fc.ReliabilityChain(p=0.7, q=0.3, tau0=1)
        out = fc.error_consistency_check(sc, chain, replications=3, master_seed=5)
        assert out["agree"], out
        assert out["max_abs_difference"] <= 1e-9

    # M_F = 0: the served epoch's prediction reads the control arriving at
    # that same stage; M_B = 0: the control arrives at its service stage
    @pytest.mark.parametrize("M_F,M_B", [(2, 1), (0, 1), (0, 2), (1, 0)])
    def test_delayed_and_affine_variants_agree(self, M_F, M_B):
        sc = demo_scenario()
        chain = fc.symmetric_chain(0.75)
        delay = fc.DelayProfile(M_F=M_F, M_B=M_B)
        a = fc.error_consistency_check(sc, chain, delay=delay, replications=3, master_seed=6)
        assert a["agree"], a
        b = fc.error_consistency_check(
            sc, chain, delay=delay, replications=3, master_seed=6, mode="affine-compensated"
        )
        assert b["agree"], b


class TestScenarioConfig:
    def test_round_trip(self):
        sc = fc.scenario_from_config({
            "waypoints": [[0, 0], [1, 0], [1, 1]], "delta_t": 0.5, "alpha": 0.2,
            "sigma_x": 0.3, "sigma_v": 0.2, "rho": 0.01,
            "start_position": [1, 1], "start_velocity": [0.5, -0.5],
        })
        assert sc.waypoints.dtype == float
        assert np.array_equal(sc.waypoints, [[0, 0], [1, 0], [1, 1]])
        assert (sc.delta_t, sc.alpha, sc.sigma_x, sc.sigma_v) == (0.5, 0.2, 0.3, 0.2)
        assert sc.rho == sc.rho_value == 0.01
        assert sc.start_position == (1.0, 1.0)
        assert sc.start_velocity == (0.5, -0.5)

    def test_exactly_one_source_of_waypoints(self):
        with pytest.raises(fc.ConfigError, match="exactly one"):
            fc.scenario_from_config({})
        with pytest.raises(fc.ConfigError, match="exactly one"):
            fc.scenario_from_config({
                "waypoints": [[0, 0], [1, 0]],
                "plan": {"approach": {"target": [1, 0], "stages": 1}},
            })

    def test_plan_block_generates_waypoints(self):
        sc = fc.scenario_from_config({
            "plan": {
                "approach": {"target": [2.0, 0.0], "stages": 1},
                "circle": {"radius": 1.0, "stages": 4},
                "return": {"stages": 2},
            }
        })
        assert sc.N == 7
        assert np.allclose(sc.waypoints[1], [1.0, 0.0])

    def test_unknown_keys_rejected(self):
        with pytest.raises(fc.ConfigError, match="scenario: unknown keys"):
            fc.scenario_from_config({"waypoints": [[0, 0], [1, 0]], "spin": 2})
        with pytest.raises(fc.ConfigError, match=r"scenario\.plan: unknown keys"):
            plan_from_config({"warp": 9})
        with pytest.raises(fc.ConfigError, match=r"scenario\.plan\.circle: unknown keys"):
            plan_from_config({
                "approach": {"target": [1, 0], "stages": 1},
                "circle": {"radius": 1.0, "stages": 4, "clockwise": True},
            })
        with pytest.raises(fc.ConfigError, match="needs approach.target"):
            plan_from_config({"return": {"stages": 2}})
