import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefleet.world import (ANGULAR_CANDIDATES, DT, LINEAR_CANDIDATES, Control,
                             PedestrianTrack, PedestrianWalker, PlatformParams,
                             RobotState, apply_ground_truth_dynamics,
                             candidate_controls, make_platform, make_world,
                             step_world, wrap_angle)

FREIGHT = make_platform("freight", 1.0)
MEGAROVER = make_platform("megarover", 1.0)


class TestKinematics:
    def test_straight_line_at_target_velocity(self):
        # already at the commanded velocity: pure straight advance
        s = apply_ground_truth_dynamics(RobotState(0, 0, 0, 1.0, 0), Control(1.0, 0), FREIGHT)
        assert s.x == pytest.approx(0.1)
        assert (s.y, s.theta, s.v, s.omega) == (0.0, 0.0, 1.0, 0.0)

    def test_acceleration_clamp_from_rest(self):
        # megarover m_v = 0.6: dv capped at 0.6 * 0.1 = 0.06
        s = apply_ground_truth_dynamics(RobotState(0, 0, 0, 0, 0), Control(1.0, 0), MEGAROVER)
        assert s.v == pytest.approx(0.06)
        assert (s.x, s.y, s.theta, s.omega) == (0.0, 0.0, 0.0, 0.0)

    def test_heading_pi_half_moves_plus_y(self):
        s = apply_ground_truth_dynamics(RobotState(0, 0, math.pi / 2, 1.0, 0),
                                        Control(1.0, 0), FREIGHT)
        assert s.x == pytest.approx(0.0, abs=1e-12)
        assert s.y == pytest.approx(0.1)
        assert s.theta == pytest.approx(math.pi / 2)

    def test_braking_also_clamped(self):
        s = apply_ground_truth_dynamics(RobotState(0, 0, 0, 1.0, 0), Control(0.0, 0), MEGAROVER)
        assert s.v == pytest.approx(1.0 - 0.06)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            apply_ground_truth_dynamics(RobotState(0, 0, 0, 0, 0), Control(0, 0), FREIGHT, dt=0)

    @given(v=st.floats(-1.0, 1.0), om=st.floats(-1.5, 1.5),
           uv=st.floats(-1.0, 1.0), uw=st.floats(-1.5, 1.5),
           th=st.floats(-math.pi, math.pi))
    @settings(max_examples=100, deadline=None)
    def test_velocity_change_bounded_by_acceleration(self, v, om, uv, uw, th):
        s = apply_ground_truth_dynamics(RobotState(0, 0, th, v, om), Control(uv, uw), FREIGHT)
        assert abs(s.v - v) <= FREIGHT.m_v * DT + 1e-9
        assert abs(s.omega - om) <= FREIGHT.m_omega * DT + 1e-9
        assert -math.pi < s.theta <= math.pi

    def test_stationary_robot_stays_put(self):
        s = RobotState(3.0, 4.0, 1.0, 0.0, 0.0)
        for _ in range(20):
            s = apply_ground_truth_dynamics(s, Control(0, 0), FREIGHT)
        assert (s.x, s.y) == (3.0, 4.0)


class TestWrapAngle:
    def test_wraps_into_half_open_interval(self):
        for th in (-10.0, -math.pi, 0.0, math.pi, 10.0, 100.0):
            w = float(wrap_angle(th))
            assert -math.pi < w <= math.pi

    def test_pi_maps_to_pi(self):
        assert float(wrap_angle(math.pi)) == pytest.approx(math.pi)
        assert float(wrap_angle(-math.pi)) == pytest.approx(math.pi)

    @given(st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_wrap_preserves_angle_mod_2pi(self, th):
        w = float(wrap_angle(th))
        assert math.isclose(math.cos(w), math.cos(th), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(th), abs_tol=1e-9)


class TestCandidates:
    def test_candidate_set_sizes(self):
        assert len(candidate_controls(0.5)) == 15
        assert len(candidate_controls(1.0)) == 28
        assert len(candidate_controls(1.5)) == 35

    def test_cartesian_product_structure(self):
        for speed in (0.5, 1.0, 1.5):
            cands = candidate_controls(speed)
            lin, ang = LINEAR_CANDIDATES[speed], ANGULAR_CANDIDATES[speed]
            assert len(cands) == len(lin) * len(ang)
            assert set(map(tuple, cands)) == {(v, w) for v in lin for w in ang}

    def test_unknown_speed_rejected(self):
        with pytest.raises(ValueError):
            candidate_controls(0.7)


class TestPlatforms:
    def test_platform_parameters(self):
        assert FREIGHT.m_v == 2.15 and FREIGHT.delay_h == 0.1
        assert MEGAROVER.m_v == 0.6 and MEGAROVER.delay_h == 0.2
        assert MEGAROVER.delay_steps == 2

    def test_duplicate_platform_suffix(self):
        p = make_platform("megarover#2", 1.0)
        assert p.m_v == 0.6 and p.name == "megarover#2"

    def test_validation(self):
        with pytest.raises(ValueError):
            PlatformParams("x", m_v=-1, m_omega=1, delay_h=0.1, max_speed=1.0)
        with pytest.raises(ValueError):
            PlatformParams("x", m_v=1, m_omega=1, delay_h=0.15, max_speed=1.0)
        with pytest.raises(ValueError):
            make_platform("segway", 1.0)


class TestStepWorld:
    def test_zero_delay_applies_same_tick(self):
        robots = {"r": (RobotState(0, 0, 0, 1.0, 0), make_platform("freight", 1.0, delay_h=0.0))}
        world = make_world(robots)
        nxt = step_world(world, {"r": Control(1.0, 0)})
        assert nxt.robot_state("r").x == pytest.approx(0.1)
        assert nxt.time == pytest.approx(0.1)

    def test_delay_exactness(self):
        # with delay k*dt, the control applied at step n was issued at n - k
        k = 2
        robots = {"r": (RobotState(0, 0, 0, 0.0, 0), make_platform("megarover", 1.0))}
        world = make_world(robots)
        assert len(world.robots["r"].queue) == k
        # issue a burst command once, then zeros; v must stay 0 for k steps
        world = step_world(world, {"r": Control(1.0, 0)})
        assert world.robot_state("r").v == 0.0
        world = step_world(world, {"r": Control(0.0, 0)})
        assert world.robot_state("r").v == 0.0
        world = step_world(world, {"r": Control(0.0, 0)})
        assert world.robot_state("r").v == pytest.approx(0.06)  # burst lands here

    def test_unknown_robot_id_rejected(self):
        world = make_world({"r": (RobotState(0, 0, 0, 0, 0), FREIGHT)})
        with pytest.raises(KeyError):
            step_world(world, {"ghost": Control(0, 0)})

    @pytest.mark.parametrize("cmd", [Control(float("nan"), 0.0), Control(0.5, float("inf"))])
    def test_non_finite_command_rejected(self, cmd):
        world = make_world({"r": (RobotState(0, 0, 0, 0, 0), FREIGHT)})
        with pytest.raises(ValueError, match="non-finite"):
            step_world(world, {"r": cmd})

    def test_determinism_with_noise(self):
        robots = {"r": (RobotState(1, 1, 0.3, 0.5, 0.1), FREIGHT)}
        runs = []
        for _ in range(2):
            world = make_world(robots, noise_sigma=0.01, seed=42)
            states = []
            for _ in range(50):
                world = step_world(world, {"r": Control(1.0, 0.4)})
                states.append(world.robot_state("r").as_array())
            runs.append(np.stack(states))
        assert np.array_equal(runs[0], runs[1])

    def test_pedestrian_uniform_motion(self):
        track = PedestrianTrack(((0.0, 0.0), (2.0, 0.0)), (1.0,))
        world = make_world({}, pedestrians={"p": PedestrianWalker(track)})
        for _ in range(10):
            world = step_world(world, {})
        assert world.pedestrian_position("p")[0] == pytest.approx(1.0)

    def test_pedestrian_ping_pong(self):
        track = PedestrianTrack(((0.0, 0.0), (1.0, 0.0)), (1.0,))
        walker = PedestrianWalker(track)
        for _ in range(15):  # 1.5 m of travel on a 1 m segment
            walker = walker.advanced()
        assert walker.position()[0] == pytest.approx(0.5)
        assert not walker.forward


class TestPedestrianTrack:
    def test_validation(self):
        with pytest.raises(ValueError):
            PedestrianTrack(((0, 0),), ())
        with pytest.raises(ValueError):
            PedestrianTrack(((0, 0), (0, 0)), (1.0,))
        with pytest.raises(ValueError):
            PedestrianTrack(((0, 0), (1, 0)), (0.0,))
        with pytest.raises(ValueError):
            PedestrianTrack(((0, 0), (1, 0)), (1.0, 1.0))
