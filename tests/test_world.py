import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefleet.world import (ANGULAR_CANDIDATES, DT, LINEAR_CANDIDATES, MAX_OMEGA,
                             PedestrianTrack, PedestrianWalker, PlatformParams,
                             candidate_controls, kinematics_step_batch, make_platform,
                             make_world, step_world, wrap_angle)

FREIGHT = make_platform("freight", 1.0)
MEGAROVER = make_platform("megarover", 1.0)
PLATFORMS = [make_platform("freight", 1.5), make_platform("jackal", 1.0),
             make_platform("megarover", 0.5)]


def scalar_step(state, control, params, velocity_noise=(0.0, 0.0)):
    """Reference: the scalar differential-drive tick the simulator used to run."""
    x = state[0] + math.cos(state[2]) * state[3] * DT
    y = state[1] + math.sin(state[2]) * state[3] * DT
    th = float(wrap_angle(state[2] + state[4] * DT))
    dv = min(max(control[0] - state[3], -params.m_v * DT), params.m_v * DT)
    dw = min(max(control[1] - state[4], -params.m_omega * DT), params.m_omega * DT)
    v = state[3] + dv + velocity_noise[0]
    om = state[4] + dw + velocity_noise[1]
    v = min(max(v, -params.max_speed), params.max_speed)
    om = min(max(om, -MAX_OMEGA), MAX_OMEGA)
    return np.array([x, y, th, v, om])


def step(state, control, params) -> np.ndarray:
    """One noiseless (x, y, theta, v, omega) row through kinematics_step_batch."""
    out = kinematics_step_batch(np.array([state], dtype=float), np.array([control], dtype=float),
                                params.m_v, params.m_omega, params.max_speed)
    return out[0]


def random_rows(n, rng):
    """(states, controls, noise) spanning the speed caps and every heading."""
    states = np.column_stack([rng.uniform(0, 12, n), rng.uniform(0, 12, n),
                              rng.uniform(-math.pi, math.pi, n), rng.uniform(-1.7, 1.7, n),
                              rng.uniform(-1.7, 1.7, n)])
    controls = np.column_stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n)])
    return states, controls, rng.normal(0.0, 0.05, (n, 2))


def noise_residual(noise):
    residual = np.zeros((len(noise), 4))
    residual[:, 2:] = noise
    return residual


class TestKinematics:
    def test_straight_line_at_target_velocity(self):
        # already at the commanded velocity: pure straight advance
        x, y, th, v, om = step((0, 0, 0, 1.0, 0), (1.0, 0), FREIGHT)
        assert x == pytest.approx(0.1)
        assert (y, th, v, om) == (0.0, 0.0, 1.0, 0.0)

    def test_acceleration_clamp_from_rest(self):
        # megarover m_v = 0.6: dv capped at 0.6 * 0.1 = 0.06
        x, y, th, v, om = step((0, 0, 0, 0, 0), (1.0, 0), MEGAROVER)
        assert v == pytest.approx(0.06)
        assert (x, y, th, om) == (0.0, 0.0, 0.0, 0.0)

    def test_heading_pi_half_moves_plus_y(self):
        x, y, th, _, _ = step((0, 0, math.pi / 2, 1.0, 0), (1.0, 0), FREIGHT)
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(0.1)
        assert th == pytest.approx(math.pi / 2)

    def test_braking_also_clamped(self):
        assert step((0, 0, 0, 1.0, 0), (0.0, 0), MEGAROVER)[3] == pytest.approx(1.0 - 0.06)

    @given(v=st.floats(-1.0, 1.0), om=st.floats(-1.5, 1.5),
           uv=st.floats(-1.0, 1.0), uw=st.floats(-1.5, 1.5),
           th=st.floats(-math.pi, math.pi))
    @settings(max_examples=100, deadline=None)
    def test_velocity_change_bounded_by_acceleration(self, v, om, uv, uw, th):
        _, _, th_new, v_new, om_new = step((0, 0, th, v, om), (uv, uw), FREIGHT)
        assert abs(v_new - v) <= FREIGHT.m_v * DT + 1e-9
        assert abs(om_new - om) <= FREIGHT.m_omega * DT + 1e-9
        assert -math.pi < th_new <= math.pi

    def test_stationary_robot_stays_put(self):
        s = (3.0, 4.0, 1.0, 0.0, 0.0)
        for _ in range(20):
            s = step(s, (0, 0), FREIGHT)
        assert (s[0], s[1]) == (3.0, 4.0)


class TestOneStep:
    """kinematics_step_batch with a noise residual is bit-equal to the scalar tick."""

    @pytest.mark.parametrize("params", PLATFORMS, ids=lambda p: p.name)
    def test_matches_scalar_reference_row_by_row_and_batched(self, params):
        S, U, W = random_rows(1000, np.random.default_rng(17))
        want = np.stack([scalar_step(s, u, params, velocity_noise=w) for s, u, w in zip(S, U, W)])
        lims = (params.m_v, params.m_omega, params.max_speed)
        rows = np.vstack([kinematics_step_batch(S[i:i + 1], U[i:i + 1], *lims,
                                                noise_residual(W[i:i + 1]))
                          for i in range(len(S))])
        np.testing.assert_array_equal(rows, want)
        np.testing.assert_array_equal(
            kinematics_step_batch(S, U, *lims, noise_residual(W)), want)

    def test_per_row_limits_match_scalar_reference(self):
        # the world's call: one row per robot, each with its own platform limits
        S, U, W = random_rows(999, np.random.default_rng(18))
        per_row = [PLATFORMS[i % 3] for i in range(len(S))]
        want = np.stack([scalar_step(s, u, p, velocity_noise=w)
                         for s, u, w, p in zip(S, U, W, per_row)])
        lims = [np.array([getattr(p, f) for p in per_row])
                for f in ("m_v", "m_omega", "max_speed")]
        np.testing.assert_array_equal(
            kinematics_step_batch(S, U, *lims, noise_residual(W)), want)

    def test_no_residual_is_zero_noise(self):
        S, U, _ = random_rows(200, np.random.default_rng(19))
        lims = (FREIGHT.m_v, FREIGHT.m_omega, FREIGHT.max_speed)
        want = np.stack([scalar_step(s, u, FREIGHT) for s, u in zip(S, U)])
        np.testing.assert_array_equal(kinematics_step_batch(S, U, *lims), want)

    def test_step_world_matches_scalar_reference(self):
        # a noisy four-robot world with delays of 2, 1, 1 and 0 ticks: one
        # (R, 2) noise draw per tick equals the scalar simulator's per-robot
        # size-2 draws in sorted id order
        specs = {"b": ((1.0, 2.0, 0.3, 0.2, 0.0), make_platform("megarover", 1.0)),
                 "a": ((5.0, 5.0, -2.0, 0.0, 0.4), make_platform("freight", 1.0)),
                 "c": ((8.0, 1.0, 3.0, 0.5, -0.2), make_platform("jackal", 1.0)),
                 "d": ((2.0, 9.0, 1.2, 0.4, 0.1), make_platform("freight", 1.0, delay_h=0.0))}
        world = make_world(specs, noise_sigma=0.02, seed=11)
        assert world.ids == ["a", "b", "c", "d"]
        assert [len(q) for q in world.queues] == [1, 2, 1, 0]
        rng = np.random.default_rng(11)
        ref = {rid: (np.array(s), p, [(0.0, 0.0)] * p.delay_steps)
               for rid, (s, p) in specs.items()}
        cmd_rng = np.random.default_rng(3)
        for _ in range(60):
            cmds = cmd_rng.uniform(-1.2, 1.2, (len(specs), 2))
            world = step_world(world, cmds)
            for rid, cmd in zip(world.ids, cmds):
                state, params, queue = ref[rid]
                queue = queue + [tuple(cmd)]
                noise = tuple(rng.normal(0.0, 0.02, 2))
                ref[rid] = (scalar_step(state, queue[0], params, velocity_noise=noise),
                            params, queue[1:])
            np.testing.assert_array_equal(world.states,
                                          np.stack([ref[rid][0] for rid in world.ids]))


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
        robots = {"r": ((0, 0, 0, 1.0, 0), make_platform("freight", 1.0, delay_h=0.0))}
        world = make_world(robots)
        nxt = step_world(world, [(1.0, 0)])
        assert nxt.states[0, 0] == pytest.approx(0.1)
        assert nxt.time == pytest.approx(0.1)

    def test_delay_exactness(self):
        # with delay k*dt, the control applied at step n was issued at n - k
        k = 2
        robots = {"r": ((0, 0, 0, 0.0, 0), make_platform("megarover", 1.0))}
        world = make_world(robots)
        assert world.queues[0].shape == (k, 2)
        # issue a burst command once, then zeros; v must stay 0 for k steps
        world = step_world(world, [(1.0, 0)])
        assert world.states[0, 3] == 0.0
        world = step_world(world, [(0.0, 0)])
        assert world.states[0, 3] == 0.0
        world = step_world(world, [(0.0, 0)])
        assert world.states[0, 3] == pytest.approx(0.06)  # burst lands here

    def test_step_leaves_the_old_world_unchanged(self):
        # run_single keeps views of a world's state rows as position history
        robots = {"a": ((1, 2, 0.3, 0.5, 0.1), MEGAROVER), "b": ((4, 4, 0, 0, 0), FREIGHT)}
        world = make_world(robots, noise_sigma=0.01, seed=5)
        states, queues = world.states.copy(), [q.copy() for q in world.queues]
        nxt = step_world(world, [(1.0, 0.4), (0.5, -0.4)])
        np.testing.assert_array_equal(world.states, states)
        for old, kept in zip(world.queues, queues):
            np.testing.assert_array_equal(old, kept)
        assert not np.array_equal(nxt.states, states)
        assert [q.tolist() for q in nxt.queues] == [[[0.0, 0.0], [1.0, 0.4]], [[0.5, -0.4]]]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_initial_state_rejected(self, bad):
        robots = {"ok": ((0, 0, 0, 0, 0), FREIGHT), "r2": ((1.0, bad, 0, 0, 0), FREIGHT)}
        with pytest.raises(ValueError, match="'r2'"):
            make_world(robots)

    def test_wrong_command_shape_rejected(self):
        # one (2,) row per robot: an extra row, a missing one or a wrong width
        world = make_world({"r": ((0, 0, 0, 0, 0), FREIGHT), "s": ((2, 0, 0, 0, 0), FREIGHT)})
        for cmds in (np.zeros((3, 2)), np.zeros((1, 2)), np.zeros((2, 3)), np.zeros(2)):
            with pytest.raises(ValueError, match=r"\(2, 2\)"):
                step_world(world, cmds)

    @pytest.mark.parametrize("cmd", [(float("nan"), 0.0), (0.5, float("inf"))])
    def test_non_finite_command_rejected(self, cmd):
        world = make_world({"q": ((0, 0, 0, 0, 0), FREIGHT), "r": ((1, 0, 0, 0, 0), FREIGHT)})
        with pytest.raises(ValueError, match="non-finite command for robot 'r'"):
            step_world(world, [(0.0, 0.0), cmd])

    def test_determinism_with_noise(self):
        robots = {"r": ((1, 1, 0.3, 0.5, 0.1), FREIGHT)}
        runs = []
        for _ in range(2):
            world = make_world(robots, noise_sigma=0.01, seed=42)
            states = []
            for _ in range(50):
                world = step_world(world, [(1.0, 0.4)])
                states.append(world.states[0])
            runs.append(np.stack(states))
        assert np.array_equal(runs[0], runs[1])

    def test_pedestrian_uniform_motion(self):
        track = PedestrianTrack(((0.0, 0.0), (2.0, 0.0)), (1.0,))
        world = make_world({}, pedestrians={"p": PedestrianWalker(track)})
        for _ in range(10):
            world = step_world(world, np.empty((0, 2)))
        assert world.pedestrians["p"].position()[0] == pytest.approx(1.0)

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
