import dataclasses

import numpy as np
import pytest

from safefleet import nn
from safefleet.barrier import BarrierModel
from safefleet.controller import (HORIZON, INTERACTION_RADIUS, AgentTrack, ControllerConfig,
                                  MissingBarrierError, _predicted_agent, classify_agent,
                                  coast_rollout, filter_candidates, goal_score,
                                  recovery_control, plan_start_state, select_control)
from safefleet.data import features_from_context
from safefleet.dynamics import DynamicsModel, predict_next_batch
from safefleet.world import (DT, candidate_controls, coast_step_batch, make_platform,
                             make_world, step_world)

DYN = DynamicsModel(make_platform("freight", 1.0))
CANDS = candidate_controls(1.0)
NO_QUEUE = np.empty((0, 2))


def _state(*row):
    return np.array(row, dtype=float)


def _cfg(**kw):
    return ControllerConfig(candidates=CANDS, **kw)


def constant_barrier(task, value, in_dim):
    net = nn.Mlp([in_dim, 4, 1], out_activation="identity", seed=0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    net.biases[-1][0] = value
    return BarrierModel(net=net, task=task)


def all_barriers(value):
    return {"static": constant_barrier("static", value, 5),
            "dynamic": constant_barrier("dynamic", value, 9),
            "multirobot": constant_barrier("multirobot", value, 8)}


class TestClassifyAgent:
    def test_three_identical_positions_static(self):
        track = AgentTrack("o", [(1, 1)] * 3)
        assert classify_agent(track) == "static"

    def test_moving_track_pedestrian(self):
        track = AgentTrack("p", [(0, 0), (0.1, 0), (0.2, 0)])  # 1.0 m/s
        assert classify_agent(track) == "pedestrian"

    def test_declared_kind_short_circuits(self):
        # a track carrying coasted states is a robot, even when it stands still
        track = AgentTrack("r", [(1, 1)] * 3, states=_state(1, 1, 0, 0, 0)[None, :])
        assert classify_agent(track) == "robot"

    def test_track_needs_three_positions(self):
        with pytest.raises(ValueError):
            AgentTrack("p", [(0, 0), (1, 1)])


class TestPlanStartState:
    def test_empty_queue_identity(self):
        s = _state(1, 2, 0.3, 0.4, 0.1)
        np.testing.assert_array_equal(plan_start_state(s, NO_QUEUE, DYN), s)

    def test_one_step_queue(self):
        s = _state(0, 0, 0, 1.0, 0)
        got = plan_start_state(s, np.array([[1.0, 0]]), DYN)
        want = predict_next_batch(DYN, s[None, :], np.array([[1.0, 0]]))
        np.testing.assert_array_equal(got, want[0])

    def test_two_step_queue_megarover(self):
        dyn = DynamicsModel(make_platform("megarover", 1.0))
        s = _state(0, 0, 0, 0.0, 0)
        q = np.array([[1.0, 0], [1.0, 0]])
        got = plan_start_state(s, q, dyn)
        want = s[None, :]
        for u in q:
            want = predict_next_batch(dyn, want, u[None, :])
        assert np.allclose(got, want[0])
        assert got[3] == pytest.approx(0.12)  # two accel-clamped steps

    def test_delay_correctness_against_simulator(self):
        # without a net the planned start state equals, bit for bit, the
        # noiseless simulator's state once the queued controls execute
        params = make_platform("megarover", 1.0)
        dyn = DynamicsModel(params)
        s = _state(2, 3, 0.5, 0.4, -0.2)
        q = np.array([[0.5, 0.4], [1.0, -0.8]])
        planned = plan_start_state(s, q, dyn)
        world = dataclasses.replace(make_world({"r": (s, params)}, noise_sigma=0.0), queues=[q])
        for _ in q:
            world = step_world(world, [(0.0, 0.0)])
        np.testing.assert_array_equal(planned, world.states[0])


class TestFilterCandidates:
    def test_no_agents_all_survive(self):
        survivors, states, worst, _ = filter_candidates(
            _state(0, 0, 0, 0.5, 0), [], all_barriers(-1.0), DYN, _cfg())
        assert len(survivors) == len(CANDS)
        assert np.all(np.isinf(worst))

    def test_negative_barrier_vetoes_all(self):
        agents = [AgentTrack("o", [(1.0, 0.0)] * 3)]
        survivors, _, worst, _ = filter_candidates(
            _state(0, 0, 0, 0.5, 0), agents, all_barriers(-1.0), DYN, _cfg())
        assert len(survivors) == 0
        assert np.allclose(worst, -1.0)

    def test_positive_barrier_keeps_all(self):
        agents = [AgentTrack("o", [(1.0, 0.0)] * 3)]
        survivors, _, _, _ = filter_candidates(
            _state(0, 0, 0, 0.5, 0), agents, all_barriers(1.0), DYN, _cfg())
        assert len(survivors) == len(CANDS)

    def test_two_agents_intersection_semantics(self):
        # conjunction: survivors(two agents) = intersection of single-agent runs
        start = _state(4.0, 6.0, 0.0, 0.8, 0.0)
        obs = AgentTrack("o", [(5.2, 6.0)] * 3)
        ped = AgentTrack("p", [(5.0, 7.6), (5.0, 7.5), (5.0, 7.4)])
        # distance-like barriers so the veto actually depends on geometry
        barriers = _geometric_barriers()
        s_obs, _, _, _ = filter_candidates(start, [obs], barriers, DYN, _cfg())
        s_ped, _, _, _ = filter_candidates(start, [ped], barriers, DYN, _cfg())
        s_both, _, _, _ = filter_candidates(start, [obs, ped], barriers, DYN, _cfg())
        assert set(s_both) == set(s_obs) & set(s_ped)

    def test_far_agents_ignored(self):
        agents = [AgentTrack("o", [(30.0, 0.0)] * 3)]
        survivors, _, worst, _ = filter_candidates(
            _state(0, 0, 0, 0.5, 0), agents, all_barriers(-1.0), DYN, _cfg())
        assert len(survivors) == len(CANDS) and np.all(np.isinf(worst))

    def test_missing_barrier_hard_error(self):
        agents = [AgentTrack("o", [(1.0, 0.0)] * 3)]
        with pytest.raises(MissingBarrierError):
            filter_candidates(_state(0, 0, 0, 0, 0), agents, {}, DYN, _cfg())


def _reference_filter(start, agents, barriers, dyn, cfg, time_offset_steps=0):
    """The per-step evaluation: one barrier call per horizon step and agent.

    Kept as the reference that `filter_candidates` must match: exactly, but
    for the last bits of learned barrier values.
    """
    def predicted(track, horizon):
        kind = classify_agent(track)
        if kind == "static":
            return "static", np.asarray(track.positions[-1], dtype=float)
        if kind == "pedestrian":
            vel = (track.positions[2] - track.positions[0]) / (2.0 * DT)
            ks = np.arange(-2, horizon + 1)     # rows start at step -2
            return "pedestrian", track.positions[2] + ks[:, None] * DT * vel
        return "robot", _coast_reference(track.states[0], horizon)

    def position(kind, payload, step):
        if kind == "static":
            return payload
        return payload[step + 2] if kind == "pedestrian" else payload[step][0:2]

    def contexts(robot_states, task, payload, step):
        if task == "static":
            cols = payload
        elif task == "dynamic":
            cols = payload[step:step + 3].ravel()
        else:
            cols = payload[step]
        return np.hstack([robot_states, np.tile(cols, (len(robot_states), 1))])

    cands = cfg.candidates
    nearby = []
    for track in agents:
        if np.linalg.norm(track.positions[-1] - start[0:2]) > INTERACTION_RADIUS:
            continue
        kind, payload = predicted(track, HORIZON + time_offset_steps)
        task = {"static": "static", "pedestrian": "dynamic"}.get(kind, "multirobot")
        nearby.append((task, kind, payload))
    states = np.tile(start, (len(cands), 1))
    worst_b = np.full(len(cands), np.inf)
    worst_d = np.full(len(cands), np.inf)
    for step in range(1, HORIZON + 1):
        states = predict_next_batch(dyn, states, cands)
        for task, kind, payload in nearby:
            ctx = contexts(states, task, payload, step + time_offset_steps)
            worst_b = np.minimum(worst_b, barriers[task].value(features_from_context(task, ctx)))
            d = np.linalg.norm(states[:, 0:2] - position(kind, payload, step + time_offset_steps),
                               axis=1)
            worst_d = np.minimum(worst_d, d)
    return np.where(worst_b >= 0.0)[0], states, worst_b, worst_d


def _coast_reference(state, n_steps):
    """The one-row, step-by-step coast of a (5,) state: (n_steps + 1, 5).

    Kept as the reference that every robot's rows of `coast_rollout` must
    match bit for bit.
    """
    states = np.empty((n_steps + 1, 5))
    states[0] = state
    for k in range(n_steps):
        states[k + 1] = coast_step_batch(states[k][None, :])[0]
    return states


def _robot_tracks(robots, n_steps=HORIZON + 2):
    """Tracks of `robots` ({id: (positions, (5,) state)}) carrying their rows
    of one shared coast, as `run_single` builds them; by default as long as
    a 2-tick delay needs."""
    coasted = coast_rollout(np.array([state for _, state in robots.values()], dtype=float),
                            n_steps)
    return [AgentTrack(rid, pos, states=coasted[:, j])
            for j, (rid, (pos, _)) in enumerate(robots.items())]


_START = _state(4.0, 6.0, 0.3, 0.8, 0.1)
_ROBOT, _ROBOT_FAR = _robot_tracks({
    "r": ([(6.1, 5.0), (6.0, 5.0), (5.9, 5.0)], _state(5.9, 5.0, 3.1, 1.0, -0.2)),
    "r_far": ([(-3.0, 0.0)] * 3, _state(-3.0, 0.0, 0.0, 0.0, 0.0))})
_AGENTS = {
    "static": [AgentTrack("o", [(5.2, 6.4)] * 3)],
    "pedestrian": [AgentTrack("p", [(5.0, 7.6), (5.0, 7.5), (5.0, 7.4)])],
    "robot": [_ROBOT],
}
_AGENTS["mixed_with_far"] = (_AGENTS["static"] + _AGENTS["pedestrian"] + _AGENTS["robot"] + [
    AgentTrack("o_far", [(30.0, 6.0)] * 3),
    AgentTrack("p_far", [(4.0, 11.6), (4.0, 11.5), (4.0, 11.4)]),
    _ROBOT_FAR])


@pytest.mark.parametrize("agents", sorted(_AGENTS))
@pytest.mark.parametrize("offset", [0, 1, 2])
@pytest.mark.parametrize("max_speed", [0.5, 1.0, 1.5])   # 15, 28, 35 candidates
@pytest.mark.parametrize("models", ["geometric", "bundle"])
def test_filter_matches_per_step_reference(agents, offset, max_speed, models, request):
    cfg = ControllerConfig(candidates=candidate_controls(max_speed), desired_speed=max_speed)
    if models == "bundle":
        bundle = request.getfixturevalue("bundle")
        barriers, dyn = bundle.barriers, bundle.dynamics_for(make_platform("freight", max_speed))
    else:
        barriers, dyn = _geometric_barriers(), DYN
    args = (_START, _AGENTS[agents], barriers, dyn, cfg)
    survivors, terminal, worst_b, worst_d = filter_candidates(*args, time_offset_steps=offset)
    want = _reference_filter(*args, time_offset_steps=offset)
    np.testing.assert_array_equal(survivors, want[0])
    np.testing.assert_array_equal(terminal, want[1])
    np.testing.assert_array_equal(worst_d, want[3])
    if models == "geometric":
        np.testing.assert_array_equal(worst_b, want[2])
    else:
        # OpenBLAS may pick another gemm kernel, with another summation order,
        # for H*C rows than for C rows, so learned weights can differ in the
        # last bits; the geometric nets sum exactly and must match exactly.
        tol = 1000 * np.finfo(float).eps
        np.testing.assert_allclose(worst_b, want[2], rtol=tol, atol=tol)


# robot states with v = 0, omega != 0 and theta on either side of +-pi, so
# that coasting wraps the heading
_FLEET = np.array([[5.9, 5.0, 3.1, 1.0, -0.2],
                   [1.0, 2.0, -3.14, 0.8, -0.3],
                   [2.0, 2.0, np.pi, 0.0, 0.5],
                   [0.0, 0.0, 3.141, 1.5, 0.02]])


@pytest.mark.parametrize("n_robots", [2, 3, 4])
@pytest.mark.parametrize("offset", [0, 1, 2])
def test_shared_coast_matches_one_row_coast(n_robots, offset):
    states = _FLEET[:n_robots]
    tracks = _robot_tracks({f"r{j}": ([s[0:2]] * 3, s) for j, s in enumerate(states)})
    steps = np.arange(1, HORIZON + 1) + offset
    for track, state in zip(tracks, states):
        task, cols, pos = _predicted_agent(track, steps)
        want = _coast_reference(state, HORIZON + 2)
        assert task == "multirobot"
        np.testing.assert_array_equal(cols, want[steps])
        np.testing.assert_array_equal(pos, want[steps, 0:2])


def test_short_coast_names_the_track():
    track, = _robot_tracks({"r7": ([(0.0, 0.0)] * 3, _FLEET[0])}, n_steps=HORIZON)
    with pytest.raises(ValueError, match="'r7'"):
        _predicted_agent(track, np.arange(1, HORIZON + 1) + 1)


def _geometric_barriers():
    """Hand-built barriers positive when the tracked agent is far.

    B = |dx + dy| - 1 via two relu units, so the veto depends on the actual
    relative geometry instead of being constant.
    """
    def abs_net(in_dim, i, j=None):
        net = nn.Mlp([in_dim, 2, 1], out_activation="identity", seed=0)
        net.weights[0][:] = 0.0
        net.weights[0][0, i] = 1.0
        net.weights[0][1, i] = -1.0
        if j is not None:
            net.weights[0][0, j] = 1.0
            net.weights[0][1, j] = -1.0
        net.biases[0][:] = 0.0
        net.weights[1][:] = 1.0
        net.biases[1][:] = -1.0
        return net

    b_static = BarrierModel(net=abs_net(5, 0, 1), task="static")      # |dx+dy| - 1
    b_dyn = BarrierModel(net=abs_net(9, 7, 8), task="dynamic")        # latest rel pos
    b_mr = BarrierModel(net=abs_net(8, 0, 1), task="multirobot")
    return {"static": b_static, "dynamic": b_dyn, "multirobot": b_mr}


def _row(*state):
    return np.array([state], dtype=float)


class TestGoalScore:
    def test_at_goal_at_desired_speed_is_zero_max(self):
        cfg = _cfg(desired_speed=1.0)
        assert goal_score(_row(2, 2, 0, 1.0, 0), (2, 2), cfg)[0] == 0.0

    def test_desired_speed_preferred_at_equal_distance(self):
        cfg = _cfg(desired_speed=1.0)
        fast, slow = goal_score(np.vstack([_row(0, 0, 0, 1.0, 0), _row(0, 0, 0, 0.4, 0)]),
                                (2, 0), cfg)
        assert fast > slow

    def test_arithmetic_example(self):
        cfg = _cfg(desired_speed=1.0)
        assert goal_score(_row(0, 0, 0, 0.5, 0), (2, 0), cfg)[0] == pytest.approx(-2.5)


class TestSelectControl:
    def test_open_field_picks_max_forward_no_turn(self):
        cfg = _cfg(desired_speed=1.0)
        u = select_control(_state(0, 6, 0, 1.0, 0), NO_QUEUE, [], (10, 6),
                           all_barriers(1.0), DYN, cfg)
        assert tuple(u) == (1.0, 0.0)

    def test_all_vetoed_returns_least_bad_candidate(self):
        # every candidate vetoed: recovery steers away from the threat
        cfg = _cfg(desired_speed=1.0)
        barriers = _geometric_barriers()
        start = _state(0, 0, 0, 1.0, 0)
        agents = [AgentTrack("o", [(0.6, 0.0)] * 3)]
        survivors, _, worst, clearance = filter_candidates(start, agents, barriers, DYN, cfg)
        assert len(survivors) == 0
        u = select_control(start, NO_QUEUE, agents, (10, 0), barriers, DYN, cfg)
        np.testing.assert_array_equal(u, recovery_control(cfg, worst, clearance))
        # and the chosen control genuinely retreats rather than advancing
        assert u[0] <= 0.0

    def test_recovery_prefers_clearance_below_d_and_barrier_above(self):
        cfg = _cfg()
        n = len(cfg.candidates)
        worst_b = np.full(n, -1.0)
        worst_d = np.full(n, 0.1)
        # candidate 3 threads a 0.2 m gap with a less-negative barrier value;
        # candidate 7 brakes and keeps 0.6 m: clearance below d wins
        worst_b[3], worst_d[3] = -0.2, 0.2
        worst_b[7], worst_d[7] = -0.5, 0.6
        np.testing.assert_array_equal(recovery_control(cfg, worst_b, worst_d), cfg.candidates[7])
        # once both clear the safety distance the barrier breaks the tie
        worst_d[3] = 0.9
        worst_d[7] = 0.8
        np.testing.assert_array_equal(recovery_control(cfg, worst_b, worst_d), cfg.candidates[3])

    def test_delay_compensation_changes_plan_frame(self):
        # same situation, queue full of forward commands: compensation plans
        # from the rolled-forward state
        cfg = _cfg(desired_speed=1.0)
        barriers = _geometric_barriers()
        start = _state(0, 0, 0, 1.0, 0)
        queue = np.array([[1.0, 0.0], [1.0, 0.0]])
        agents = [AgentTrack("o", [(2.2, 0.0)] * 3)]
        # the compensated planner starts 0.2 m closer to the obstacle, so its
        # survivor set can only shrink relative to the uncompensated one
        s_on, _, w_on, _ = filter_candidates(plan_start_state(start, queue, DYN),
                                          agents, barriers, DYN, cfg, time_offset_steps=2)
        s_off, _, w_off, _ = filter_candidates(start, agents, barriers, DYN, cfg)
        assert len(s_on) <= len(s_off)

    def test_candidate_count_for_half_speed_platform(self):
        cfg = ControllerConfig(candidates=candidate_controls(0.5))
        assert len(cfg.candidates) == 15

    @pytest.mark.parametrize("bad", ["state", "queue", "goal"])
    def test_non_finite_input_raises(self, bad):
        state = _state(np.nan if bad == "state" else 0, 6, 0, 1.0, 0)
        queue = np.array([[1.0, 0.0], [np.inf, 0.0]]) if bad == "queue" else NO_QUEUE
        goal = (10, np.nan) if bad == "goal" else (10, 6)
        with pytest.raises(ValueError, match="non-finite"):
            select_control(state, queue, [], goal, all_barriers(1.0), DYN, _cfg())
