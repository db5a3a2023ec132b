import numpy as np
import pytest

from safefleet import nn
from safefleet.dynamics import (DynamicsModel, next_state_mse, predict_next_batch,
                                residual_targets, train_dynamics,
                                transitions_from_trajectories)
from safefleet.world import (DT, MAX_OMEGA, Control, RobotState, kinematics_step_batch,
                             make_platform, make_world, step_world, wrap_angle)

FREIGHT = make_platform("freight", 1.0)
FREIGHT_NO_DELAY = make_platform("freight", 1.0, delay_h=0.0)
RNG = np.random.default_rng(321)


def _random_states(n, rng):
    return np.column_stack([rng.uniform(0, 12, n), rng.uniform(0, 12, n),
                            rng.uniform(-np.pi, np.pi, n), rng.uniform(-1, 1, n),
                            rng.uniform(-1.5, 1.5, n)])


def _zero_net():
    """A refinement net with an all-zero output layer, as older bundles shipped."""
    net = nn.Mlp([7, 8, 4], out_activation="tanh", seed=0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    return net


class TestPredictNext:
    def test_zero_net_matches_ground_truth(self):
        # bit-equal to one noiseless simulator tick, with an all-zero net
        # (older bundles) and without a net
        models = [DynamicsModel(FREIGHT, _zero_net()), DynamicsModel(FREIGHT)]
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = _random_states(1, rng)
            u = np.array([[rng.uniform(-1, 1), rng.uniform(-1.5, 1.5)]])
            world = make_world({"r": (RobotState(*s[0]), FREIGHT_NO_DELAY)}, noise_sigma=0.0)
            want = step_world(world, {"r": Control(*u[0])}).robot_state("r").as_array()
            for model in models:
                np.testing.assert_array_equal(predict_next_batch(model, s, u)[0], want)

    def test_no_net_is_kinematics_step(self):
        # also with an all-zero net: older bundles predict the same bits
        rng = np.random.default_rng(1)
        S = _random_states(200, rng)
        U = rng.uniform(-1.5, 1.5, (200, 2))
        for name in ("freight", "jackal", "megarover"):
            for max_speed in (0.5, 1.0, 1.5):
                p = make_platform(name, max_speed)
                want = kinematics_step_batch(S, U, p.m_v, p.m_omega, p.max_speed)
                for model in (DynamicsModel(p), DynamicsModel(p, _zero_net())):
                    np.testing.assert_array_equal(predict_next_batch(model, S, U), want)

    def test_refinement_doubles_effective_velocity(self):
        # force f = (~1, 0, 0, 0): x advance becomes (v + f1)*dt ~ 0.2
        net = nn.Mlp([7, 4, 4], out_activation="tanh", seed=0)
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
        net.biases[-1][0] = 10.0  # tanh(10) = 1 - 4e-9
        model = DynamicsModel(FREIGHT, net)
        s = predict_next_batch(model, np.array([[0, 0, 0, 1.0, 0]]), np.array([[1.0, 0]]))[0]
        assert s[0] == pytest.approx(0.2, abs=1e-6)

    def test_boundedness_of_corrections(self):
        # every correction magnitude <= 1 (position/heading scaled by dt)
        net = nn.Mlp([7, 32, 4], out_activation="tanh", seed=3)
        model = DynamicsModel(FREIGHT, net)
        baseline = DynamicsModel(FREIGHT)
        rng = np.random.default_rng(2)
        S = _random_states(10_000, rng)
        U = rng.uniform(-1.5, 1.5, (10_000, 2))
        diff = predict_next_batch(model, S, U) - predict_next_batch(baseline, S, U)
        assert np.all(np.abs(diff[:, 0]) <= DT + 1e-9)   # x
        assert np.all(np.abs(diff[:, 1]) <= DT + 1e-9)   # y
        assert np.all(np.abs(wrap_angle(diff[:, 2])) <= DT + 1e-9)  # theta
        assert np.all(np.abs(diff[:, 3]) <= 1 + 1e-9)    # v (clamped anyway)
        assert np.all(np.abs(diff[:, 4]) <= 1 + 1e-9)    # omega


class TestResidualInversion:
    def test_targets_invert_the_refinement(self):
        # round trip: predict with a net, recover its outputs from the transition
        net = nn.Mlp([7, 16, 4], out_activation="tanh", seed=4)
        model = DynamicsModel(FREIGHT, net)
        rng = np.random.default_rng(5)
        S = _random_states(200, rng)
        S[:, 3] *= 0.5  # keep away from the speed clamps
        S[:, 4] *= 0.5
        U = rng.uniform(-0.4, 0.4, (200, 2))
        SN = predict_next_batch(model, S, U)
        f = net.forward(np.hstack([S, U]))
        clamped = (np.abs(SN[:, 3]) >= FREIGHT.max_speed - 1e-9) | \
                  (np.abs(SN[:, 4]) >= MAX_OMEGA - 1e-9) | \
                  np.any(np.abs(f) > 0.999, axis=1)  # target clip range
        targets = residual_targets(S, U, SN, FREIGHT)
        assert np.sum(~clamped) > 50  # the round trip must actually be exercised
        assert np.allclose(targets[~clamped], f[~clamped], atol=1e-8)


class TestTrainDynamics:
    def test_too_few_transitions_rejected(self):
        traj = np.zeros((50, 8))
        traj[:, 0] = np.arange(50) * DT
        with pytest.raises(ValueError):
            train_dynamics([traj], FREIGHT, nn.TrainConfig())

    def test_transition_stacking(self):
        trajs = [np.arange(80, dtype=float).reshape(10, 8),
                 np.arange(24, dtype=float).reshape(3, 8)]
        S, U, SN = transitions_from_trajectories(trajs)
        assert S.shape == (11, 5) and U.shape == (11, 2) and SN.shape == (11, 5)

    def test_learned_never_worse_than_baseline(self, training_report):
        for platform, rep in training_report["dynamics"].items():
            assert rep["heldout_mse"] <= rep["baseline_mse"] + 1e-12


class TestNextStateMse:
    def test_heading_wrap_in_error(self):
        pred = np.array([[0, 0, np.pi - 0.05, 0, 0]])
        obs = np.array([[0, 0, -np.pi + 0.05, 0, 0]])
        # wrapped heading error is 0.1, not ~2*pi
        assert next_state_mse(pred.copy(), obs) == pytest.approx(0.1 ** 2 / 5)
