"""Per-platform dynamics: the differential-drive kinematics baseline, plus a
bounded neural refinement where one was learned.

The net maps (state, control) -> 4 tanh-bounded corrections, the residual
of `world.kinematics_step_batch`, the one motion model: they add to the
effective linear velocity, the heading rate, and the two velocity updates.
Targets are residuals between observed next states and the kinematics
prediction, recovered in closed form, so plain MSE regression suffices.  A
refinement that does not beat kinematics on held-out data is dropped, and a
model without a net predicts exactly `kinematics_step_batch`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .world import DT, PlatformParams, kinematics_step_batch, wrap_angle

# trajectory array columns: t, x, y, theta, v, omega, u_v, u_omega
T, X, Y, TH, V, OM, UV, UW = range(8)
STATE_COLS = slice(X, OM + 1)
CONTROL_COLS = slice(UV, UW + 1)
HOLDOUT_FRAC = 0.2   # share of transitions held out to judge a refinement


@dataclass
class DynamicsModel:
    params: PlatformParams     # limits the kinematics step runs under
    net: nn.Mlp | None = None  # 7 -> hidden -> 4, tanh output; None: kinematics only


def predict_next_batch(model: DynamicsModel, states: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """(N, 5) x (N, 2) -> (N, 5) one-step prediction: the kinematics step under
    the model's platform limits, with the net's output as its residual when
    there is a net."""
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    p = model.params
    residual = None
    if model.net is not None:
        residual = model.net.forward(np.hstack([states, controls]))
    return kinematics_step_batch(states, controls, p.m_v, p.m_omega, p.max_speed, residual)


def transitions_from_trajectories(trajectories):
    """Stack (state, control, next_state) triples from (T, 8) trajectory arrays."""
    S, U, SN = [], [], []
    for traj in trajectories:
        traj = np.asarray(traj, dtype=float)
        if len(traj) < 2:
            continue
        S.append(traj[:-1, STATE_COLS])
        U.append(traj[:-1, CONTROL_COLS])
        SN.append(traj[1:, STATE_COLS])
    if not S:
        raise ValueError("no transitions in dataset")
    return np.vstack(S), np.vstack(U), np.vstack(SN)


def residual_targets(S, U, SN, params: PlatformParams):
    """Invert the refinement equations to get per-transition targets f1..f4."""
    x, y, th, v, om = S.T
    uv, uw = U.T
    dx = SN[:, 0] - x
    dy = SN[:, 1] - y
    v_eff = (np.cos(th) * dx + np.sin(th) * dy) / DT
    f1 = v_eff - v
    f2 = wrap_angle(SN[:, 2] - th) / DT - om
    f3 = SN[:, 3] - v - np.clip(uv - v, -params.m_v * DT, params.m_v * DT)
    f4 = SN[:, 4] - om - np.clip(uw - om, -params.m_omega * DT, params.m_omega * DT)
    targets = np.stack([f1, f2, f3, f4], axis=1)
    return np.clip(targets, -0.999, 0.999)


def next_state_mse(pred: np.ndarray, observed: np.ndarray) -> float:
    """MSE over the 5 state dims with the heading error wrapped."""
    diff = pred - observed
    diff[:, 2] = wrap_angle(diff[:, 2])
    return float(np.mean(diff ** 2))


def train_dynamics(trajectories, params: PlatformParams, config: nn.TrainConfig,
                   hidden=(64, 64)):
    """Fit the refinement net; returns (model, held-out MSE, kinematics-baseline MSE).

    If the trained net does not beat the baseline on the held-out split, the
    returned model has no net, so it is never worse than pure kinematics.
    """
    S, U, SN = transitions_from_trajectories(trajectories)
    if len(S) < 1000:
        raise ValueError(f"need >= 1000 transitions, got {len(S)}")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(S))
    n_hold = max(1, int(len(S) * HOLDOUT_FRAC))
    hold, tr = order[:n_hold], order[n_hold:]

    inputs = np.hstack([S, U])
    targets = residual_targets(S, U, SN, params)
    net = nn.Mlp([7, *hidden, 4], out_activation="tanh", seed=config.seed)
    mu = inputs[tr].mean(axis=0)
    sd = inputs[tr].std(axis=0)
    net.set_input_scaler(mu, np.where(sd > 1e-8, sd, 1.0))
    nn.train(net, inputs[tr], targets[tr], nn.mse_loss, config)

    model = DynamicsModel(params, net)
    baseline = DynamicsModel(params)
    learned_mse = next_state_mse(predict_next_batch(model, S[hold], U[hold]), SN[hold])
    baseline_mse = next_state_mse(predict_next_batch(baseline, S[hold], U[hold]), SN[hold])
    if not learned_mse < baseline_mse:
        return baseline, baseline_mse, baseline_mse
    return model, learned_mse, baseline_mse
