"""Per-platform learned dynamics: bounded neural refinements over the
differential-drive kinematics baseline.

The net maps (state, control) -> 4 tanh-bounded corrections.  Scaled by
beta, they are the residual of `world.kinematics_step_batch`, the one motion
model: they add to the effective linear velocity, the heading rate, and the
two velocity updates.  Targets are residuals between observed next states
and the kinematics prediction, recovered in closed form, so plain MSE
regression suffices.
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


@dataclass
class DynamicsModel:
    net: nn.Mlp               # 7 -> hidden -> 4, tanh output
    beta: float
    params: PlatformParams
    dt: float = DT


def zero_dynamics(params: PlatformParams, beta: float = 1.0, dt: float = DT) -> DynamicsModel:
    """Pure kinematics baseline (refinement net outputs exactly 0)."""
    net = nn.Mlp([7, 8, 4], out_activation="tanh", seed=0)
    net.zero_output()
    return DynamicsModel(net=net, beta=beta, params=params, dt=dt)


def predict_next_batch(model: DynamicsModel, states: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """(N, 5) x (N, 2) -> (N, 5) one-step prediction: the kinematics step with
    beta times the net's output as its residual."""
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    p = model.params
    residual = None
    if model.beta != 0.0:
        residual = model.beta * model.net.forward(np.hstack([states, controls]))
    return kinematics_step_batch(states, controls, p.m_v, p.m_omega,
                                 p.max_speed, p.max_omega, model.dt, residual)


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


def residual_targets(S, U, SN, params: PlatformParams, beta: float, dt: float = DT):
    """Invert the refinement equations to get per-transition targets f1..f4."""
    x, y, th, v, om = S.T
    uv, uw = U.T
    dx = SN[:, 0] - x
    dy = SN[:, 1] - y
    v_eff = (np.cos(th) * dx + np.sin(th) * dy) / dt
    f1 = (v_eff - v) / beta
    f2 = (wrap_angle(SN[:, 2] - th) / dt - om) / beta
    f3 = (SN[:, 3] - v - np.clip(uv - v, -params.m_v * dt, params.m_v * dt)) / beta
    f4 = (SN[:, 4] - om - np.clip(uw - om, -params.m_omega * dt, params.m_omega * dt)) / beta
    targets = np.stack([f1, f2, f3, f4], axis=1)
    return np.clip(targets, -0.999, 0.999)


def next_state_mse(pred: np.ndarray, observed: np.ndarray) -> float:
    """MSE over the 5 state dims with the heading error wrapped."""
    diff = pred - observed
    diff[:, 2] = wrap_angle(diff[:, 2])
    return float(np.mean(diff ** 2))


def train_dynamics(trajectories, params: PlatformParams, config: nn.TrainConfig | None = None,
                   hidden=(64, 64), beta: float = 1.0, holdout_frac: float = 0.2):
    """Fit the refinement net; returns (model, held-out MSE, kinematics-baseline MSE).

    If the trained net does not beat the baseline on the held-out split it is
    zeroed out, so the returned model is never worse than pure kinematics.
    """
    config = config or nn.TrainConfig(lr=1e-3, batch_size=256, epochs=30, seed=0)
    S, U, SN = transitions_from_trajectories(trajectories)
    if len(S) < 1000:
        raise ValueError(f"need >= 1000 transitions, got {len(S)}")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(S))
    n_hold = max(1, int(len(S) * holdout_frac))
    hold, tr = order[:n_hold], order[n_hold:]

    inputs = np.hstack([S, U])
    targets = residual_targets(S, U, SN, params, beta)
    net = nn.Mlp([7, *hidden, 4], out_activation="tanh", seed=config.seed)
    mu = inputs[tr].mean(axis=0)
    sd = inputs[tr].std(axis=0)
    net.set_input_scaler(mu, np.where(sd > 1e-8, sd, 1.0))
    nn.train(net, inputs[tr], targets[tr], nn.mse_loss, config)

    model = DynamicsModel(net=net, beta=beta, params=params)
    baseline = zero_dynamics(params, beta=beta)
    learned_mse = next_state_mse(predict_next_batch(model, S[hold], U[hold]), SN[hold])
    baseline_mse = next_state_mse(predict_next_batch(baseline, S[hold], U[hold]), SN[hold])
    if learned_mse > baseline_mse:
        net.zero_output()
        learned_mse = baseline_mse
    return model, learned_mse, baseline_mse
